"""Wirtinger derivatives, Laplacian, polyharmonic order, Almansi split.

The Laplacian is 4 * d/dz d/dzbar, acting termwise on the sparse
representation: 4*i*j * z^(i-1) * zbar^(j-1).  The least p with
laplacian(f, p) == 0 therefore has the closed form 1 + max(min(i, j))
over the support, which makes order detection exact and decidable.
"""

from .bipoly import AlmansiForm, BiPoly, _from_parts, _reduced
from .errors import NonHarmonicComponent


def d_dz(f: BiPoly) -> BiPoly:
    """Formal d/dz: c * z^i * zbar^j -> c*i * z^(i-1) * zbar^j."""
    return _reduced(
        {(i - 1, j): (re * i, im * i) for (i, j), (re, im) in f.numerators.items() if i >= 1},
        f.denominator,
    )


def d_dzbar(f: BiPoly) -> BiPoly:
    """Formal d/dzbar: c * z^i * zbar^j -> c*j * z^i * zbar^(j-1)."""
    return _reduced(
        {(i, j - 1): (re * j, im * j) for (i, j), (re, im) in f.numerators.items() if j >= 1},
        f.denominator,
    )


def laplacian(f: BiPoly, times: int = 1) -> BiPoly:
    """Apply 4 * d/dz d/dzbar the given number of times (times >= 1)."""
    if not isinstance(times, int) or times < 1:
        raise ValueError("times must be a positive integer")
    out = f
    for _ in range(times):
        out = _reduced(
            {
                (i - 1, j - 1): (re * (4 * i * j), im * (4 * i * j))
                for (i, j), (re, im) in out.numerators.items()
                if i >= 1 and j >= 1
            },
            out.denominator,
        )
    return out


def polyharmonic_order(f: BiPoly) -> int:
    """Least p with laplacian(f, p) == 0; the zero mapping has order 0."""
    if f.is_zero:
        return 0
    return 1 + max(map(min, f.numerators))


def is_harmonic(f: BiPoly) -> bool:
    return polyharmonic_order(f) <= 1


def almansi_decompose(f: BiPoly) -> AlmansiForm:
    """Split f into harmonic components G_k with f = sum (z*zbar)^(k-1) G_k.

    Each monomial c * z^i * zbar^j with m = min(i, j) is routed to
    component G_(m+1) as c * z^(i-m) when i >= j and as c * zbar^(j-m)
    otherwise.  The component count equals the polyharmonic order.
    """
    order = polyharmonic_order(f)
    buckets: list[dict] = [{} for _ in range(order)]
    for (i, j), c in f.numerators.items():
        m = min(i, j)
        key = (i - m, 0) if i >= j else (0, j - m)
        buckets[m][key] = c
    return AlmansiForm(tuple(_reduced(b, f.denominator) for b in buckets))


def almansi_recompose(form: AlmansiForm) -> BiPoly:
    """Evaluate sum_k (z*zbar)^(k-1) * G_k exactly.

    Raises NonHarmonicComponent if any component has a mixed monomial.
    """
    parts = []
    for k, g in enumerate(form.components):
        for (i, j), (re, im) in g.numerators.items():
            if min(i, j) >= 1:
                raise NonHarmonicComponent(
                    f"component {k + 1} contains the mixed monomial z^{i}*zbar^{j}"
                )
            parts.append(((i + k, j + k), (re, im, g.denominator)))
    return _from_parts(parts)
