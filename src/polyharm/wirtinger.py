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
    """Apply 4 * d/dz d/dzbar the given number of times (times >= 1).

    Stops early once the result is zero, since the Laplacian of zero is zero.
    """
    if not isinstance(times, int) or times < 1:
        raise ValueError("times must be a positive integer")
    out = f
    for _ in range(times):
        if out.is_zero:
            break
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


def newton_vertex_depth(f: BiPoly) -> int:
    """mu = the largest min(i, j) over the vertices of f's Newton polygon; 0 for f = 0.

    The Newton polygon is the convex hull of the support.  Its vertices
    survive in every power: the Newton polygon of f^m is m times that of f,
    and the coefficient of f^m at m*v is c_v^m != 0 for each vertex v
    (Ostrowski 1921), so order(f^m) >= 1 + m*mu.  A support point on an
    edge but not at its end is not a vertex: in z^2 + z*zbar + zbar^2 the
    point (1, 1) lies on an edge, and mu = 0.
    """
    points = sorted(f.numerators)

    def half_hull(ordered):
        # Andrew's monotone chain; popping on cross <= 0 drops collinear points.
        chain = []
        for x, y in ordered:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain

    vertices = half_hull(points) + half_hull(reversed(points))
    return max(map(min, vertices), default=0)


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
    # Each key (i + k, j + k) has min k, so the keys of different components are distinct.
    parts = {}
    for k, g in enumerate(form.components):
        for (i, j), (re, im) in g.numerators.items():
            if min(i, j) >= 1:
                raise NonHarmonicComponent(
                    f"component {k + 1} contains the mixed monomial z^{i}*zbar^{j}"
                )
            parts[(i + k, j + k)] = (re, im, g.denominator)
    return _from_parts(parts)
