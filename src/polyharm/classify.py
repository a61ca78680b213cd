"""Structural classification of a mapping against the theorem categories."""

from typing import NamedTuple

from .bipoly import BiPoly, _reduced
from .wirtinger import polyharmonic_order

_AFFINE_SUPPORT = {(0, 0), (1, 0), (0, 1)}


class ClassReport(NamedTuple):
    """Verdict of classify(); constants count as both analytic and anti-analytic."""

    order: int
    is_analytic: bool
    is_antianalytic: bool
    is_harmonic: bool
    is_affine: bool
    analytic_degree: int | None
    harmonic_degree: int | None


def classify(f: BiPoly) -> ClassReport:
    """Classify f as analytic / anti-analytic / harmonic / affine.

    A harmonic f splits as h + conj(g) with the constant term assigned to
    the analytic part h, so harmonic_degree = max(deg h, deg g) equals
    max(deg_z, deg_zbar).
    """
    order = polyharmonic_order(f)
    support = f.numerators.keys()
    analytic = all(j == 0 for _, j in support)
    antianalytic = all(i == 0 for i, _ in support)
    harmonic = order <= 1
    return ClassReport(
        order=order,
        is_analytic=analytic,
        is_antianalytic=antianalytic,
        is_harmonic=harmonic,
        is_affine=set(support) <= _AFFINE_SUPPORT,
        analytic_degree=f.deg_z if analytic else None,
        harmonic_degree=max(f.deg_z, f.deg_zbar) if harmonic else None,
    )


def is_strictly_q_harmonic(f: BiPoly, q: int) -> bool:
    """True iff f is q-harmonic but not (q-1)-harmonic (q >= 1)."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    return polyharmonic_order(f) == q


def harmonic_parts(f: BiPoly) -> tuple[BiPoly, BiPoly]:
    """For harmonic f, the pair (h, g) with f = h + conj(g).

    The constant term goes to h; raises ValueError for non-harmonic input.
    """
    if polyharmonic_order(f) > 1:
        raise ValueError("harmonic_parts requires a harmonic mapping")
    h = {}
    g = {}
    for (i, j), (re, im) in f.numerators.items():
        if j == 0:
            h[(i, 0)] = (re, im)
        else:
            g[(j, 0)] = (re, -im)
    return _reduced(h, f.denominator), _reduced(g, f.denominator)
