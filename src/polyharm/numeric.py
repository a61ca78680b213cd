"""Floating-point cross-validation of the exact operators.

The symbolic Laplacian is compared against the 5-point finite-difference
stencil (the formal operator equals the plain 2-D Laplacian), and the
exponential identity behind the order-2 obstruction polynomial is checked
numerically since exp(m*f) itself lives outside the polynomial ring.
Points are sampled inside the unit disk to keep conditioning sane.
"""

import cmath
from dataclasses import dataclass

from .bipoly import BiPoly, _horner
from .gen import SplitMix64
from .theorems import a_m
from .wirtinger import laplacian

DEFAULT_H = 1e-4
DEFAULT_EXP_H = 1e-3
FD_ABS_TOL = 1e-5
FD_REL_TOL = 1e-6
EXP_REL_TOL = 1e-2


@dataclass(frozen=True)
class FdReport:
    point: complex
    h: float
    symbolic_value: complex
    fd_value: complex
    abs_error: float


def eval_float(f: BiPoly, point: complex) -> complex:
    """Horner-style evaluation in z and conj(point) with double precision.

    Each coefficient part is the correctly rounded quotient of its numerator
    and the common denominator, as float(Fraction) would give.
    """
    z = complex(point)
    return _horner(f, z, z.conjugate(), lambda re, im, den: complex(re / den, im / den))


def _stencil(fn, point: complex, h: float) -> complex:
    return (
        fn(point + h) + fn(point - h) + fn(point + 1j * h) + fn(point - 1j * h) - 4.0 * fn(point)
    ) / (h * h)


def fd_laplacian(f: BiPoly, point: complex, h: float = DEFAULT_H) -> FdReport:
    """Compare the symbolic Laplacian with the 5-point stencil at one point."""
    if h <= 0:
        raise ValueError("h must be positive")
    symbolic = eval_float(laplacian(f, 1), point)
    fd = _stencil(lambda w: eval_float(f, w), point, h)
    return FdReport(complex(point), h, symbolic, fd, abs(symbolic - fd))


def fd_within_tolerance(report: FdReport, abs_tol: float = FD_ABS_TOL, rel_tol: float = FD_REL_TOL) -> bool:
    return report.abs_error <= max(abs_tol, rel_tol * abs(report.symbolic_value))


def exp_identity_check(f: BiPoly, m: int, point: complex, h: float = DEFAULT_EXP_H) -> FdReport:
    """Nested-stencil check of the double Laplacian of w -> exp(m*f(w)).

    The symbolic side is 16*m^2*exp(m*f(point)) times the obstruction
    polynomial a_m(f, m) at the point.  The identity it checks is exact
    for biharmonic f; beyond order 2 the double Laplacian of exp(m*f)
    carries an extra 16*m*exp(m*f) times the fourth mixed derivative of
    f, which the obstruction polynomial deliberately excludes.  |m| <= 3
    keeps the dynamic range of the exponential under control.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if not isinstance(m, int) or m == 0 or abs(m) > 3:
        raise ValueError("m must be a nonzero integer with |m| <= 3")

    def phi(w: complex) -> complex:
        return cmath.exp(m * eval_float(f, w))

    fd = _stencil(lambda w: _stencil(phi, w, h), point, h)
    symbolic = 16.0 * m * m * phi(complex(point)) * eval_float(a_m(f, m), point)
    return FdReport(complex(point), h, symbolic, fd, abs(symbolic - fd))


def exp_within_tolerance(report: FdReport, f: BiPoly, m: int, rel_tol: float = EXP_REL_TOL) -> bool:
    """Relative check with a floor tied to the natural 16*m^2*exp(m*f) scale.

    The double stencil amplifies rounding, so when the target value is
    (near) zero the comparison falls back to that scale instead of an
    undefined pure-relative test.
    """
    scale = 16.0 * m * m * abs(cmath.exp(m * eval_float(f, report.point)))
    return report.abs_error <= max(rel_tol * abs(report.symbolic_value), rel_tol * scale)


def sample_points(seed: int, count: int, radius: float = 0.6) -> list[complex]:
    """Deterministic points in the square (-radius, radius)^2 inside the disk."""
    rng = SplitMix64(seed)
    return [
        complex(radius * (2.0 * rng.unit() - 1.0), radius * (2.0 * rng.unit() - 1.0))
        for _ in range(count)
    ]
