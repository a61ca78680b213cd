"""Floating-point cross-validation of the exact operators.

The symbolic Laplacian is compared against the 5-point finite-difference
stencil (the formal operator equals the plain 2-D Laplacian), and the
exponential identity behind the order-2 obstruction polynomial is checked
numerically since exp(m*f) itself lives outside the polynomial ring.
Points are sampled inside the unit disk to keep conditioning sane.

Both checks take a sequence of points and return one report per point,
and exp_within_tolerance judges one exp_identity_check call's reports
together; the symbolic side and every mapping's float coefficients are
computed once per call, not once per point.  The nested stencil of
exp_identity_check reaches 13 distinct arguments per point through 26
reads, and evaluates exp(m*f) once per distinct argument with no zero
part: the same float expressions in the same order, so every report is
bit for bit what evaluating at each read gives.
"""

import cmath
import math
from typing import NamedTuple, Sequence

from .bipoly import BiPoly
from .errors import FloatOverflow
from .gen import SplitMix64
from .theorems import a_m
from .wirtinger import laplacian

DEFAULT_H = 1e-4
DEFAULT_EXP_H = 1e-3
FD_ABS_TOL = 1e-5
FD_REL_TOL = 1e-6
EXP_REL_TOL = 1e-2


class FdReport(NamedTuple):
    point: complex
    h: float
    symbolic_value: complex
    fd_value: complex
    abs_error: float


def _float_rows(f: BiPoly) -> list:
    """f's coefficients as complex floats, one row per power of z from deg_z down.

    Row i lists c_ij for j from its largest exponent down to 0, with 0j for
    absent terms; an empty row stands for a power of z with no terms.  Each
    part is the correctly rounded quotient of its numerator and the common
    denominator, as float(Fraction) would give; FloatOverflow if one lies
    beyond the range of a double.
    """
    if f.is_zero:
        return []
    den = f.denominator
    rows: dict[int, dict] = {}
    try:
        for (i, j), (re, im) in f.numerators.items():
            rows.setdefault(i, {})[j] = complex(re / den, im / den)
    except OverflowError:
        raise FloatOverflow("a coefficient of the mapping or a derived one overflows a double") from None
    return [
        [row.get(j, 0j) for j in range(max(row), -1, -1)] if (row := rows.get(i)) else []
        for i in range(f.deg_z, -1, -1)
    ]


def _eval_rows(rows: list, point: complex) -> complex:
    """Horner's rule in z = point and zbar = conj(point) over _float_rows."""
    z = complex(point)
    zbar = z.conjugate()
    total = 0j
    for row in rows:
        row_value = 0j
        for c in row:
            row_value = row_value * zbar + c
        total = total * z + row_value
    return total


def eval_float(f: BiPoly, point: complex, *, rows: list | None = None) -> complex:
    """Horner-style evaluation in z and conj(point) with double precision.

    A caller evaluating f at many points passes rows=_float_rows(f) once built.
    """
    return _eval_rows(_float_rows(f) if rows is None else rows, point)


def _exp(w: complex) -> complex:
    try:
        return cmath.exp(w)
    except OverflowError:
        raise FloatOverflow(f"exp({w:.6g}) overflows a double") from None


def step_in_range(h: float) -> bool:
    """True for a step h > 0 whose square, the stencil's divisor, is a positive finite double."""
    return h > 0 and 0 < h * h < math.inf


def _stencil(fn, point: complex, h: float) -> complex:
    return (
        fn(point + h) + fn(point - h) + fn(point + 1j * h) + fn(point - 1j * h) - 4.0 * fn(point)
    ) / (h * h)


def _report(point: complex, h: float, symbolic: complex, fd: complex) -> FdReport:
    """The report at one point; FloatOverflow if a value or the error is not finite."""
    error = abs(symbolic - fd)
    if not (cmath.isfinite(symbolic) and cmath.isfinite(fd) and math.isfinite(error)):
        raise FloatOverflow(f"the check at w = {complex(point):.6g} with h = {h!r} overflows a double")
    return FdReport(complex(point), h, symbolic, fd, error)


def fd_laplacian(f: BiPoly, points: Sequence[complex], h: float = DEFAULT_H) -> list[FdReport]:
    """Compare the symbolic Laplacian with the 5-point stencil at each point."""
    if not step_in_range(h):
        raise ValueError(f"h must be positive with h*h a positive finite double, got {h!r}")
    rows = _float_rows(f)
    symbolic_rows = _float_rows(laplacian(f, 1))
    reports = []
    for point in points:
        symbolic = _eval_rows(symbolic_rows, point)
        fd = _stencil(lambda w: _eval_rows(rows, w), point, h)
        reports.append(_report(point, h, symbolic, fd))
    return reports


def fd_within_tolerance(report: FdReport, abs_tol: float = FD_ABS_TOL, rel_tol: float = FD_REL_TOL) -> bool:
    return report.abs_error <= max(abs_tol, rel_tol * abs(report.symbolic_value))


def exp_identity_check(
    f: BiPoly, m: int, points: Sequence[complex], h: float = DEFAULT_EXP_H
) -> list[FdReport]:
    """Nested-stencil check of the double Laplacian of w -> exp(m*f(w)) at each point.

    The symbolic side is 16*m^2*exp(m*f(point)) times the obstruction
    polynomial a_m(f, m) at the point.  The identity it checks is exact
    for biharmonic f; beyond order 2 the double Laplacian of exp(m*f)
    carries an extra 16*m*exp(m*f) times the fourth mixed derivative of
    f, which the obstruction polynomial deliberately excludes.  |m| <= 3
    keeps the dynamic range of the exponential under control.

    The nested stencil reads exp(m*f) 26 times per point at 13 offsets;
    each distinct argument with no zero part, as the same float
    expressions compute it, is evaluated once per call.
    """
    if not step_in_range(h):
        raise ValueError(f"h must be positive with h*h a positive finite double, got {h!r}")
    if not isinstance(m, int) or m == 0 or abs(m) > 3:
        raise ValueError("m must be a nonzero integer with |m| <= 3")

    rows = _float_rows(f)
    obstruction_rows = _float_rows(a_m(f, m))
    values: dict = {}

    def phi(w: complex) -> complex:
        # Nonzero parts that compare equal have equal bits, but 0.0 == -0.0:
        # an argument with a zero part is evaluated at every read.
        value = values.get(w)
        if value is None or not (w.real and w.imag):
            value = values[w] = _exp(m * _eval_rows(rows, w))
        return value

    reports = []
    for point in points:
        fd = _stencil(lambda w: _stencil(phi, w, h), point, h)
        symbolic = 16.0 * m * m * phi(complex(point)) * _eval_rows(obstruction_rows, point)
        reports.append(_report(point, h, symbolic, fd))
    return reports


def exp_within_tolerance(reports: Sequence[FdReport], f: BiPoly, m: int, rel_tol: float = EXP_REL_TOL) -> bool:
    """Every report of one exp_identity_check(f, m, ...) call passes a relative check.

    Its floor is tied to the natural 16*m^2*exp(m*f) scale at the point:
    the double stencil amplifies rounding, so when the target value is
    (near) zero the comparison falls back to that scale instead of an
    undefined pure-relative test.
    """
    rows = _float_rows(f)
    for report in reports:
        scale = 16.0 * m * m * abs(_exp(m * eval_float(f, report.point, rows=rows)))
        if report.abs_error > max(rel_tol * abs(report.symbolic_value), rel_tol * scale):
            return False
    return True


def sample_points(seed: int, count: int) -> list[complex]:
    """Deterministic points in the square (-0.6, 0.6)^2 inside the unit disk."""
    radius = 0.6
    rng = SplitMix64(seed)
    return [
        complex(radius * (2.0 * rng.unit() - 1.0), radius * (2.0 * rng.unit() - 1.0))
        for _ in range(count)
    ]
