import cmath
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from polyharm import numeric
from polyharm.bipoly import BiPoly, GaussianRational, eval_exact
from polyharm.cli import main
from polyharm.gen import gen_bipoly, spawn
from polyharm.numeric import (
    FdReport,
    eval_float,
    exp_identity_check,
    exp_within_tolerance,
    fd_laplacian,
    fd_within_tolerance,
    sample_points,
    step_in_range,
)
from polyharm.theorems import a_m
from polyharm.wirtinger import laplacian
from strategies import bipoly_any, bipoly_small, scalars

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


def test_eval_float_modulus():
    assert eval_float(Z * ZBAR, 3 + 4j) == pytest.approx(25.0)


def test_eval_float_square():
    assert eval_float(Z**2, 1 + 1j) == pytest.approx(2j, abs=1e-12)


def test_eval_float_matches_exact():
    f = Z**2 * ZBAR**3 + Z
    exact = complex(eval_exact(f, GaussianRational(1, 1)))
    assert abs(eval_float(f, 1 + 1j) - exact) <= 1e-12 * abs(exact)


def _term_scale(f, p):
    # conditioning of the evaluation: cancellation can make |f(p)| tiny
    # while the summed terms are large, so the float bound is relative to
    # the term magnitudes, not the result
    return sum(
        abs(complex(c)) * abs(p) ** (i + j) for (i, j), c in f.terms.items()
    )


@given(bipoly_any, scalars)
@settings(max_examples=40)
def test_eval_float_tracks_eval_exact(f, p):
    exact = complex(eval_exact(f, p))
    approx = eval_float(f, complex(p))
    tolerance = max(1e-10 * max(1.0, abs(exact)), 1e-12 * _term_scale(f, complex(p)))
    assert abs(approx - exact) <= tolerance


def test_eval_float_tracks_eval_exact_at_full_coefficient_range():
    from polyharm.gen import SplitMix64, spawn

    for index in range(50):
        rng = SplitMix64(spawn(43, index))
        f = gen_bipoly(rng.next_u64(), 6)
        p = GaussianRational(
            Fraction(rng.between(-16, 16), rng.between(1, 16)),
            Fraction(rng.between(-16, 16), rng.between(1, 16)),
        )
        exact = complex(eval_exact(f, p))
        approx = eval_float(f, complex(p))
        tolerance = max(1e-10 * max(1.0, abs(exact)), 1e-12 * _term_scale(f, complex(p)))
        assert abs(approx - exact) <= tolerance


def test_fd_laplacian_quadratic_is_nearly_exact():
    [report] = fd_laplacian(Z * ZBAR, [0.3 - 0.1j], 1e-4)
    assert report.symbolic_value == pytest.approx(4.0)
    assert report.abs_error <= 1e-6


def test_fd_laplacian_matches_symbolic_derivative():
    f = Z**2 * ZBAR**3
    point = 0.3 + 0.2j
    [report] = fd_laplacian(f, [point], 1e-4)
    expected = eval_float(Z * ZBAR**2 * 24, point)
    assert report.symbolic_value == pytest.approx(expected)
    assert report.abs_error <= 1e-5


def test_fd_laplacian_on_harmonic_is_tiny():
    [report] = fd_laplacian(Z**5, [0.4 + 0.25j], 1e-4)
    assert report.symbolic_value == 0
    assert abs(report.fd_value) <= 1e-5


def test_fd_reports_are_consistent():
    [report] = fd_laplacian(Z * ZBAR**2, [0.2 + 0.2j])
    assert report.abs_error == abs(report.symbolic_value - report.fd_value)
    assert report.h == 1e-4


def test_fd_seeded_sample():
    for index in range(30):
        f = gen_bipoly(spawn(31, index), 6)
        for report in fd_laplacian(f, sample_points(spawn(37, index), 3), 1e-4):
            assert fd_within_tolerance(report), (f, report.point, report.abs_error)


def test_stencil_second_order_convergence():
    # truncation-dominated regime: the error ratio under h -> h/2 sits near 4
    f = Z**3 * ZBAR**3
    point = 0.4 + 0.3j
    [coarse] = fd_laplacian(f, [point], 2e-2)
    [fine] = fd_laplacian(f, [point], 1e-2)
    assert coarse.abs_error > 0 and fine.abs_error > 0
    ratio = coarse.abs_error / fine.abs_error
    assert 3.0 <= ratio <= 5.0


def test_fd_validation():
    with pytest.raises(ValueError):
        fd_laplacian(Z, [0j], 0.0)


@pytest.mark.parametrize("h", [1e-200, 1e-162, math.inf, 1e300, 1e155, math.nan])
def test_steps_whose_square_leaves_double_range_are_rejected(h):
    # The stencil divides by h*h: 0.0 below about 1.6e-162, inf above about 1.3e154.
    assert not step_in_range(h)
    with pytest.raises(ValueError, match="h must be positive"):
        fd_laplacian(Z * ZBAR, [0.1j], h)
    with pytest.raises(ValueError, match="h must be positive"):
        exp_identity_check(Z * ZBAR, 1, [0.1j], h)


def test_steps_at_the_edges_of_double_range_are_accepted():
    for h in (1e-160, 1e-4, 1.0, 1e154):
        assert step_in_range(h)
    assert not step_in_range(0.0) and not step_in_range(-1e-4)


def test_exp_identity_analytic_input_vanishes():
    [report] = exp_identity_check(Z, 1, [0.2 + 0.1j], 1e-3)
    assert report.symbolic_value == 0
    assert exp_within_tolerance([report], Z, 1)


def test_exp_identity_hand_value():
    # at |z|^2 = 1/4 the obstruction 2 + 4|z|^2 + |z|^4 evaluates to 49/16
    f = Z * ZBAR
    point = 0.5 + 0.0j
    [report] = exp_identity_check(f, 1, [point], 1e-3)
    expected = 16.0 * math.exp(0.25) * (49.0 / 16.0)
    assert report.symbolic_value == pytest.approx(expected)
    assert report.abs_error <= 1e-2 * abs(report.symbolic_value)


def test_exp_identity_m_two_consistent():
    f = Z * ZBAR
    point = 0.4 + 0.1j
    [report] = exp_identity_check(f, 2, [point], 1e-3)
    assert exp_within_tolerance([report], f, 2)


def test_exp_identity_holds_across_biharmonic_shapes():
    f = Z**2 * ZBAR + Z * ZBAR**2 - ZBAR
    [report] = exp_identity_check(f, 1, [0.3 - 0.2j], 1e-3)
    assert exp_within_tolerance([report], f, 1)


def test_exp_within_tolerance_judges_every_report():
    f = Z**2 * ZBAR - ZBAR * Fraction(1, 2)
    reports = exp_identity_check(f, 1, sample_points(3, 5), 1e-3)
    assert exp_within_tolerance(reports, f, 1)
    assert all(exp_within_tolerance([report], f, 1) for report in reports)
    bad = reports[2]._replace(abs_error=1e9)
    assert not exp_within_tolerance([bad], f, 1)
    assert not exp_within_tolerance(reports[:2] + [bad] + reports[3:], f, 1)


def test_fdcheck_m_builds_each_float_table_once(capsys, monkeypatch):
    # One table for f and one for a_m(f, m) in exp_identity_check, and one
    # for f in exp_within_tolerance: none per point.
    calls = []
    float_rows = numeric._float_rows

    def counting(f):
        calls.append(f)
        return float_rows(f)

    monkeypatch.setattr(numeric, "_float_rows", counting)
    f = "z^3*zbar - 1/2*z*zbar + (1/3 + i)*z + 3*zbar^4"
    assert main(["fdcheck", f, "--m", "1", "--points", "50"]) == 0
    assert capsys.readouterr().out.endswith(" over 50 points at h=0.001: ok\n")
    assert len(calls) == 3


def test_exp_identity_discrepancy_outside_biharmonic_domain():
    # For f of order 3 the identity picks up an extra 16*m*exp(m*f) times
    # the fourth mixed derivative of f; pin that the finite difference
    # converges to exactly that offset so the domain restriction stays
    # documented by a test.
    f = BiPoly.monomial(2, 2)
    m = 1
    point = 0.2 + 0.1j
    [report] = exp_identity_check(f, m, [point], 1e-3)
    fourth_mixed = eval_float(laplacian(f, 2), point) / 16.0
    offset = 16.0 * m * cmath.exp(m * eval_float(f, point)) * fourth_mixed
    assert abs(report.fd_value - (report.symbolic_value + offset)) <= 1e-2 * abs(offset)


def test_exp_identity_validation():
    with pytest.raises(ValueError):
        exp_identity_check(Z, 0, [0j])
    with pytest.raises(ValueError):
        exp_identity_check(Z, 4, [0j])
    with pytest.raises(ValueError):
        exp_identity_check(Z, 1, [0j], -1.0)


def test_sample_points_deterministic_and_in_disk():
    points = sample_points(5, 20)
    assert points == sample_points(5, 20)
    assert all(abs(p) < 1.0 for p in points)


# --- point sequences against the per-point formulas --------------------------
#
# fd_laplacian and exp_identity_check build each float coefficient table
# once per call; every report must still equal, bit for bit, the formula
# evaluated point by point through eval_float.


def _bits(value: complex) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _report_bits(report: FdReport) -> tuple:
    return (
        _bits(report.point),
        report.h.hex(),
        _bits(report.symbolic_value),
        _bits(report.fd_value),
        report.abs_error.hex(),
    )


def _ref_stencil(fn, point, h):
    return (fn(point + h) + fn(point - h) + fn(point + 1j * h) + fn(point - 1j * h) - 4.0 * fn(point)) / (h * h)


def _ref_eval_float(f: BiPoly, point) -> complex:
    # Horner over the terms view: rows of z^i from the top, zbar powers
    # from each row's top, as eval_float has always ordered them.
    z = complex(point)
    zbar = z.conjugate()
    rows = {}
    for (i, j), c in f.terms.items():
        rows.setdefault(i, {})[j] = complex(float(c.re), float(c.im))
    total = 0j
    for i in range(f.deg_z, -1, -1):
        row = rows.get(i, {})
        row_value = 0j
        for j in range(max(row, default=-1), -1, -1):
            row_value = row_value * zbar + row.get(j, 0j)
        total = total * z + row_value
    return total


_disk_points = st.lists(
    st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False), max_size=4
)
_steps = st.sampled_from([1e-4, 1e-3, 1e-2])


@given(bipoly_any, st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))
@example(BiPoly.zero(), -0.5 + 0.25j)
def test_eval_float_matches_term_horner_bit_for_bit(f, point):
    assert _bits(eval_float(f, point)) == _bits(_ref_eval_float(f, point))


@given(bipoly_any, _disk_points, _steps)
@example(BiPoly.zero(), [0.1 - 0.2j], 1e-4)
@example(Z**3 * ZBAR**2 - ZBAR * GaussianRational(0, 1), sample_points(11, 7), 1e-4)
def test_fd_laplacian_reports_match_per_point_formula(f, points, h):
    reports = fd_laplacian(f, points, h)
    assert len(reports) == len(points)
    lap = laplacian(f, 1)
    for report, point in zip(reports, points):
        symbolic = eval_float(lap, point)
        fd = _ref_stencil(lambda w: eval_float(f, w), point, h)
        expected = FdReport(complex(point), h, symbolic, fd, abs(symbolic - fd))
        assert _report_bits(report) == _report_bits(expected)


@given(bipoly_small, st.sampled_from([1, -1, 2, -2, 3, -3]), _disk_points, _steps)
@example(Z**2 * ZBAR - ZBAR**2 * Fraction(1, 2), 2, sample_points(11, 7), 1e-3)
def test_exp_identity_reports_match_per_point_formula(f, m, points, h):
    reports = exp_identity_check(f, m, points, h)
    assert len(reports) == len(points)
    obstruction = a_m(f, m)

    def phi(w):
        return cmath.exp(m * eval_float(f, w))

    for report, point in zip(reports, points):
        fd = _ref_stencil(lambda w: _ref_stencil(phi, w, h), point, h)
        symbolic = 16.0 * m * m * phi(complex(point)) * eval_float(obstruction, point)
        expected = FdReport(complex(point), h, symbolic, fd, abs(symbolic - fd))
        assert _report_bits(report) == _report_bits(expected)
