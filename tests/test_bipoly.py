from fractions import Fraction
from math import gcd, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from polyharm import bipoly
from polyharm.bipoly import (
    BiPoly,
    GR_I,
    GaussianRational,
    _collect,
    _mul_into,
    _power,
    _reduced,
    _square_into,
    canonical_print,
    compose,
    eval_exact,
    format_scalar,
    mul,
    unit_circle_point,
)
from polyharm.parser import parse
from polyharm.wirtinger import almansi_decompose, d_dz, laplacian
from strategies import bipoly_any, bipoly_small, gr_mul, gr_sum, nonzero_scalars, scalars

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


# --- GaussianRational --------------------------------------------------------


def test_scalar_normalized_to_lowest_terms():
    c = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert c.re == Fraction(1, 2) and c.re.denominator == 2
    assert c.im == Fraction(1, 2)
    assert c == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert c.conjugate() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert c.conjugate().conjugate() == c


def test_scalar_is_an_immutable_value():
    c = GaussianRational(1)
    with pytest.raises(AttributeError):
        c.re = Fraction(2)
    with pytest.raises(AttributeError):
        del c.im
    assert c.re == 1 and c.im == 0
    same = GaussianRational(Fraction(2, 2), Fraction(0, 5))
    assert same == c and hash(same) == hash(c)
    assert len({c, same, GaussianRational(1, 1)}) == 2
    assert c != (Fraction(1), Fraction(0))
    assert GaussianRational(Fraction(1, 2), -1) != GaussianRational(Fraction(1, 2), 1)


def test_unit_circle_points_have_modulus_one():
    seen = set()
    for t in range(8):
        c = unit_circle_point(t)
        assert c.re**2 + c.im**2 == 1
        seen.add(c)
    assert len(seen) == 8
    assert unit_circle_point(Fraction(1, 2)) == GaussianRational(Fraction(3, 5), Fraction(4, 5))


# --- construction and invariants ---------------------------------------------


def test_zero_coefficients_never_stored():
    f = BiPoly({(1, 0): 1, (0, 1): 0})
    assert set(f.terms) == {(1, 0)}
    assert (f - f).is_zero
    assert not (f - f).terms


def test_duplicate_keys_accumulate():
    f = BiPoly([((1, 0), 1), ((1, 0), 2), ((0, 0), 5)])
    assert f == Z * 3 + 5


@pytest.mark.parametrize(
    "items, expected",
    [
        # int + Fraction at one key; GaussianRational + Fraction over another denominator.
        (
            [((1, 0), 1), ((0, 2), GaussianRational(Fraction(1, 2), Fraction(1, 4))),
             ((1, 0), Fraction(1, 3)), ((0, 2), Fraction(1, 6))],
            {(1, 0): GaussianRational(Fraction(4, 3)), (0, 2): GaussianRational(Fraction(2, 3), Fraction(1, 4))},
        ),
        # A pair that cancels to zero; the survivor's denominator 1 must not keep the 7.
        (
            [((2, 1), Fraction(2, 7)), ((0, 0), 5), ((2, 1), GaussianRational(Fraction(-2, 7)))],
            {(0, 0): GaussianRational(5)},
        ),
        # Three values at one key over denominators 4, 6 and 4: the imaginary parts cancel.
        (
            [((1, 1), GaussianRational(Fraction(1, 4), Fraction(1, 6))),
             ((1, 1), GaussianRational(0, Fraction(-1, 6))), ((1, 1), Fraction(3, 4))],
            {(1, 1): GaussianRational(1)},
        ),
        # Everything cancels: the zero mapping, the empty map over 1.
        ([((0, 1), Fraction(5, 9)), ((0, 1), GaussianRational(Fraction(-5, 9)))], {}),
    ],
)
def test_duplicate_keys_sum_to_normal_form(items, expected):
    for f in (BiPoly(items), BiPoly(list(reversed(items)))):
        assert dict(f.terms) == expected
        _assert_strict_normal_form(f)


@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.one_of(st.integers(-9, 9), scalars))))
def test_duplicate_keys_match_sum_of_monomials(items):
    f = BiPoly(items)
    total = BiPoly.zero()
    for key, c in items:
        total = total + BiPoly({key: c})
    assert f == total
    _assert_strict_normal_form(f)


def test_degrees_of_zero_are_zero():
    zero = BiPoly.zero()
    assert zero.deg_z == 0 and zero.deg_zbar == 0
    assert zero.is_zero


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_a_bad_key_is_reported_before_a_bad_coefficient():
    # The key is checked first, so a term wrong in both ways is a ValueError.
    with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
        BiPoly({(-1, 0): object()})
    with pytest.raises(TypeError, match="coefficient must be rational-like"):
        BiPoly({(1, 0): object()})


# --- mul ----------------------------------------------------------------------


def test_mul_cross_terms_cancel():
    assert (Z + ZBAR) * (Z - ZBAR) == Z**2 - ZBAR**2


def test_mul_exponent_addition():
    zzbar = Z * ZBAR
    assert zzbar * zzbar == BiPoly.monomial(2, 2)


def test_mul_four_term_distribution():
    # (1 + i z)(1 - i zbar) = 1 - i zbar + i z + z zbar, expanded by hand
    left = BiPoly.one() + Z * GR_I
    right = BiPoly.one() - ZBAR * GR_I
    expected = BiPoly({(0, 0): 1, (0, 1): GaussianRational(0, -1), (1, 0): GR_I, (1, 1): 1})
    assert left * right == expected


def test_mul_degree_additivity():
    a = Z**2 + ZBAR
    b = Z * ZBAR**3
    assert (a * b).deg_z == a.deg_z + b.deg_z


@given(bipoly_any, bipoly_any, bipoly_any)
def test_ring_laws(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


# --- conjugate ----------------------------------------------------------------


def test_conjugate_examples():
    assert (Z * 2 + ZBAR**2 * GR_I).conjugate() == ZBAR * 2 - Z**2 * GR_I
    assert (Z * ZBAR).conjugate() == Z * ZBAR
    assert (Z**3 * Fraction(3, 4)).conjugate() == ZBAR**3 * Fraction(3, 4)


@given(bipoly_any, bipoly_any)
def test_conjugate_is_ring_antiautomorphism(a, b):
    assert mul(a, b).conjugate() == mul(a.conjugate(), b.conjugate())
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


# --- compose ------------------------------------------------------------------


def test_compose_binomial_expansion():
    assert compose(Z**2, Z + ZBAR) == Z**2 + Z * ZBAR * 2 + ZBAR**2


def test_compose_conjugates_the_substitution():
    assert compose(ZBAR, Z**2) == ZBAR**2


def test_compose_unit_modulus_inner():
    c = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    inner = Z * ZBAR * c
    assert compose(Z * ZBAR, inner) == BiPoly.monomial(2, 2)


def test_compose_degree_bound():
    f = Z**2 * ZBAR + Z
    inner = Z + ZBAR**2
    result = compose(f, inner)
    assert result.deg_z <= 3 * (inner.deg_z + inner.deg_zbar)


@given(bipoly_small, bipoly_small, bipoly_small)
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(bipoly_any)
def test_compose_identity(f):
    assert compose(f, Z) == f
    assert compose(Z, f) == f


# --- eval_exact ---------------------------------------------------------------


def test_eval_modulus_squared():
    assert eval_exact(Z * ZBAR, GaussianRational(3, 4)) == GaussianRational(25)


def test_eval_at_i():
    assert eval_exact(Z**2 + ZBAR**2, GR_I) == GaussianRational(-2)


def test_eval_hand_checked_value():
    # (1+i)^2 (1-i)^3 + (1+i) = (2i)(-2-2i) + (1+i) = 5 - 3i, by scalar
    # arithmetic done term by term before the build.
    p = GaussianRational(1, 1)
    f = Z**2 * ZBAR**3 + Z
    q = p.conjugate()
    step = gr_sum(gr_mul(p, p, q, q, q), p)
    assert step == GaussianRational(5, -3)
    assert eval_exact(f, p) == GaussianRational(5, -3)


@given(bipoly_any, bipoly_any, scalars)
def test_eval_is_ring_homomorphism(a, b, p):
    assert eval_exact(mul(a, b), p) == gr_mul(eval_exact(a, p), eval_exact(b, p))
    assert eval_exact(a + b, p) == gr_sum(eval_exact(a, p), eval_exact(b, p))


# --- canonical_print ----------------------------------------------------------


def test_print_zero():
    assert canonical_print(BiPoly.zero()) == "0"


def test_print_sort_order():
    assert canonical_print(BiPoly({(1, 1): 1, (0, 0): 4})) == "4 + z*zbar"


def test_print_fraction_coefficient():
    assert canonical_print(BiPoly({(2, 0): Fraction(1, 2)})) == "1/2*z^2"


def test_print_folds_minus_into_separator():
    assert canonical_print(Z - ZBAR**2) == "z - zbar^2"
    assert canonical_print(-Z) == "-z"
    assert canonical_print(Z * ZBAR - 1) == "-1 + z*zbar"


def test_print_mixed_coefficient_parenthesized():
    f = BiPoly({(1, 0): GaussianRational(Fraction(1, 2), Fraction(3, 4))})
    assert canonical_print(f) == "(1/2 + 3/4*i)*z"


def test_format_scalar():
    assert format_scalar(GaussianRational(0)) == "0"
    assert format_scalar(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(GR_I) == "i"
    assert format_scalar(GaussianRational(0, -1)) == "-i"
    assert format_scalar(GaussianRational(0, Fraction(3, 4))) == "3/4*i"
    assert format_scalar(GaussianRational(1, -1)) == "1 - i"


# --- differential checks against the Fraction algorithms ----------------------
#
# canonical_print, format_scalar and eval_exact read the integer numerators
# directly; these references compute the same things from the
# GaussianRational ``terms`` view, the way the printer and evaluator did
# before they moved onto the integers.


def _ref_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ref_scalar(c: GaussianRational) -> str:
    if c.is_zero:
        return "0"
    if not c.im:
        return _ref_fraction(c.re)
    imag = "i" if abs(c.im) == 1 else f"{_ref_fraction(abs(c.im))}*i"
    if not c.re:
        return imag if c.im > 0 else f"-{imag}"
    return _ref_fraction(c.re) + (" + " if c.im > 0 else " - ") + imag


def _ref_monomial(i: int, j: int) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("z", i), ("zbar", j)) if e)


def _ref_term(i: int, j: int, c: GaussianRational) -> tuple[bool, str]:
    mono = _ref_monomial(i, j)
    if not mono:
        if c.is_real or not c.re:
            negative = (c.re or c.im) < 0
            return negative, _ref_scalar(GaussianRational(-c.re, -c.im) if negative else c)
        return False, _ref_scalar(c)
    if c.is_real:
        mag = abs(c.re)
        return c.re < 0, ("" if mag == 1 else f"{_ref_fraction(mag)}*") + mono
    if not c.re:
        mag = abs(c.im)
        return c.im < 0, ("i*" if mag == 1 else f"{_ref_fraction(mag)}*i*") + mono
    return False, f"({_ref_scalar(c)})*{mono}"


def _ref_print(f: BiPoly) -> str:
    if f.is_zero:
        return "0"
    pieces = []
    for i, j in sorted(f.terms, key=lambda key: (key[0] + key[1], key[0])):
        negative, text = _ref_term(i, j, f.terms[(i, j)])
        if pieces:
            pieces.append((" - " if negative else " + ") + text)
        else:
            pieces.append(("-" if negative else "") + text)
    return "".join(pieces)


def _ref_eval(f: BiPoly, p: GaussianRational) -> GaussianRational:
    q = p.conjugate()
    return gr_sum(*(gr_mul(c, *[p] * i, *[q] * j) for (i, j), c in f.terms.items()))


# Scalars the printer treats specially, next to arbitrary small ones.
_special_scalars = st.sampled_from(
    [
        GR_I,
        GaussianRational(0, -1),
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, Fraction(-3, 2)),
        GaussianRational(Fraction(1, 2), -1),
        GaussianRational(-2, 1),
        GaussianRational(Fraction(-5, 6), Fraction(-7, 4)),
        GaussianRational(Fraction(12, 5)),
    ]
)
_print_scalars = st.one_of(scalars, _special_scalars)
# Small exponents make ties in i + j; large ones print two-digit z^12 text.
_print_exponents = st.one_of(st.integers(0, 3), st.integers(0, 40))
_print_polys = st.builds(
    BiPoly,
    st.dictionaries(st.tuples(_print_exponents, _print_exponents), _print_scalars, max_size=6),
)
# Points p/d with a Gaussian integer p and d > 1.
_fractional_points = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
).filter(lambda p: lcm(p.re.denominator, p.im.denominator) > 1)


@given(_print_polys)
@example(BiPoly.zero())
@example(BiPoly.constant(GaussianRational(Fraction(1, 2), Fraction(-3, 4))))
@example(BiPoly.constant(GaussianRational(-1, 1)))
@example(BiPoly({(0, 0): GR_I, (1, 0): GaussianRational(0, -1), (0, 1): GaussianRational(0, -2)}))
def test_canonical_print_matches_fraction_reference(f):
    assert canonical_print(f) == _ref_print(f)


@given(_print_scalars)
@example(GaussianRational(0))
def test_format_scalar_matches_fraction_reference(c):
    assert format_scalar(c) == _ref_scalar(c)


@given(_print_polys, _fractional_points)
def test_eval_exact_matches_term_sum_at_fractional_points(f, p):
    assert eval_exact(f, p) == _ref_eval(f, p)


@given(bipoly_any, st.one_of(scalars, _special_scalars))
@example(BiPoly.zero(), GaussianRational(Fraction(1, 3), Fraction(1, 2)))
@example(Z**3 * ZBAR**2 - ZBAR * Fraction(1, 2) + GR_I, GaussianRational(0))
def test_eval_exact_matches_term_sum(f, p):
    assert eval_exact(f, p) == _ref_eval(f, p)


# --- hashing / equality --------------------------------------------------------


def assert_normal_form(r: BiPoly) -> None:
    rebuilt = BiPoly(dict(r.terms))
    assert rebuilt == r and hash(rebuilt) == hash(r)


@given(bipoly_any, bipoly_any, scalars)
def test_hash_consistent_with_equality(f, g, c):
    results = [f, f - g, f * c, f * 2, mul(f, g), d_dz(f), laplacian(f), *almansi_decompose(f)]
    for r in results:
        assert_normal_form(r)


def test_common_factor_removed():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        (laplacian(Z * ZBAR * Fraction(1, 4)), BiPoly.one(), 1),
        ((Z * half + third) - Z * half, BiPoly.constant(third), 3),
        ((Z * 2) * half, Z, 1),
    ]
    for result, expected, denominator in cases:
        assert result == expected and hash(result) == hash(expected)
        assert result.denominator == denominator
        assert_normal_form(result)


# --- one-term products ---------------------------------------------------------


def _reference_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    """The general double loop over the numerators, with no one-term shortcut."""
    out: dict = {}
    for (i1, j1), (r1, m1) in a.numerators.items():
        for (i2, j2), (r2, m2) in b.numerators.items():
            re, im = out.get((i1 + i2, j1 + j2), (0, 0))
            out[(i1 + i2, j1 + j2)] = (re + r1 * r2 - m1 * m2, im + r1 * m2 + m1 * r2)
    den = a.denominator * b.denominator
    return BiPoly({key: GaussianRational(Fraction(re, den), Fraction(im, den)) for key, (re, im) in out.items()})


def _assert_strict_normal_form(r: BiPoly) -> None:
    parts = [part for c in r.numerators.values() for part in c]
    assert r.denominator > 0
    assert all(re or im for re, im in r.numerators.values())
    assert gcd(r.denominator, *parts) == 1
    assert_normal_form(r)


_one_term_coeffs = st.one_of(
    st.sampled_from(
        [1, -1, GR_I, GaussianRational(0, -1), Fraction(-3, 4), Fraction(5, 2), GaussianRational(Fraction(2, 3), Fraction(-5, 6))]
    ),
    scalars.filter(bool),
)
_one_terms = st.one_of(
    st.builds(BiPoly.monomial, st.integers(0, 4), st.integers(0, 4)),
    st.builds(BiPoly.monomial, st.integers(0, 4), st.integers(0, 4), _one_term_coeffs),
)
_other_factors = st.one_of(bipoly_any, st.sampled_from([BiPoly.zero(), BiPoly.one(), Z, ZBAR]))


@given(_one_terms, _other_factors)
@example(BiPoly.monomial(1, 0, 2), BiPoly.constant(Fraction(1, 2)))
@example(BiPoly.monomial(2, 1, Fraction(-3, 4)), Z * Fraction(2, 3) + ZBAR * GaussianRational(0, Fraction(4, 9)))
@example(BiPoly.monomial(0, 3, GR_I), Z * GaussianRational(2, 3) - 5)
@example(BiPoly.one(), BiPoly.zero())
@example(BiPoly.monomial(1, 1), BiPoly.one())
def test_one_term_mul_matches_general_loop(t, f):
    assert len(t.numerators) == 1
    for product in (mul(t, f), mul(f, t), t * f, f * t):
        assert product == _reference_mul(t, f)
        _assert_strict_normal_form(product)


# --- sums with disjoint keys --------------------------------------------------


def _reference_add(a: BiPoly, b: BiPoly) -> BiPoly:
    """The general sum: numerators over the lcm added key by key, normalised by BiPoly(...)."""
    den = lcm(a.denominator, b.denominator)
    out: dict = {}
    for f in (a, b):
        scale = den // f.denominator
        for key, (re, im) in f.numerators.items():
            acc_re, acc_im = out.get(key, (0, 0))
            out[key] = (acc_re + re * scale, acc_im + im * scale)
    return BiPoly({key: GaussianRational(Fraction(re, den), Fraction(im, den)) for key, (re, im) in out.items()})


def _without_keys_of(f: BiPoly, g: BiPoly) -> BiPoly:
    return BiPoly({key: c for key, c in g.terms.items() if key not in f.numerators})


@given(bipoly_any, bipoly_any)
@example(BiPoly.zero(), BiPoly.zero())
@example(BiPoly.zero(), Z * Fraction(2, 3))
@example(Z * 2 + 1, ZBAR * 3 - Z**2 * ZBAR)  # both denominators 1
@example(Z * Fraction(1, 3), ZBAR * Fraction(2, 5))  # coprime denominators
@example(Z * Fraction(1, 4) + ZBAR**2 * Fraction(1, 2), ZBAR * Fraction(5, 6))  # lcm 12 from 4 and 6
@example(Z * Fraction(1, 2), ZBAR * Fraction(1, 2))  # equal denominators
@example(Z * GaussianRational(Fraction(2, 3), Fraction(4, 9)), ZBAR * GaussianRational(0, Fraction(1, 6)))
def test_disjoint_key_add_matches_general_sum(f, g):
    g = _without_keys_of(f, g)
    assert f.numerators.keys().isdisjoint(g.numerators)
    for total in (f + g, g + f):
        assert total == _reference_add(f, g)
        _assert_strict_normal_form(total)
        assert gcd(total.denominator, *(part for c in total.numerators.values() for part in c)) == 1
        assert dict(total.terms) == {**f.terms, **g.terms}


def test_unit_monomial_mul_is_a_key_shift():
    f = Z * Fraction(1, 3) - ZBAR**2 * GaussianRational(Fraction(1, 2), 2)
    shifted = mul(BiPoly.monomial(2, 1), f)
    assert shifted.denominator == f.denominator
    assert dict(shifted.numerators) == {(i + 2, j + 1): c for (i, j), c in f.numerators.items()}
    assert mul(BiPoly.one(), f) == f and mul(f, BiPoly.one()) == f


def test_monomial_default_coefficient():
    assert BiPoly.monomial(2, 3) == BiPoly({(2, 3): 1})
    assert BiPoly.monomial(0, 0) == BiPoly.one()
    assert BiPoly.monomial(1, 0, Fraction(1)) == Z
    assert BiPoly.monomial(1, 1, GaussianRational(1)) == Z * ZBAR
    for bad in ((-1, 0), (0, -2), (1.0, 0), (0, "1")):
        with pytest.raises(ValueError):
            BiPoly.monomial(*bad)
    with pytest.raises(TypeError):
        BiPoly.monomial(1, 0, 1.0)


# --- the one-pass normal form of sums ----------------------------------------------


def _reference_collect(out: dict, den: int) -> BiPoly:
    """The two-step normal form: drop the sums that cancelled, then _reduced."""
    return _reduced({key: (re, im) for key, (re, im) in out.items() if re or im}, den)


def _assert_collect_matches_reference(out: dict, den: int) -> BiPoly:
    got, expected = _collect(out, den), _reference_collect(out, den)
    assert got.denominator == expected.denominator
    assert dict(got.numerators) == dict(expected.numerators)
    assert all(type(c) is tuple for c in got.numerators.values())
    _assert_strict_normal_form(got)
    return got


_sum_parts = st.integers(-12, 12)
_sums = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.tuples(_sum_parts, _sum_parts), st.lists(_sum_parts, min_size=2, max_size=2)),
    max_size=6,
)


@given(_sums, st.integers(1, 36))
@example({(0, 0): [0, 0], (1, 2): (0, 0)}, 12)  # every sum cancelled
@example({(1, 0): (6, -4), (0, 1): [2, 0]}, 1)  # den == 1
@example({(1, 0): (6, -4), (0, 1): [2, 0], (2, 2): (0, 0)}, 4)  # a common factor 2
@example({(1, 0): (6, 9), (0, 1): [1, 0], (2, 0): (3, 3)}, 3)  # the gcd reaches 1 before the last sum
def test_collect_matches_the_two_step_reference(out, den):
    _assert_collect_matches_reference(out, den)


@given(bipoly_any, bipoly_any, st.integers(-3, 3), st.integers(-3, 3), st.booleans())
@example(Z + 1, Z - 1, 1, 0, True)  # the sums cancel completely: the zero mapping over 1
@example(Z * 2 + 4, ZBAR * 3 - 6, 1, 0, False)  # den == 1: every part is a multiple of 6, and no gcd is taken
def test_collect_of_mul_into_sums_matches_the_reference(a, b, cr, ci, cancel):
    # _mul_into leaves list-valued [re, im] sums; with cancel it adds -(cr + ci*i)*a*b too.
    out: dict = {}
    _mul_into(out, a.numerators.items(), list(b.numerators.items()), cr, ci)
    if cancel:
        _mul_into(out, a.numerators.items(), list(b.numerators.items()), -cr, -ci)
    got = _assert_collect_matches_reference(out, a.denominator * b.denominator)
    if cancel or not (cr or ci):
        assert got.is_zero and got.denominator == 1


# --- identities and one-term powers ------------------------------------------------


@given(_other_factors)
@example(BiPoly.zero())
@example(Z * GaussianRational(Fraction(2, 3), Fraction(-1, 6)) + ZBAR**2 * Fraction(5, 4))
def test_sums_with_zero_and_products_with_one_return_the_other_operand(f):
    zero, one = BiPoly.zero(), BiPoly.one()
    # A one-term f may itself be the identity, or take the one-term product
    # path with the other operand as the shifted one; then only equality holds.
    free = len(f.numerators) > 1
    for total in (zero + f, f + zero, 0 + f, f + 0):
        assert total is f or not free
        assert total == _reference_add(zero, f)
        _assert_strict_normal_form(total)
    for product in (1 * f, f * 1, mul(one, f), mul(f, one)):
        assert product is f or not free
        assert product == _reference_mul(one, f)
        _assert_strict_normal_form(product)


_HALF_ONE_PLUS_I = GaussianRational(Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("key", [(0, 0), (1, 0), (0, 1), (2, 3)])
@pytest.mark.parametrize(
    "coeff",
    [1, -1, GR_I, _HALF_ONE_PLUS_I, Fraction(-3, 4), GaussianRational(Fraction(2, 3), Fraction(-5, 6))],
)
def test_one_term_power_matches_binary_powering(coeff, key, n):
    t = BiPoly.monomial(*key, coeff)
    power = t**n
    assert power == _power(t, n)
    expected = BiPoly.one()
    for _ in range(n):
        expected = _reference_mul(expected, t)
    assert power == expected
    _assert_strict_normal_form(power)
    # (1 + i)^n / 2^n: the Gaussian-integer power shares a factor of 2 with
    # 2^n for n >= 2, which the gcd pass must remove.
    if coeff is _HALF_ONE_PLUS_I and n >= 2:
        assert power.denominator < 2**n


def test_one_term_power_examples():
    assert BiPoly.monomial(1, 1) ** 0 == BiPoly.one()
    assert BiPoly.monomial(1, 1) ** 3 == BiPoly.monomial(3, 3)
    assert (ZBAR * _HALF_ONE_PLUS_I) ** 2 == ZBAR**2 * GaussianRational(0, Fraction(1, 2))
    assert (ZBAR * _HALF_ONE_PLUS_I) ** 4 == ZBAR**4 * Fraction(-1, 4)
    assert (Z * GR_I) ** 6 == Z**6 * -1
    for bad in (-1, 1.0, Fraction(2)):
        with pytest.raises(ValueError):
            Z**bad


# --- squares and left-to-right powers ---------------------------------------


@given(bipoly_any, st.integers(-3, 3), st.integers(-3, 3))
@example(BiPoly.zero(), 1, 0)
@example(Z * 2 - ZBAR * GR_I + 1, 2, -1)
def test_square_into_matches_mul_into_of_a_list_with_itself(f, cr, ci):
    items = list(f.numerators.items())
    square: dict = {}
    _square_into(square, items, cr, ci)
    product: dict = {}
    _mul_into(product, items, list(items), cr, ci)
    den = f.denominator**2
    assert _collect(square, den) == _collect(product, den)


@given(bipoly_any)
def test_square_is_the_general_product(f):
    square = mul(f, f)
    assert square == _reference_mul(f, f)
    assert square == f * f == f**2
    _assert_strict_normal_form(square)


# Two or three terms, so that ** takes the binary powering.
_multi_term_bases = st.builds(
    BiPoly,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), nonzero_scalars, min_size=2, max_size=3),
)


@given(_multi_term_bases, st.integers(0, 9))
@example(Z + ZBAR + 1, 13)
@example(Z * 3 - ZBAR * GaussianRational(1, -2) + 3, 16)
def test_power_matches_repeated_products(f, n):
    power = f**n
    expected = BiPoly.one()
    for _ in range(n):
        expected = _reference_mul(expected, f)
    assert power == expected
    _assert_strict_normal_form(power)


def test_trinomial_power_makes_the_left_to_right_products(monkeypatch):
    # (1+z+zbar)^13 from the left: squares of 3, 10 and 28 terms (6 + 55 +
    # 406 term products) and two products by the base (6*3 + 91*3), 758 in
    # all.  Right-to-left powering made 1,260.
    counted = []

    def counting_mul_into(out, a_items, b_items, cr=1, ci=0):
        counted.append(len(a_items) * len(b_items))
        return _mul_into(out, a_items, b_items, cr, ci)

    monkeypatch.setattr(bipoly, "_mul_into", counting_mul_into)
    power = parse("(1+z+zbar)^13")
    monkeypatch.undo()
    assert 0 < sum(counted) <= 758
    expected = BiPoly.one()
    for _ in range(13):
        expected = _reference_mul(expected, Z + ZBAR + 1)
    assert power == expected
