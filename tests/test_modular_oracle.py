"""The parser, the ring's products and exact evaluation against GF(P^2).

modular_oracle evaluates grammar text and BiPoly numerators at a seeded
point with z and zbar independent, so two mappings that agree there agree
as polynomials with high probability: a nonzero difference of total
degree D vanishes at a random point with probability at most D / P^2.
Unlike the sympy differential tests it stays cheap on operands of
thousands of terms, so small operands get fewer draws here.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import modular_oracle as oracle
from polyharm.bipoly import BiPoly, GaussianRational, compose, eval_exact, mul
from polyharm.parser import parse
from polyharm.theorems import a_m
from polyharm.wirtinger import d_dz, d_dzbar
from strategies import bipoly_any, bipoly_small, grammar_texts, long_grammar_sums, scalars

points = st.integers(0, 2**64).map(oracle.random_point)


def value(f, point):
    return oracle.evaluate_bipoly(f, *point)


def pair_mul(u, v):
    return oracle.mul(u[0], v[0]), oracle.mul(u[1], v[1])


def pair_add(*terms):
    total = oracle.ZERO, oracle.ZERO
    for u in terms:
        total = oracle.add(total[0], u[0]), oracle.add(total[1], u[1])
    return total


def pair_scale(k: int, u):
    r = oracle.rational(k % oracle.P, 1)
    return oracle.mul(r, u[0]), oracle.mul(r, u[1])


def pair_power(u, n: int):
    return oracle.power(u[0], n), oracle.power(u[1], n)


def random_bipoly(seed: int, terms: int, max_exp: int) -> BiPoly:
    """`terms` terms with exponents at most max_exp and nonzero Gaussian-rational coefficients."""
    rng = random.Random(seed)

    def part():
        return Fraction(rng.randint(1, 10**9) * rng.choice((1, -1)), rng.randint(1, 12))

    keys = rng.sample([(i, j) for i in range(max_exp + 1) for j in range(max_exp + 1)], terms)
    return BiPoly({key: GaussianRational(part(), part() if rng.random() < 0.5 else 0) for key in keys})


@settings(max_examples=40)
@given(grammar_texts, points)
def test_parse_agrees_with_the_oracle(text, point):
    assert value(parse(text), point) == oracle.evaluate_text(text, *point)


@settings(max_examples=20)
@given(long_grammar_sums, points)
def test_parse_of_long_sums_agrees_with_the_oracle(text, point):
    assert value(parse(text), point) == oracle.evaluate_text(text, *point)


@settings(max_examples=30)
@given(bipoly_any, bipoly_any, points)
def test_mul_agrees_with_the_oracle(f, g, point):
    assert value(f * g, point) == pair_mul(value(f, point), value(g, point))


@settings(max_examples=4)
@given(st.integers(0, 2**32), points)
def test_mul_of_large_operands_agrees_with_the_oracle(seed, point):
    f = random_bipoly(seed, 2000, 60)
    for g in (random_bipoly(seed + 1, 20, 5), random_bipoly(seed + 2, 1, 5)):
        product = f * g
        assert value(product, point) == pair_mul(value(f, point), value(g, point))


def tall_bipoly(seed: int, terms: int, max_exp: int) -> BiPoly:
    """`terms` terms with exponents at most max_exp, each coefficient part a ratio of two 200- to 400-bit integers."""
    rng = random.Random(seed)

    def tall():
        bits = rng.randint(200, 400)
        return rng.getrandbits(bits - 1) | 1 << (bits - 1)

    def part():
        return Fraction(tall() * rng.choice((1, -1)), tall())

    keys = rng.sample([(i, j) for i in range(max_exp + 1) for j in range(max_exp + 1)], terms)
    return BiPoly({key: GaussianRational(part(), part() if rng.random() < 0.5 else 0) for key in keys})


@settings(max_examples=5)
@given(st.integers(0, 2**32), points)
def test_products_of_tall_coefficients_agree_with_the_oracle(seed, point):
    # mul, ** and a full compose on coefficients whose numerators and
    # denominators run to hundreds of bits, and common denominators to thousands.
    f, g = tall_bipoly(seed, 12, 4), tall_bipoly(seed + 1, 8, 3)
    assert max(part.bit_length() for c in f.numerators.values() for part in c) > 1000
    f_value, g_value = value(f, point), value(g, point)
    assert value(f * g, point) == pair_mul(f_value, g_value)
    assert value(g**3, point) == (oracle.power(g_value[0], 3), oracle.power(g_value[1], 3))
    check_compose(tall_bipoly(seed + 2, 5, 2), tall_bipoly(seed + 3, 4, 2), point)


@settings(max_examples=30)
@given(bipoly_small, st.integers(0, 6), points)
def test_pow_agrees_with_the_oracle(f, n, point):
    f_value = value(f, point)
    expected = oracle.power(f_value[0], n), oracle.power(f_value[1], n)
    assert value(f**n, point) == expected


@settings(max_examples=2)
@given(st.integers(0, 2**32), points)
def test_left_to_right_powers_agree_with_the_oracle(seed, point):
    # n = 7-16 on a dense base (every key of the 2 x 2 box) takes every bit
    # pattern from 0b111 to 0b10000: squares of up to 81 terms and products
    # by the base.  A tall base, whose 16th power has a denominator of
    # thousands of bits, takes 0b1101 and 0b10000.
    for base, exponents in ((random_bipoly(seed, 4, 1), range(7, 17)), (tall_bipoly(seed + 1, 3, 1), (13, 16))):
        base_value = value(base, point)
        for n in exponents:
            assert value(base**n, point) == pair_power(base_value, n)


@settings(max_examples=3)
@given(st.integers(0, 2**32), points)
def test_squares_agree_with_the_oracle(seed, point):
    for f in (random_bipoly(seed, 300, 30), tall_bipoly(seed + 1, 12, 4)):
        f_value = value(f, point)
        assert value(mul(f, f), point) == pair_mul(f_value, f_value)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_powers_of_zero_agree_with_the_oracle(n):
    power = BiPoly.zero() ** n
    assert power == (BiPoly.one() if n == 0 else BiPoly.zero())
    expected = oracle.ONE if n == 0 else oracle.ZERO
    assert value(power, oracle.random_point(n)) == (expected, expected)


def check_a_m(f, m, point):
    # A + m*B + m^2*C from the derivatives' values, multiplied in GF(P^2).
    fz, fzb = d_dz(f), d_dzbar(f)
    fzz, fzbzb, fzzb = d_dz(fz), d_dzbar(fzb), d_dzbar(fz)
    fzzbzb, fzzzb = d_dzbar(fzzb), d_dz(fzzb)
    fz, fzb, fzz, fzbzb, fzzb, fzzbzb, fzzzb = (value(g, point) for g in (fz, fzb, fzz, fzbzb, fzzb, fzzbzb, fzzzb))
    quad = pair_mul(fz, fzb)
    a = pair_add(
        pair_scale(2, pair_add(pair_mul(fzzb, fzzb), pair_mul(fz, fzzbzb), pair_mul(fzb, fzzzb))),
        pair_mul(fzz, fzbzb),
    )
    b = pair_add(
        pair_mul(pair_mul(fz, fz), fzbzb), pair_mul(pair_mul(fzb, fzb), fzz), pair_scale(4, pair_mul(quad, fzzb))
    )
    c = pair_mul(quad, quad)
    assert value(a_m(f, m), point) == pair_add(a, pair_scale(m, b), pair_scale(m * m, c))


@settings(max_examples=30)
@given(bipoly_any, st.sampled_from([1, -1, 2, -2, 3, -3, 7]), points)
def test_a_m_agrees_with_the_oracle(f, m, point):
    check_a_m(f, m, point)


@settings(max_examples=3)
@given(st.integers(0, 2**32), points)
def test_a_m_of_large_and_tall_operands_agrees_with_the_oracle(seed, point):
    check_a_m(random_bipoly(seed, 60, 9), 3, point)
    check_a_m(tall_bipoly(seed + 1, 8, 3), -2, point)


@settings(max_examples=3)
@given(st.integers(0, 2**32), points)
def test_pow_of_large_operands_agrees_with_the_oracle(seed, point):
    f = random_bipoly(seed, 40, 12)
    cube = f**3
    f_value = value(f, point)
    assert value(cube, point) == (oracle.power(f_value[0], 3), oracle.power(f_value[1], 3))
    assert len(cube.numerators) > 500


def check_compose(f, inner, point):
    # R(a, b) = f(F(a, b), conj(F)(a, b)), and the same for conj(R).
    assert value(compose(f, inner), point) == value(f, value(inner, point))


@settings(max_examples=30)
@given(bipoly_small, bipoly_small, points)
def test_compose_agrees_with_the_oracle(f, inner, point):
    check_compose(f, inner, point)


@settings(max_examples=3)
@given(st.integers(0, 2**32), points)
def test_compose_of_large_operands_agrees_with_the_oracle(seed, point):
    # A large inner mapping under a small outer one, then a large outer
    # mapping after a one-term inner one and after a unit monomial.
    inner = random_bipoly(seed, 300, 20)
    check_compose(random_bipoly(seed + 1, 4, 1), inner, point)
    outer = random_bipoly(seed + 2, 2000, 60)
    for inner in (BiPoly({(1, 2): GaussianRational(Fraction(2, 3), 5)}), BiPoly.monomial(2, 0)):
        check_compose(outer, inner, point)


def check_floor(f, inner, floor, point):
    # The high part plus the full composition's terms below floor is f after
    # inner, and the high part has no term below floor.
    high = compose(f, inner, floor)
    assert all(min(key) >= floor for key in high.numerators)
    low = BiPoly({key: c for key, c in compose(f, inner).terms.items() if min(key) < floor})
    total = tuple(oracle.add(u, v) for u, v in zip(value(high, point), value(low, point)))
    assert total == value(f, value(inner, point))


@settings(max_examples=30)
@given(bipoly_any, bipoly_small, st.integers(1, 6), points)
def test_compose_at_a_floor_agrees_with_the_oracle(f, inner, floor, point):
    check_floor(f, inner, floor, point)


@settings(max_examples=3)
@given(st.integers(0, 2**32), points)
def test_compose_at_a_floor_of_larger_operands_agrees_with_the_oracle(seed, point):
    outer, inner = random_bipoly(seed, 12, 4), random_bipoly(seed + 1, 5, 2)
    for floor in (2, 5, 8):
        check_floor(outer, inner, floor, point)
    check_floor(tall_bipoly(seed + 2, 5, 2), tall_bipoly(seed + 3, 4, 2), 3, point)


def gaussian(c: GaussianRational):
    re, im = oracle.rational(c.re.numerator, c.re.denominator), oracle.rational(c.im.numerator, c.im.denominator)
    return re[0], im[0]


@settings(max_examples=30)
@given(bipoly_any, scalars)
def test_eval_exact_agrees_with_the_oracle(f, c):
    point = gaussian(c)
    conj_point = point[0], -point[1] % oracle.P
    assert gaussian(eval_exact(f, c)) == value(f, (point, conj_point))[0]
