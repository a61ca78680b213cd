"""Differential tests of the exact ring operations against sympy.

sympy is an independent implementation of the same algebra: z and zbar are
two commuting symbols, coefficients are sympy Gaussian rationals, and
conjugation is sympy's own conjugate with conj(z) = zbar.  Every polyharm
result is converted to sympy only through the ``terms`` view, so no
polyharm arithmetic takes part in the expected values.
"""

from fractions import Fraction

import pytest

from polyharm.bipoly import BiPoly, GaussianRational, compose, eval_exact, mul
from polyharm.gen import gen_analytic, gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.theorems import find_witness_post, find_witness_pre
from polyharm.wirtinger import laplacian, newton_certificate, polyharmonic_order

sympy = pytest.importorskip("sympy")

Z, ZBAR = sympy.symbols("z zbar")

SEEDS = [spawn(2016, k) for k in range(10)]


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _scalar(c: GaussianRational):
    return _rational(c.re) + sympy.I * _rational(c.im)


def to_sympy(f: BiPoly):
    return sympy.Add(*(_scalar(c) * Z**i * ZBAR**j for (i, j), c in f.terms.items()))


def sympy_conjugate(expr):
    return sympy.conjugate(expr).subs(
        {sympy.conjugate(Z): ZBAR, sympy.conjugate(ZBAR): Z}, simultaneous=True
    )


def sympy_laplacian(expr):
    return sympy.expand(4 * sympy.diff(expr, Z, ZBAR))


def sympy_order(expr, cap: int = 32) -> int:
    """Least p with the p-th iterated 4*d/dz d/dzbar equal to 0."""
    count = 0
    current = sympy.expand(expr)
    while current != 0:
        current = sympy_laplacian(current)
        count += 1
        assert count <= cap, "runaway Laplacian iteration"
    return count


def sympy_compose(outer, inner):
    """outer(inner, conj(inner)) for sympy expressions in z and zbar."""
    return outer.subs({Z: inner, ZBAR: sympy_conjugate(inner)}, simultaneous=True)


def assert_same(f: BiPoly, expected) -> None:
    assert sympy.expand(to_sympy(f) - expected) == 0


def instances(seed: int) -> list[BiPoly]:
    """One seeded instance of each generator family."""
    return [
        gen_bipoly(seed, 2),
        gen_harmonic(seed, 2, both_parts_nonconstant=True),
        gen_strict_q_harmonic(seed, 1 + seed % 3, 1),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_and_conjugate(seed):
    a, b, c = instances(seed)
    for left, right in ((a, b), (b, c), (c, a), (c, c)):
        assert_same(mul(left, right), to_sympy(left) * to_sympy(right))
    for f in (a, b, c):
        assert_same(f.conjugate(), sympy_conjugate(to_sympy(f)))


@pytest.mark.parametrize("seed", SEEDS)
def test_compose(seed):
    a, b, c = instances(seed)
    outer = gen_bipoly(seed ^ 1, 2)
    for inner in (a, b, c):
        assert_same(compose(outer, inner), sympy_compose(to_sympy(outer), to_sympy(inner)))


@pytest.mark.parametrize("seed", SEEDS)
def test_laplacian_and_order(seed):
    for f in instances(seed) + [gen_strict_q_harmonic(seed, 4, 2)]:
        expr = to_sympy(f)
        assert_same(laplacian(f, 1), sympy_laplacian(expr))
        assert_same(laplacian(f, 2), sympy_laplacian(sympy_laplacian(expr)))
        assert polyharmonic_order(f) == sympy_order(expr)


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_exact(seed):
    point = GaussianRational(Fraction(seed % 7 - 3, 5), Fraction(seed % 5 - 2, 3))
    p = _scalar(point)
    for f in instances(seed):
        expected = to_sympy(f).subs({Z: p, ZBAR: sympy.conjugate(p)}, simultaneous=True)
        assert sympy.expand(_scalar(eval_exact(f, point)) - expected) == 0


# z^2 + z*zbar + zbar^2: no Newton face certifies a power below 2l, so a
# q <= 1 pre search starts at w^(2l).
_NO_CERTIFICATE = BiPoly({(2, 0): 1, (1, 1): 1, (0, 2): 1})

# One f per witness family: (post, q, l, f from a seed, family_tag).  The
# pre families at q = 0, 1 and >= 2 appear with a Newton-certified start
# and with the 2l fallback.
WITNESS_CASES = {
    "post-q0": (True, 0, 2, lambda s: gen_strict_q_harmonic(s, 2, 1), "z^m"),
    "post-q1-not-harmonic": (True, 1, 2, lambda s: gen_strict_q_harmonic(s, 2, 1), "zbar^m"),
    "post-q1-harmonic": (True, 1, 2, lambda s: gen_analytic(s, 2, exact_degree=True), "z^m+(c*zbar)^m"),
    "post-q2-not-harmonic": (
        True, 2, 2, lambda s: gen_strict_q_harmonic(s, 2, 1), "|z|^(2(q-1))*z^(m(q-1))"
    ),
    "post-q2-weight": (True, 2, 2, lambda s: gen_analytic(s, 2, exact_degree=True), "c*|z|^(2(q-1))"),
    "post-q3-weight": (True, 3, 4, lambda s: gen_harmonic(s, 2, both_parts_nonconstant=True), "c*|z|^(2(q-1))"),
    "post-q2-pair": (
        True, 2, 3, lambda s: gen_analytic(s, 2, exact_degree=True), "c*|z|^(2(q-1))*(z^(2m)+zbar^(2m))"
    ),
    "pre-q0-certified": (False, 0, 3, lambda s: gen_strict_q_harmonic(s, 2, 1), "w^m"),
    "pre-q0-fallback": (False, 0, 3, lambda s: gen_harmonic(s, 1, both_parts_nonconstant=True), "w^m"),
    "pre-q0-no-certificate": (False, 0, 3, lambda s: _NO_CERTIFICATE, "w^m"),
    "pre-q1-certified": (False, 1, 3, lambda s: gen_strict_q_harmonic(s, 2, 1), "w^m + conj(w)"),
    "pre-q1-no-certificate": (False, 1, 3, lambda s: _NO_CERTIFICATE, "w^m + conj(w)"),
    "pre-q2-split": (False, 2, 2, lambda s: gen_analytic(s, 2, exact_degree=True), "|w|^(2(q-1))"),
    "pre-q2-certified": (False, 2, 3, lambda s: gen_strict_q_harmonic(s, 2, 1), "w^m + |w|^(2(q-1))"),
    "pre-q2-no-certificate": (False, 2, 3, lambda s: _NO_CERTIFICATE, "w^m + |w|^(2(q-1))"),
    "pre-q3-certified": (False, 3, 2, lambda s: gen_harmonic(s, 2, both_parts_nonconstant=True), "w^m + |w|^(2(q-1))"),
}


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_witness_order_matches_sympy(name):
    post, q, l, make, tag = WITNESS_CASES[name]
    f = make(SEEDS[0])
    result = (find_witness_post if post else find_witness_pre)(f, q, l)
    assert result.family_tag == tag
    if post:
        expr = sympy_compose(to_sympy(f), to_sympy(result.witness))
    else:
        expr = sympy_compose(to_sympy(result.witness), to_sympy(f))
        if tag.startswith("w^m"):
            # The outer power starts at the certified m, else at 2l.
            certified = newton_certificate(f, l)
            assert (certified is None) == ("certified" not in name)
            assert result.witness.deg_z == (certified or 2 * l)
    assert sympy_order(expr) == result.composition_order > l
