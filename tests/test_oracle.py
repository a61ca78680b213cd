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
from polyharm.gen import gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.wirtinger import laplacian, polyharmonic_order

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
        expected = to_sympy(outer).subs(
            {Z: to_sympy(inner), ZBAR: sympy_conjugate(to_sympy(inner))}, simultaneous=True
        )
        assert_same(compose(outer, inner), expected)


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
