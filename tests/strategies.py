"""Shared hypothesis strategies for exact-arithmetic property tests."""

from fractions import Fraction

import hypothesis.strategies as st

from polyharm.bipoly import BiPoly, GaussianRational

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

scalars = st.builds(GaussianRational, small_fractions, small_fractions)

nonzero_scalars = scalars.filter(bool)


def bipolys(max_exp: int = 4, max_terms: int = 5):
    exponents = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.builds(BiPoly, st.dictionaries(exponents, scalars, max_size=max_terms))


bipoly_any = bipolys()

# Compose blows degrees up multiplicatively, so associativity-style
# properties draw from this deliberately tiny pool.
bipoly_small = bipolys(max_exp=2, max_terms=3)

analytic_polys = st.builds(
    BiPoly,
    st.dictionaries(st.tuples(st.integers(0, 4), st.just(0)), scalars, max_size=4),
)

harmonic_polys = st.builds(
    lambda h, g: h + g.conjugate(), analytic_polys, analytic_polys
)


# GaussianRational has no arithmetic, so reference values are computed on
# its Fraction parts here, independently of polyharm's ring.


def gr_mul(*factors) -> GaussianRational:
    """The exact product of int, Fraction and GaussianRational factors."""
    re, im = Fraction(1), Fraction(0)
    for c in factors:
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        re, im = re * c.re - im * c.im, re * c.im + im * c.re
    return GaussianRational(re, im)


def gr_sum(*terms: GaussianRational) -> GaussianRational:
    """The exact sum of GaussianRational terms."""
    return GaussianRational(sum(c.re for c in terms), sum(c.im for c in terms))
