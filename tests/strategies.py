"""Shared hypothesis strategies for exact-arithmetic property tests."""

import random
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


# Text drawn from parser.GRAMMAR.  Exponents and nesting stay small so
# that every text is well inside the parser's budgets and cheap to lower.

_uints = st.integers(0, 10**20).map(str)

_rationals = _uints | st.builds(lambda num, den: f"{num}/{den}", _uints, st.integers(1, 10**12))

_leaf_atoms = st.sampled_from(("z", "zbar", "i")) | _rationals


def _grammar_sums(atoms, max_terms: int, min_terms: int = 1):
    factors = st.builds(lambda atom, n: atom if n is None else f"{atom}^{n}", atoms, st.none() | st.integers(0, 2))
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return st.builds(
        lambda negate, first, rest: ("-" if negate else "") + first + "".join(f" {op} {t}" for op, t in rest),
        st.booleans(),
        terms,
        st.lists(st.tuples(st.sampled_from("+-"), terms), min_size=min_terms - 1, max_size=max_terms - 1),
    )


_atoms = st.recursive(
    _leaf_atoms,
    lambda inner: st.builds(
        lambda opener, body: f"{opener}{body})", st.sampled_from(("(", "conj(", "abs2(")), _grammar_sums(inner, 3)
    ),
    max_leaves=6,
)

grammar_texts = _grammar_sums(_atoms, 4)


def _long_sum(seed: int) -> str:
    """A sum of 100 to 300 terms, each a product of one to three powers of leaves."""
    rng = random.Random(seed)

    def factor():
        integer, num, den = rng.randrange(10**20), rng.randrange(10**6), rng.randrange(1, 10**6)
        atom = rng.choice(("z", "zbar", "i", str(integer), f"{num}/{den}"))
        n = rng.randrange(4)
        return atom if n == 3 else f"{atom}^{n}"

    terms = ["*".join(factor() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(100, 300))]
    text = rng.choice(("", "-")) + terms[0]
    return text + "".join(f" {rng.choice('+-')} {term}" for term in terms[1:])


# Drawn from a seeded stream: hypothesis builds a list of hundreds of
# terms far more slowly.
long_grammar_sums = st.integers(0, 2**64).map(_long_sum)
