"""The generators against a reference built from the SplitMix64 draw methods.

gen_analytic and gen_harmonic step and mix every draw of an analytic part
inline (gen._analytic_draws) and build h + conj(g) as one
bipoly._from_parts call over both parts' items.  The reference here makes
the same draws through SplitMix64.between, chance, coeff_parts and
next_u64, one method call per draw; those methods draw through next_u64,
and tests/test_gen.py checks them against gen._mix alone.  The reference
builds the mapping only with BiPoly({...}), conjugate() and +, so
_analytic_draws takes no part in it, and no item list is conjugated.
"""

from fractions import Fraction

import pytest

from polyharm.bipoly import BiPoly, GaussianRational
from polyharm.gen import SplitMix64, gen_analytic, gen_harmonic, spawn


def _value(parts: tuple[int, int, int]) -> GaussianRational:
    re, im, den = parts
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def reference_analytic_draws(seed: int, max_degree: int, exact_degree: bool = False):
    """gen_analytic's terms {(n, 0): value} and how often its leading value was redrawn."""
    rng = SplitMix64(seed)
    degree = max_degree if exact_degree else rng.between(0, max_degree)
    terms = {}
    for n in range(degree):
        if rng.chance(5, 8):
            terms[(n, 0)] = _value(rng.coeff_parts())
    # coeff_parts(nonzero=True), one coeff_parts() per try, so the redraws
    # can be counted.
    redraws = 0
    lead = rng.coeff_parts()
    while lead[0] == 0 and lead[1] == 0:
        redraws += 1
        lead = rng.coeff_parts()
    terms[(degree, 0)] = _value(lead)
    return terms, redraws


def reference_analytic(seed: int, max_degree: int, exact_degree: bool = False) -> BiPoly:
    return BiPoly(reference_analytic_draws(seed, max_degree, exact_degree)[0])


def reference_parts(seed: int, max_degree: int, both_parts_nonconstant: bool = False):
    """The analytic parts (h, g) that gen_harmonic draws."""
    rng = SplitMix64(seed)
    if both_parts_nonconstant:
        top = max(1, max_degree)
        h = reference_analytic(rng.next_u64(), rng.between(1, top), True)
        g = reference_analytic(rng.next_u64(), rng.between(1, top), True)
    else:
        h = reference_analytic(rng.next_u64(), max_degree)
        g = reference_analytic(rng.next_u64(), max_degree)
    return h, g


def reference_harmonic(
    seed: int, max_degree: int, both_parts_nonconstant: bool = False, nonzero: bool = False
) -> BiPoly:
    h, g = reference_parts(seed, max_degree, both_parts_nonconstant)
    f = h + g.conjugate()
    if nonzero and f.is_zero:
        f = f + BiPoly.one()
    return f


_SEEDS = [spawn(2310, index) for index in range(40)]
_DEGREES = range(7)


@pytest.mark.parametrize("max_degree", _DEGREES)
def test_gen_analytic_matches_the_reference(max_degree):
    for seed in _SEEDS:
        for exact_degree in (False, True):
            expected = reference_analytic(seed, max_degree, exact_degree)
            assert gen_analytic(seed, max_degree, exact_degree=exact_degree) == expected, (seed, exact_degree)


@pytest.mark.parametrize("max_degree", _DEGREES)
def test_gen_harmonic_matches_the_reference(max_degree):
    for seed in _SEEDS:
        for both in (False, True):
            for nonzero in (False, True):
                expected = reference_harmonic(seed, max_degree, both, nonzero)
                got = gen_harmonic(seed, max_degree, both_parts_nonconstant=both, nonzero=nonzero)
                assert got == expected, (seed, both, nonzero)


def _first_seed(found) -> int:
    """The first spawn(2311, index) seed for which found(seed) holds."""
    for index in range(20_000):
        seed = spawn(2311, index)
        if found(seed):
            return seed
    raise AssertionError("no seed found")


def _redraws_lead(max_degree: int):
    return lambda seed: reference_analytic_draws(seed, max_degree)[1] > 0


def _constants_cancel(max_degree: int):
    def found(seed):
        h, g = reference_parts(seed, max_degree)
        return (0, 0) in h.terms and (0, 0) in g.terms and (0, 0) not in (h + g.conjugate()).terms

    return found


@pytest.mark.parametrize("max_degree", [0, 1, 3])
def test_a_redrawn_leading_coefficient_matches_the_reference(max_degree):
    seed = _first_seed(_redraws_lead(max_degree))
    assert gen_analytic(seed, max_degree) == reference_analytic(seed, max_degree)
    # The same draws as the first analytic part of a harmonic mapping.
    harmonic_seed = _first_seed(lambda s: _redraws_lead(max_degree)(SplitMix64(s).next_u64()))
    assert gen_harmonic(harmonic_seed, max_degree) == reference_harmonic(harmonic_seed, max_degree)


@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_cancelling_constants_match_the_reference(max_degree):
    seed = _first_seed(_constants_cancel(max_degree))
    f = gen_harmonic(seed, max_degree)
    assert f == reference_harmonic(seed, max_degree)
    assert (0, 0) not in f.terms
    if max_degree == 0:
        assert f.is_zero
        assert gen_harmonic(seed, 0, nonzero=True) == BiPoly.one()
