"""Exact composition: a pinned digest, a differential test, the single reduction, the one-term
substitution and the floor."""

import hashlib
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from polyharm import bipoly, theorems
from polyharm.bipoly import BiPoly, GaussianRational, canonical_print, compose, mul
from polyharm.gen import SplitMix64, gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.wirtinger import polyharmonic_order
from strategies import analytic_polys, bipoly_small, bipolys, nonzero_scalars, scalars

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


# --- digest pin ------------------------------------------------------------------
#
# SHA-256 of canonical_print(compose(outer, inner)) over 300 seeded pairs,
# recorded before compose became a single accumulation pass.  Any change to
# a composed value or to its normal form changes the digest.


def _pairs():
    pairs = []
    for index in range(60):
        a, b = spawn(808, 2 * index), spawn(808, 2 * index + 1)
        pairs.append((gen_bipoly(a, 3), gen_bipoly(b, 2)))
        pairs.append((gen_harmonic(a, 3), gen_strict_q_harmonic(b, 2, 2)))
        pairs.append((gen_strict_q_harmonic(a, 3, 1), gen_harmonic(b, 3)))
        pairs.append((gen_bipoly(a, 4), gen_harmonic(b, 2, both_parts_nonconstant=True)))
        # One-term outers z^m, m = 1..10: the thm2_nec shape.
        pairs.append((BiPoly.monomial(index % 10 + 1, 0), gen_harmonic(b, 3, nonzero=True)))
    return pairs


_COMPOSE_DIGEST = "0ef42d79ac0044411e96ec7dd43487750a301544cde993c4c9b432908d180742"


def test_compose_digest_is_pinned():
    pairs = _pairs()
    inners = [inner for _, inner in pairs]
    # The pairs reach the cases the digest is meant to pin.
    assert any(inner.denominator > 1 for inner in inners)
    assert any(im for inner in inners for _, im in inner.numerators.values())
    assert {len(outer.numerators) for outer, _ in pairs} >= {1, 8}
    h = hashlib.sha256()
    for outer, inner in pairs:
        h.update(canonical_print(compose(outer, inner)).encode())
        h.update(b"\n")
    assert h.hexdigest() == _COMPOSE_DIGEST


# --- differential test -----------------------------------------------------------


def _compose_term_by_term(f: BiPoly, inner: BiPoly) -> BiPoly:
    """Reference: reduced power chains of inner and conj(inner), one product per term."""
    pow_z, pow_zbar = [BiPoly.one()], [BiPoly.one()]
    for _ in range(f.deg_z):
        pow_z.append(mul(pow_z[-1], inner))
    for _ in range(f.deg_zbar):
        pow_zbar.append(mul(pow_zbar[-1], inner.conjugate()))
    out = BiPoly.zero()
    for (i, j), c in f.terms.items():
        out = out + mul(pow_z[i], pow_zbar[j]) * c
    return out


def _assert_normal_form(f: BiPoly) -> None:
    den = f.denominator
    assert den > 0
    assert all(re or im for re, im in f.numerators.values())
    assert gcd(den, *(part for c in f.numerators.values() for part in c)) == 1


# Whose square has a cancelled z^2 term: the raw chain must drop it.
_CANCELLING = BiPoly({(0, 0): 1, (1, 0): 1, (2, 0): GaussianRational(Fraction(-1, 2))})

_outers = st.one_of(
    st.just(BiPoly.zero()),
    bipolys(max_exp=0, max_terms=1),  # constants, zero included
    bipolys(max_exp=5, max_terms=1),  # one-term outers
    bipolys(max_exp=3, max_terms=6),
)
_inners = st.one_of(
    st.just(BiPoly.zero()),
    st.just(_CANCELLING),
    bipolys(max_exp=2, max_terms=4),
    bipolys(max_exp=3, max_terms=1),  # one-term inners: the key substitution
)


@given(_outers, _inners)
@example(BiPoly.zero(), _CANCELLING)
@example(BiPoly.constant(GaussianRational(Fraction(3, 7), Fraction(-2, 7))), BiPoly.zero())
@example(Z**3 * ZBAR * 5 + BiPoly.constant(GaussianRational(Fraction(1, 2), Fraction(1, 2))), BiPoly.zero())
@example(Z**4 + ZBAR**3 * 2 + Z * ZBAR, _CANCELLING)
@example(BiPoly.monomial(0, 4, GaussianRational(0, Fraction(1, 3))), _CANCELLING)
# Unit inner with p != r: a pure re-key.
@example(Z**3 + ZBAR * 2 - Z * ZBAR, BiPoly.monomial(2, 1))
# Gaussian c over d > 1 with p != r: every key distinct.
@example(Z**3 + ZBAR * 2 - Z * ZBAR, BiPoly.monomial(2, 1, GaussianRational(Fraction(-1, 3), Fraction(2, 3))))
# p == r: z and zbar land on one key and cancel to zero.
@example(Z - ZBAR, BiPoly.monomial(1, 1, Fraction(3, 2)))
# Unit inner with p == r: keys meet, so it is no re-key.
@example(Z - ZBAR + Z * ZBAR, BiPoly.monomial(1, 1))
# Gaussian c over d > 1 at p == r, f of mixed total degrees.
@example(Z**2 + ZBAR * GaussianRational(3, 1) + 1, BiPoly.monomial(1, 1, GaussianRational(Fraction(1, 3), Fraction(2, 3))))
# A constant point: the path eval_exact takes.
@example(Z**2 * ZBAR - ZBAR * 3 + 2, BiPoly.constant(GaussianRational(Fraction(1, 3), Fraction(-2, 3))))
def test_compose_matches_term_by_term(f, inner):
    result = compose(f, inner)
    assert result == _compose_term_by_term(f, inner)
    _assert_normal_form(result)
    if inner.is_zero:
        assert result == BiPoly.constant(f.coefficient(0, 0))


def test_cancelling_inner_square_has_no_z2_term():
    assert (2, 0) not in (_CANCELLING * _CANCELLING).numerators
    assert compose(Z**2, _CANCELLING) == _CANCELLING * _CANCELLING


# --- one reduction per composition ---------------------------------------------


def test_compose_reduces_once(monkeypatch):
    rng = SplitMix64(5)
    outer = BiPoly({(i, j): rng.coeff(nonzero=True) for i in range(3) for j in range(3)})
    inner = BiPoly({(0, 0): GaussianRational(Fraction(1, 3), Fraction(2, 3)), (1, 0): 2, (1, 1): GaussianRational(0, Fraction(-1, 5))})
    assert len(outer.numerators) >= 8
    calls = []
    # The normal-form step is _collect over sums, or _reduced over a zero-free map.
    for name in ("_collect", "_reduced"):
        original = getattr(bipoly, name)

        def counting(num, den, _name=name, _original=original):
            calls.append(_name)
            return _original(num, den)

        monkeypatch.setattr(bipoly, name, counting)
    compose(outer, inner)
    assert len(calls) == 1


def test_one_term_inner_substitutes_keys(monkeypatch):
    rng = SplitMix64(7)
    f = BiPoly({(i, j): rng.coeff(nonzero=True) for i in range(3) for j in range(3)})
    inners = [
        BiPoly.monomial(1, 1, Fraction(3, 2)),
        BiPoly.monomial(2, 0, GaussianRational(Fraction(1, 5), Fraction(-2, 5))),
        BiPoly.constant(GaussianRational(1, 1)),
        BiPoly.monomial(1, 1),
    ]
    unit = BiPoly.monomial(0, 3)
    expected = _compose_term_by_term(f, unit)
    calls = []
    for name in ("_mul_items", "_mul_into", "_collect", "_reduced"):
        original = getattr(bipoly, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(bipoly, name, counting)
    for inner in inners:
        compose(f, inner)
    # A one-term inner makes no product and reduces once.
    assert calls == ["_collect"] * len(inners)
    # The unit monomial with p != r only moves the keys: no gcd pass.
    calls.clear()
    assert compose(f, unit) == expected
    assert not calls


# --- the floor ---------------------------------------------------------------------
#
# compose(f, inner, floor) is the part of f after inner at keys with
# min(i, j) >= floor, which is all that an order check against floor reads.

_exps = st.integers(0, 3)
_floor_inners = st.one_of(
    bipoly_small,
    analytic_polys,
    analytic_polys.map(BiPoly.conjugate),
    # The one-term branches: a unit monomial with p != r and with p == r,
    # a constant and a Gaussian coefficient.
    st.tuples(_exps, _exps).filter(lambda key: key[0] != key[1]).map(lambda key: BiPoly.monomial(*key)),
    _exps.map(lambda k: BiPoly.monomial(k, k)),
    scalars.map(BiPoly.constant),
    st.builds(BiPoly.monomial, _exps, _exps, nonzero_scalars),
)


@given(st.one_of(bipoly_small, bipolys(max_exp=3, max_terms=6)), _floor_inners, st.integers(0, 6))
@example(Z**2 * ZBAR**2 + Z * ZBAR + Z + 1, Z + ZBAR * 2 + 1, 2)
# Only some items of N and conj(N) reach the floor inside a kept term.
@example(Z**2 + Z * ZBAR + ZBAR**3, Z**2 + Z * ZBAR + ZBAR + 1, 3)
# Over f's denominator 6 the kept part's numerator 4 is even, so it reduces.
@example(Z**3 * Fraction(2, 3) + ZBAR * Fraction(1, 6), BiPoly.monomial(2, 1), 2)
# p == r: the kept keys meet and cancel.
@example(Z * ZBAR**2 - Z**2 * ZBAR + Z, BiPoly.monomial(1, 1, Fraction(3, 2)), 3)
@example(Z**2 * ZBAR**2 + Z * 3, BiPoly.constant(GaussianRational(1, 2)), 1)
@example(Z**2 * ZBAR + ZBAR, _CANCELLING, 2)
def test_compose_at_a_floor_is_the_high_part(f, inner, floor):
    full = _compose_term_by_term(f, inner)
    high = compose(f, inner, floor)
    assert high == BiPoly({key: c for key, c in full.terms.items() if min(key) >= floor})
    _assert_normal_form(high)
    order = polyharmonic_order(full)
    if order > floor:
        assert polyharmonic_order(high) == order
    else:
        assert high.is_zero


# No term or no item of a thm2_suff or thm1_suff composition reaches its
# bound, so neither suite makes a product inside compose.  Full
# compositions make 1,308 _mul_into and 445 _mul_items calls in thm2_suff,
# and 2,490 and 779 in thm1_suff.
@pytest.mark.parametrize("suite", ["thm2_suff", "thm1_suff"])
def test_the_floor_prunes_the_sufficiency_suites(monkeypatch, suite):
    # Counts the _mul_into and _mul_items calls made inside compose by run_suite(suite, 0, 200).
    counts = {"_mul_into": 0, "_mul_items": 0}
    inside = []
    for name in counts:
        original = getattr(bipoly, name)

        def counting(*args, _name=name, _original=original):
            if inside:
                counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(bipoly, name, counting)

    def marked_compose(outer, inner, floor=0):
        inside.append(1)
        try:
            return compose(outer, inner, floor)
        finally:
            inside.pop()

    monkeypatch.setattr(theorems, "compose", marked_compose)
    assert theorems.run_suite(suite, 0, 200).failures == 0
    assert counts == {"_mul_into": 0, "_mul_items": 0}
