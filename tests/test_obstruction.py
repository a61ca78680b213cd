"""The obstruction polynomial a_m: a pinned digest and a differential test."""

import hashlib
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
from hypothesis import example, given

from polyharm.bipoly import BiPoly, GaussianRational, mul
from polyharm.gen import gen_analytic, gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.theorems import a_m
from polyharm.wirtinger import d_dz, d_dzbar
from strategies import analytic_polys, bipoly_any, harmonic_polys

Z = BiPoly.z()
ZBAR = BiPoly.zbar()
M_VALUES = (1, -1, 2, -2, 3)


def _a_m_multi_step(f: BiPoly, m: int) -> BiPoly:
    """Reference: seven reduced derivatives, reduced products, sums and scalar products."""
    fz = d_dz(f)
    fzb = d_dzbar(f)
    fzz = d_dz(fz)
    fzbzb = d_dzbar(fzb)
    fzzb = d_dzbar(fz)
    fzzbzb = d_dzbar(fzzb)
    fzzzb = d_dz(fzzb)
    quad = mul(fz, fzb)
    return (
        (mul(fzzb, fzzb) + mul(fz, fzzbzb) + mul(fzb, fzzzb)) * 2
        + mul(fzz, fzbzb)
        + (mul(mul(fz, fz), fzbzb) + mul(mul(fzb, fzb), fzz) + mul(quad, fzzb) * 4) * m
        + mul(quad, quad) * (m * m)
    )


def _assert_normal_form(r: BiPoly) -> None:
    assert r.denominator > 0
    assert all(re or im for re, im in r.numerators.values())
    assert gcd(r.denominator, *(part for c in r.numerators.values() for part in c)) == 1


# --- differential test -------------------------------------------------------------

_inputs = st.one_of(
    bipoly_any,
    analytic_polys,
    analytic_polys.map(BiPoly.conjugate),
    harmonic_polys,
    st.just(BiPoly.zero()),
)


@given(_inputs, st.sampled_from(M_VALUES))
@example(BiPoly.zero(), 1)
@example(Z**3 * GaussianRational(Fraction(1, 2), Fraction(-2, 3)) + Z * Fraction(3, 4), -2)
@example((Z**3 * GaussianRational(Fraction(1, 2), Fraction(-2, 3)) + Z * Fraction(3, 4)).conjugate(), 3)
@example(Z**2 * Fraction(1, 6) + ZBAR**2 * GaussianRational(0, Fraction(5, 4)), -1)
@example(Z**2 * ZBAR**2 * GaussianRational(Fraction(2, 3), Fraction(1, 5)) - Z * ZBAR**3 * Fraction(7, 2), 2)
@example(Z * ZBAR, -1)
def test_a_m_matches_the_multi_step_formula(f, m):
    got = a_m(f, m)
    assert got == _a_m_multi_step(f, m)
    _assert_normal_form(got)
    # Every product in a_m has a zbar derivative of f among its factors, and a z
    # derivative (f_zzb is both), so it vanishes at every m when f_z*f_zbar = 0.
    if mul(d_dz(f), d_dzbar(f)).is_zero:
        assert got.is_zero


# --- digest pin ------------------------------------------------------------------
#
# SHA-256 of (denominator, sorted numerators) of a_m(f, m) for m = 1, 2, 3, -2
# over 1,500 case seeds, each giving a gen_bipoly, a gen_harmonic, a
# gen_strict_q_harmonic and a gen_analytic input (conjugated at odd
# indices), recorded before a_m became a single accumulation pass.  Any
# change to a value or to its normal form changes the digest.


def _digest_inputs():
    for index in range(1500):
        s = spawn(2718, index)
        yield gen_bipoly(s, 3)
        yield gen_harmonic(s, 3, both_parts_nonconstant=index % 2 == 0)
        yield gen_strict_q_harmonic(s, 2 + index % 2, 1)
        f = gen_analytic(s, 4)
        yield f.conjugate() if index % 2 else f


_A_M_DIGEST = "c1fd1fec2f1eb9f326210e61ec18a31439964303564121852ac3755d3466debf"


def test_a_m_digest_is_pinned():
    h = hashlib.sha256()
    zero = big_den = 0
    for f in _digest_inputs():
        for m in (1, 2, 3, -2):
            a = a_m(f, m)
            zero += a.is_zero
            big_den += a.denominator > 1
            h.update(repr((a.denominator, sorted(a.numerators.items()))).encode())
    # The inputs reach both vanishing and non-vanishing values, over denominators > 1.
    assert 0 < zero < 24000 and big_den > 0
    assert h.hexdigest() == _A_M_DIGEST
