import pytest
from hypothesis import given

from polyharm.bipoly import BiPoly
from polyharm.classify import classify, harmonic_parts, is_strictly_q_harmonic
from polyharm.wirtinger import polyharmonic_order
from strategies import analytic_polys, bipoly_any, harmonic_polys

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


def test_affine_example():
    rep = classify(Z * 3 + ZBAR * 2 + 1)
    assert rep.is_affine and rep.is_harmonic
    assert rep.harmonic_degree == 1
    assert not rep.is_analytic and not rep.is_antianalytic


def test_analytic_example():
    rep = classify(Z**2)
    assert rep.is_analytic and not rep.is_affine
    assert rep.analytic_degree == 2
    assert rep.is_harmonic and rep.harmonic_degree == 2


def test_mixed_example():
    rep = classify(Z * ZBAR)
    assert rep.order == 2
    assert not (rep.is_analytic or rep.is_antianalytic or rep.is_harmonic or rep.is_affine)
    assert rep.analytic_degree is None and rep.harmonic_degree is None


def test_constants_are_both_analytic_and_antianalytic():
    for f in (BiPoly.zero(), BiPoly.constant(5)):
        rep = classify(f)
        assert rep.is_analytic and rep.is_antianalytic and rep.is_affine


def test_strictly_q_harmonic():
    assert is_strictly_q_harmonic(Z * ZBAR, 2)
    assert not is_strictly_q_harmonic(Z * ZBAR, 3)
    assert is_strictly_q_harmonic(BiPoly.monomial(2, 2), 3)
    with pytest.raises(ValueError):
        is_strictly_q_harmonic(Z, 0)


@given(bipoly_any)
def test_conjugation_swaps_analytic_flags(f):
    rep = classify(f)
    conj_rep = classify(f.conjugate())
    assert conj_rep.is_analytic == rep.is_antianalytic
    assert conj_rep.is_antianalytic == rep.is_analytic
    assert conj_rep.order == rep.order
    assert conj_rep.is_harmonic == rep.is_harmonic
    assert conj_rep.is_affine == rep.is_affine


@given(bipoly_any)
def test_flag_consistency(f):
    rep = classify(f)
    assert rep.is_harmonic == (rep.order <= 1)
    if rep.is_analytic or rep.is_affine:
        assert rep.is_harmonic
    assert (rep.harmonic_degree is not None) == rep.is_harmonic
    assert (rep.analytic_degree is not None) == rep.is_analytic


@given(harmonic_polys)
def test_harmonic_degree_matches_part_split(f):
    h, g = harmonic_parts(f)
    rep = classify(f)
    assert h + g.conjugate() == f
    assert rep.harmonic_degree == max(h.deg_z, g.deg_z)
    # constant term always lands in h
    assert g.coefficient(0, 0).is_zero


@given(analytic_polys)
def test_analytic_strategy_classified_analytic(f):
    assert classify(f).is_analytic


def test_harmonic_parts_rejects_higher_order():
    with pytest.raises(ValueError):
        harmonic_parts(Z * ZBAR)


@given(bipoly_any)
def test_report_round_trips_through_dict(f):
    rep = classify(f)
    data = rep._asdict()
    assert data["order"] == polyharmonic_order(f)
    assert set(data) == {
        "order",
        "is_analytic",
        "is_antianalytic",
        "is_harmonic",
        "is_affine",
        "analytic_degree",
        "harmonic_degree",
    }
