import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from polyharm.bipoly import BiPoly, GaussianRational, canonical_print, compose, mul
from polyharm.cli import main
from polyharm.classify import classify, is_strictly_q_harmonic
from polyharm.errors import NotAnalytic, UnknownSuite
from polyharm.gen import SplitMix64, gen_analytic, gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.parser import parse
from polyharm.theorems import (
    COMPLIANT,
    DEFAULT_L_VALUES,
    VIOLATION,
    WitnessResult,
    _CaseFailure,
    _check_violation,
    _conjecture_case,
    _run_case,
    a_m,
    allowed_form_post,
    allowed_form_pre,
    find_witness_post,
    find_witness_pre,
    reich_condition_check,
    replay_case,
    run_conjecture_search,
    run_suite,
    separable_laplacian,
)
from polyharm.wirtinger import d_dz, d_dzbar, has_off_axis_vertex, laplacian, polyharmonic_order
from newton_oracle import certified_start
from strategies import analytic_polys, harmonic_polys

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


# --- allowed forms -------------------------------------------------------------


def test_allowed_form_post_examples():
    assert allowed_form_post(Z**3 + ZBAR, 0, 5) is True
    assert allowed_form_post(Z**2, 1, 3) is False
    # degree bound min(1, floor(1/2)) = 0 rejects any nonconstant harmonic
    assert allowed_form_post(Z * 2 + ZBAR + 1, 3, 2) is False


def test_allowed_form_post_degree_one_allowed_when_bound_permits():
    assert allowed_form_post(Z * 2 + ZBAR + 1, 3, 3) is True
    assert allowed_form_post(BiPoly.constant(9), 4, 1) is True
    assert allowed_form_post(Z * ZBAR, 0, 1) is False


def test_allowed_form_pre_examples():
    assert allowed_form_pre(Z + ZBAR, 1, 2) is False
    assert allowed_form_pre(ZBAR**3, 2, 4) is True
    # q <= 1, l >= 3 is decided for polynomial f: only the harmonic split forms comply.
    assert allowed_form_pre(Z * ZBAR, 1, 3) is False
    assert allowed_form_pre(Z + ZBAR, 0, 7) is False
    assert allowed_form_pre(ZBAR**5, 1, 7) is True


def test_allowed_form_pre_decision_table():
    assert allowed_form_pre(Z**4, 0, 1) is True  # analytic
    assert allowed_form_pre(ZBAR**4, 1, 1) is True  # anti-analytic
    assert allowed_form_pre(Z * ZBAR, 1, 2) is False  # settled small l
    assert allowed_form_pre(Z**3, 2, 2) is False  # degree 3 > floor(1/1)
    assert allowed_form_pre(Z * ZBAR, 2, 5) is False  # mixed, q >= 2
    assert allowed_form_pre(BiPoly.constant(3), 4, 1) is True


def test_parameter_validation():
    with pytest.raises(ValueError):
        allowed_form_post(Z, -1, 1)
    with pytest.raises(ValueError):
        allowed_form_post(Z, 0, 0)
    with pytest.raises(ValueError):
        allowed_form_pre(Z, 0, 0)


# --- witness constructors -------------------------------------------------------


def _assert_verified_post(f, q, l, result):
    assert result.verdict == VIOLATION
    assert result.witness is not None
    again = polyharmonic_order(compose(f, result.witness))
    assert again == result.composition_order > l


def _assert_verified_pre(f, q, l, result):
    assert result.verdict == VIOLATION
    assert result.witness is not None
    again = polyharmonic_order(compose(result.witness, f))
    assert again == result.composition_order > l


def test_find_witness_post_nonharmonic():
    result = find_witness_post(Z * ZBAR, 0, 1)
    assert result.witness == Z**2
    assert result.composition_order == 3
    _assert_verified_post(Z * ZBAR, 0, 1, result)
    assert classify(result.witness).is_analytic


def test_find_witness_post_non_affine():
    result = find_witness_post(Z**2, 1, 1)
    assert result.witness == Z**2 + ZBAR**2
    assert result.composition_order == 3
    _assert_verified_post(Z**2, 1, 1, result)
    rep = classify(result.witness)
    assert rep.is_harmonic and not rep.is_analytic


def test_find_witness_post_high_degree_harmonic():
    result = find_witness_post(Z**2, 2, 2)
    _assert_verified_post(Z**2, 2, 2, result)
    assert result.composition_order == 3
    assert polyharmonic_order(result.witness) == 2


def test_find_witness_post_min_cap_branch():
    # degree 2 <= floor((l-1)/(q-1)) but above the hard cap of 1
    f = Z**2 + ZBAR**2
    result = find_witness_post(f, 2, 4)
    _assert_verified_post(f, 2, 4, result)
    assert polyharmonic_order(result.witness) == 2


def test_find_witness_post_torsion_resistant_circle_points():
    # c = 1 and c = i both annihilate the top coefficient pair of this
    # mapping, so the search must reach an infinite-order circle point.
    f = Z**2 - ZBAR**2
    result = find_witness_post(f, 2, 2)
    assert result.witness == Z * ZBAR * GaussianRational(Fraction(-3, 5), Fraction(4, 5))
    _assert_verified_post(f, 2, 2, result)


def test_check_violation_error_triples():
    f = Z**2
    context = "q=1 l=1 f=z^2"
    forged = WitnessResult(COMPLIANT, None, None, 1, "")
    with pytest.raises(_CaseFailure) as failure:
        _check_violation(forged, f, 1, 1, post=True)
    assert failure.value.args == (context, "verdict Violation", COMPLIANT)
    real = find_witness_post(f, 1, 1)
    assert _check_violation(real, f, 1, 1, post=True) is None
    wrong = WitnessResult(VIOLATION, real.witness, real.composition_order + 1, 1, real.family_tag)
    with pytest.raises(_CaseFailure) as failure:
        _check_violation(wrong, f, 1, 1, post=True)
    assert failure.value.args == (context, "recomputed composition order > 1", str(real.composition_order))
    # z^2 after z has order 1 <= l, and the failure names that order.
    harmless = WitnessResult(VIOLATION, Z, 2, 1, real.family_tag)
    with pytest.raises(_CaseFailure) as failure:
        _check_violation(harmless, f, 1, 1, post=True)
    assert failure.value.args == (context, "recomputed composition order > 1", "1")


def _forged_verdict(real):
    return lambda f, q, l: WitnessResult(COMPLIANT, None, None, l, "")


def _order_6(real):
    return lambda seed, q, degree: Z**5 * ZBAR**5


def _order_6_on_every_second_call(real):
    # prop21 draws f, then g: every second call draws g.
    calls = itertools.count()
    return lambda seed, q, degree: Z**5 * ZBAR**5 if next(calls) % 2 else real(seed, q, degree)


def _one_order_higher(real):
    # Forged from the full composition: the floor the check passes is
    # ignored, so the forged order is the real one plus one at any floor.
    return lambda outer, inner, floor: mul(real(outer, inner), Z * ZBAR)


def _not_harmonic(real):
    return lambda seed, degree, both_parts_nonconstant=False: Z**2 * ZBAR


def _one_degree_higher(real):
    return lambda rng, degree, exact_degree: real(rng, degree + 1, exact_degree)


def _forced(name, target, patch, context, expected, got, test_id=None):
    return pytest.param(name, target, patch, context, expected, got, id=test_id or f"{name}-{target}")


@pytest.mark.parametrize(
    "name, target, patch, context, expected, got",
    [
        # the witness check
        _forced("thm1_nec", "find_witness_post", _forged_verdict, "q=", "verdict Violation", COMPLIANT),
        _forced("thm2_nec", "find_witness_pre", _forged_verdict, "q=", "verdict Violation", COMPLIANT),
        _forced("thm3", "find_witness_pre", _forged_verdict, "q=", "verdict Violation", COMPLIANT),
        # the order check
        _forced("thm1_suff", "gen_strict_q_harmonic", _order_6, "inner=z^5*zbar^5", "generator order [2-4]", "6"),
        _forced("thm2_suff", "gen_strict_q_harmonic", _order_6, "outer=z^5*zbar^5", "generator order [2-4]", "6"),
        _forced("prop21", "gen_strict_q_harmonic", _order_6, "f=z^5*zbar^5", "generator order [1-5]", "6"),
        _forced(
            "prop21", "gen_strict_q_harmonic", _order_6_on_every_second_call, "g=z^5*zbar^5",
            "generator order [1-5]", "6", test_id="prop21-gen_strict_q_harmonic-g",
        ),
        _forced(
            "conjecture_search", "gen_strict_q_harmonic", _order_6, "f=z^5*zbar^5", "generator order [2-4]", "6"
        ),
        # the bound check
        _forced("thm1_suff", "compose", _one_order_higher, "outer=", r"order <= 1", r"[2-9]"),
        _forced("thm2_suff", "compose", _one_order_higher, "outer=", r"order <= \d+", r"\d+"),
        _forced("thm3", "gen_harmonic", _not_harmonic, "outer=z^2*zbar inner=", r"order <= 1", r"[2-9]"),
        # the exact composition order for split f
        _forced("thm2_nec", "_split", _one_degree_higher, "q=", r"composition order exactly \d+", r"\d+"),
        _forced("thm3", "_split", _one_degree_higher, "q=", r"composition order exactly \d+", r"\d+"),
    ],
)
def test_forged_witness_failure_names_its_case_seed(monkeypatch, capsys, name, target, patch, context, expected, got):
    # A forced failure of each check that a suite makes starts with the
    # case seed that replays it, in the API and in the CLI.
    import polyharm.theorems as theorems

    monkeypatch.setattr(theorems, target, patch(getattr(theorems, target)))
    report = run_suite(name, 0, 20)
    assert report.failures > 0
    first = report.first_failure
    prefix, rest = first[0].split(" ", 1)
    assert prefix.startswith("case_seed=") and rest.startswith(context), first
    assert re.fullmatch(expected, first[1]) and re.fullmatch(got, first[2]), first
    case_seed = int(prefix.removeprefix("case_seed="))
    assert case_seed in {spawn(0, index) for index in range(20)}
    assert replay_case(name, case_seed) == first
    assert main(["verify", "--suite", name, "--case-seed", str(case_seed), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["first_failure"] == dict(zip(("input", "expected", "got"), first))


def test_a_compliant_witness_draw_is_a_recorded_failure(monkeypatch, capsys):
    # A generator that breaks its contract hands the witness search an
    # allowed form: its Compliant verdict fails the case under the case
    # seed that replays it, and nothing escapes the suite.
    import polyharm.theorems as theorems

    monkeypatch.setattr(theorems, "gen_strict_q_harmonic", lambda seed, q, degree: Z)
    report = run_suite("thm1_nec", 0, 3)
    assert report.failures >= 1
    first = report.first_failure
    assert re.fullmatch(r"case_seed=\d+ q=0 l=[1-4] f=z", first[0]), first
    assert first[1:] == ("verdict Violation", COMPLIANT)
    case_seed = int(first[0].split()[0].removeprefix("case_seed="))
    assert replay_case("thm1_nec", case_seed) == first
    assert main(["verify", "--suite", "thm1_nec", "--case-seed", str(case_seed), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["first_failure"] == dict(zip(("input", "expected", "got"), first))


def test_passing_cases_build_no_failure_text(monkeypatch):
    # A passing case prints no mapping, except for the context that
    # _check_violation builds for each witness it re-verifies.
    import polyharm.bipoly as bipoly
    import polyharm.theorems as theorems

    prints, checks = [], []

    def counted_print(f):
        prints.append(f)
        return canonical_print(f)

    real_check = theorems._check_violation

    def counted_check(res, f, q, l, post):
        checks.append(res)
        # The suites compose witnesses in full; the floor still reads the
        # same order on every one of them.
        outer, inner = (f, res.witness) if post else (res.witness, f)
        assert polyharmonic_order(compose(outer, inner, floor=l)) == res.composition_order
        return real_check(res, f, q, l, post)

    monkeypatch.setattr(bipoly, "canonical_print", counted_print)
    monkeypatch.setattr(theorems, "canonical_print", counted_print)
    monkeypatch.setattr(theorems, "_check_violation", counted_check)
    rechecks = {"thm1_nec": 600, "thm2_nec": 200, "thm3": 122}
    for name, cases in theorems.DEFAULT_CASES.items():
        prints.clear()
        checks.clear()
        assert run_suite(name, 0, cases).failures == 0
        assert len(prints) == len(checks) == rechecks.get(name, 0), name
    prints.clear()
    assert run_conjecture_search(0, 5000).failures == 0
    assert prints == []


def test_find_witness_post_not_applicable():
    assert find_witness_post(Z + ZBAR, 0, 1) == WitnessResult(COMPLIANT, None, None, 1, "")


def test_find_witness_pre_both_parts_nonconstant():
    result = find_witness_pre(Z + ZBAR, 1, 1)
    assert result.witness == Z**2 + ZBAR
    assert result.composition_order == 2
    _assert_verified_pre(Z + ZBAR, 1, 1, result)


@pytest.mark.parametrize(
    "f, q, l, witness, order",
    [
        (Z**2 + ZBAR**2, 1, 1, Z**2 + ZBAR, 3),
        (Z**2 + ZBAR, 2, 3, Z * ZBAR + Z**5, 4),
        # (1, 1) lies inside the only edge, so nothing is certified and the
        # power is w^(2l), a witness by the Newton-polygon proof.
        (Z**2 + Z * ZBAR + ZBAR**2, 0, 2, Z**4, 5),
    ],
)
def test_pre_composition_powers_start_at_the_certified_exponent(f, q, l, witness, order):
    result = find_witness_pre(f, q, l)
    assert result.witness == witness
    assert result.composition_order == order
    _assert_verified_pre(f, q, l, result)


@pytest.mark.parametrize("name", ["thm2_nec", "thm3"])
def test_pre_composition_searches_hit_on_their_first_candidate(monkeypatch, name):
    import polyharm.theorems as theorems

    composed = []
    plain_compose, plain_find = theorems.compose, theorems.find_witness_pre
    searches = []

    def counting_compose(outer, inner, floor=0):
        composed.append(floor)
        return plain_compose(outer, inner, floor)

    def recording_find(f, q, l):
        before = len(composed)
        res = plain_find(f, q, l)
        searches.append((f, l, res, composed[before:]))
        return res

    monkeypatch.setattr(theorems, "compose", counting_compose)
    monkeypatch.setattr(theorems, "find_witness_pre", recording_find)
    assert run_suite(name, 12345, 2000).failures == 0
    powers = 0
    for f, l, res, floors in searches:
        # One candidate, composed in full.
        assert floors == [0]
        if res.family_tag.startswith("w^m"):
            powers += 1
            m = max(i for i, j in res.witness.numerators if j == 0)
            assert m == (certified_start(f, l) or 2 * l)
    assert powers > 0


def test_a_pre_composition_search_builds_the_hull_once(monkeypatch):
    import polyharm.wirtinger as wirtinger

    built = []
    plain_vertices = wirtinger._newton_vertices

    def counting_vertices(f):
        built.append(1)
        return plain_vertices(f)

    monkeypatch.setattr(wirtinger, "_newton_vertices", counting_vertices)
    result = find_witness_pre(parse("z^2 + z*zbar + zbar^2"), 1, 6)
    assert result.witness == parse("z^12 + zbar")
    assert len(built) == 1


def test_each_proven_family_yields_one_candidate_and_it_is_a_witness():
    # Every witness family is the finite candidate list its proof needs
    # (see theorems._post_candidates and _pre_candidates): one candidate for
    # non-harmonic f after composition and for the single pre families, at
    # most three c for harmonic f after composition, the pair eps = 1, 2
    # before a q = 1 outer and the pair lam = 1, 2 before a q >= 2 outer.  The first candidate of order > l is a witness.
    import polyharm.theorems as theorems

    gens = [
        lambda seed: gen_bipoly(seed, 3),
        lambda seed: gen_strict_q_harmonic(seed, 2 + seed % 2, 1 + seed % 3 // 2),
        lambda seed: gen_harmonic(seed, 3),
        lambda seed: gen_harmonic(seed, 3, both_parts_nonconstant=True),
        lambda seed: gen_analytic(seed, 3, exact_degree=True),
        lambda seed: gen_analytic(seed, 3, exact_degree=True).conjugate(),
    ]
    checked = {}
    for index in range(12):
        seed = spawn(4343, index)
        for gen in gens:
            f = gen(seed)
            rep = classify(f)
            for q in range(5):
                for l in range(1, 7):
                    for post, allowed in ((True, allowed_form_post), (False, allowed_form_pre)):
                        if allowed(f, q, l):
                            continue
                        if post:
                            family = list(theorems._post_candidates(f, rep, q, l))
                            assert len(family) == (3 if rep.is_harmonic else 1)
                        else:
                            family = list(theorems._pre_candidates(f, rep, q, l))
                            single = q == 0 or rep.is_analytic or rep.is_antianalytic
                            assert len(family) == (1 if single else 2)
                        for candidate, tag in family:
                            composed = compose(f, candidate) if post else compose(candidate, f)
                            res = WitnessResult(VIOLATION, candidate, polyharmonic_order(composed), l, tag)
                            if res.composition_order > l:
                                break
                        assert _check_violation(res, f, q, l, post) is None, (post, canonical_print(f), q, l)
                        checked[tag] = checked.get(tag, 0) + 1
    # Random coefficients hit on the first candidate.  The later ones are
    # reached by the torsion test above and the corner and lam = 2 tests below.
    assert set(checked) == {
        "z^m", "zbar^m", "|z|^(2(q-1))*z^(m(q-1))", "z^m+(c*zbar)^m", "c*|z|^(2(q-1))",
        "c*|z|^(2(q-1))*(z^(2m)+zbar^(2m))", "w^m", "w^m + conj(w)", "|w|^(2(q-1))", "w^m + |w|^(2(q-1))",
    }
    assert min(checked.values()) > 100


@pytest.mark.parametrize(
    "f, q, l, witness, order",
    [
        # The top factor h_3*c^6 + conj(g_3) = c^6 - 1 vanishes at c = 1,
        # where f(|z|^2) = 2*|z|^4 has order 3 = l; so c = i.
        ("z^3 - zbar^3 + z^2 + zbar^2", 2, 3, "i*z*zbar", 4),
        # d(q-1) + 1 = 4 = l, so c*|z|^2 can never succeed and the paired
        # family runs at m = 5.  The top factor c^6 - 1 vanishes at c = 1,
        # but 5*z^2 + zbar^2 keeps 5*c^4 + 1 != 0 one total degree lower.
        ("z^3 - zbar^3 + 5*z^2 + zbar^2", 2, 4, "z*zbar^11 + z^11*zbar", 13),
        # With z^2 - zbar^2 every degree of f(F) cancels at c = 1, so c = i.
        ("z^3 - zbar^3 + z^2 - zbar^2", 2, 4, "i*z*zbar^11 + i*z^11*zbar", 14),
        # q = 1: the factor c^9 - 1 vanishes at c = 1, but (z^3 + zbar^3)^2 from
        # z^2 + zbar^2 holds 2*z^3*zbar^3, so c = 1 is a witness all the same ...
        ("z^3 - zbar^3 + z^2 + zbar^2", 1, 2, "zbar^3 + z^3", 4),
        # ... and with z^2 - zbar^2 it is not, so c = i.
        ("z^3 - zbar^3 + z^2 - zbar^2", 1, 2, "-i*zbar^3 + z^3", 4),
    ],
)
def test_post_witness_corners(f, q, l, witness, order):
    f = parse(f)
    result = find_witness_post(f, q, l)
    assert (canonical_print(result.witness), result.composition_order) == (witness, order)
    _assert_verified_post(f, q, l, result)


def test_pre_witness_takes_lambda_two_where_lambda_one_cancels():
    # The vertex -7i*z^3*zbar^3 of f gives (-7i)^2 + |-7i|^2 = 0 at (6, 6) in
    # the composition with w^2 + |w|^2, so lam = 2 is the witness.
    f = gen_strict_q_harmonic(spawn(42, 170), 4, 1)
    result = find_witness_pre(f, 2, 6)
    assert (canonical_print(result.witness), result.composition_order) == ("2*z*zbar + z^2", 7)
    assert result.family_tag == "w^m + 2*|w|^(2(q-1))"
    _assert_verified_pre(f, 2, 6, result)
    assert polyharmonic_order(compose(Z**2 + Z * ZBAR, f)) == 6


def test_pre_witness_takes_eps_two_where_eps_one_cancels():
    # f + conj(f) = 0 for f = i*z^2*zbar^2, so w + conj(w) composes to 0 and
    # eps = 2 is the witness: f + 2*conj(f) = -i*z^2*zbar^2.
    f = parse("i*z^2*zbar^2")
    result = find_witness_pre(f, 1, 1)
    assert (canonical_print(result.witness), result.composition_order) == ("2*zbar + z", 3)
    assert result.family_tag == "w^m + 2*conj(w)"
    _assert_verified_pre(f, 1, 1, result)
    assert _check_violation(result, f, 1, 1, post=False) is None
    assert compose(Z + ZBAR, f).is_zero


def test_witness_cli_records_find_witness_pre(capsys, monkeypatch):
    import polyharm.theorems as theorems
    from polyharm.cli import main

    calls = []
    plain_find = theorems.find_witness_pre

    def recording_find(f, q, l):
        calls.append((canonical_print(f), q, l))
        return plain_find(f, q, l)

    monkeypatch.setattr(theorems, "find_witness_pre", recording_find)
    assert main(["witness", "--theorem", "2b", "--q", "2", "--l", "3", "z^2+zbar"]) == 1
    assert calls == [("zbar + z^2", 2, 3)]
    assert "witness: z*zbar + z^5" in capsys.readouterr().out


def test_witness_searches_classify_f_once(monkeypatch):
    import polyharm.theorems as theorems

    seen = []
    plain_classify = theorems.classify

    def counting_classify(g):
        seen.append(g)
        return plain_classify(g)

    monkeypatch.setattr(theorems, "classify", counting_classify)
    post = [(Z + ZBAR, 0, 1), (Z**2, 1, 1), (Z * ZBAR, 0, 1), (Z**2 - ZBAR**2, 2, 2), (Z * ZBAR, 3, 2)]
    pre = [(Z * ZBAR, 1, 3), (Z**9, 0, 1), (Z + ZBAR, 1, 1), (Z**2, 2, 2), (ZBAR**3, 3, 4), (Z * ZBAR, 2, 3)]
    calls = [(find_witness_post, args) for args in post] + [(find_witness_pre, args) for args in pre]
    for search, (f, q, l) in calls:
        seen.clear()
        search(f, q, l)
        assert len(seen) == 1 and seen[0] is f, search.__name__
    assert len(calls) == 11


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_pre_candidate_is_strictly_q_harmonic(q):
    # The pre search checks no candidate's order: each is the carrier
    # |w|^(2(q-1)) plus a harmonic term, so it has order exactly q.
    import polyharm.theorems as theorems

    gens = [
        lambda seed: gen_bipoly(seed, 4),
        lambda seed: gen_harmonic(seed, 3),
        lambda seed: gen_harmonic(seed, 3, both_parts_nonconstant=True),
        lambda seed: gen_analytic(seed, 4),
        lambda seed: gen_analytic(seed, 4).conjugate(),
        lambda seed: gen_strict_q_harmonic(seed, 2, 2),
    ]
    tried = 0
    for index in range(60):
        seed = spawn(4242, index)
        for gen in gens:
            f = gen(seed)
            rep = classify(f)
            for l in range(1, 6):
                for candidate, _ in theorems._pre_candidates(f, rep, q, l):
                    assert is_strictly_q_harmonic(candidate, q), (canonical_print(f), l, canonical_print(candidate))
                    tried += 1
    assert tried > 1000


def test_find_witness_pre_analytic_too_large():
    result = find_witness_pre(Z**2, 2, 2)
    assert result.witness == BiPoly.monomial(1, 1)
    assert result.composition_order == 3
    _assert_verified_pre(Z**2, 2, 2, result)

    result = find_witness_pre(Z**3, 3, 4)
    assert result.witness == BiPoly.monomial(2, 2)
    assert result.composition_order == 7
    _assert_verified_pre(Z**3, 3, 4, result)


def test_find_witness_pre_antianalytic():
    result = find_witness_pre(ZBAR**2, 2, 2)
    assert result.composition_order == 3
    _assert_verified_pre(ZBAR**2, 2, 2, result)


def test_find_witness_pre_mixed_with_q_at_least_two():
    f = Z * ZBAR
    result = find_witness_pre(f, 2, 3)
    _assert_verified_pre(f, 2, 3, result)
    assert polyharmonic_order(result.witness) == 2


def test_find_witness_pre_nonharmonic_small_l():
    f = Z * ZBAR + Z
    result = find_witness_pre(f, 0, 2)
    _assert_verified_pre(f, 0, 2, result)
    assert classify(result.witness).is_analytic


def test_find_witness_pre_not_applicable():
    assert find_witness_pre(Z**2, 0, 1) == WitnessResult(COMPLIANT, None, None, 1, "")
    assert find_witness_pre(ZBAR**3, 1, 3) == WitnessResult(COMPLIANT, None, None, 3, "")
    # q <= 1, l >= 3 with f neither analytic nor anti-analytic is a Violation, not Compliant.
    result = find_witness_pre(Z * ZBAR, 1, 3)
    assert result.witness == Z**3 + ZBAR and result.composition_order == 4


def test_witness_wrappers():
    assert find_witness_post(Z + ZBAR, 0, 1).verdict == COMPLIANT
    assert find_witness_post(Z**2, 1, 1).verdict == VIOLATION
    result = find_witness_pre(Z * ZBAR, 1, 3)
    assert (result.verdict, result.witness, result.composition_order) == (VIOLATION, Z**3 + ZBAR, 4)
    assert find_witness_pre(Z**9, 0, 1).verdict == COMPLIANT


# --- pre-composition at q <= 1, l >= 3 ------------------------------------------


def _axis_vertex_polygon(seed: int) -> BiPoly:
    """A non-harmonic f whose Newton polygon has every vertex on an axis.

    z^a and zbar^b with a, b >= 2 plus at least one mixed term on the edge
    between them; with a constant term, the mixed terms may also lie below
    that edge.
    """
    rng = SplitMix64(seed)
    a, b = rng.between(2, 5), rng.between(2, 5)
    below = [(i, j) for i in range(1, a) for j in range(1, b) if i * b + j * a <= a * b]
    on_edge = [(i, j) for i, j in below if i * b + j * a == a * b]
    # Without a constant term, only mixed terms on the edge keep every vertex on an axis.
    with_constant = not on_edge or rng.chance(1, 2)
    mixed = below if with_constant else on_edge
    keys = [(a, 0), (0, b)] + ([k for k in mixed if rng.chance(1, 2)] or mixed[:1])
    if with_constant:
        keys.append((0, 0))
    return BiPoly({key: rng.coeff(nonzero=True) for key in keys})


def test_pre_composition_is_decided_for_every_polynomial_f():
    # For q <= 1 every f that is neither analytic nor anti-analytic has a
    # power witness w^m with m <= 2l, at every l (Ostrowski and Hajos,
    # see theorems._pre_candidates).
    polygons = [Z**2 + Z * ZBAR + ZBAR**2] + [_axis_vertex_polygon(spawn(33, index)) for index in range(30)]
    assert not any(has_off_axis_vertex(f) for f in polygons)
    fs = polygons + [gen_bipoly(spawn(31, index), 3) for index in range(30)]
    fs += [gen_strict_q_harmonic(spawn(32, index), 2 + index % 2, 1 + index % 3 // 2) for index in range(30)]
    fs = [f for f in fs if not classify(f).is_harmonic]
    assert len(fs) > 80
    for f in fs:
        for q in (0, 1):
            for l in range(3, 7):
                assert allowed_form_pre(f, q, l) is False
                result = find_witness_pre(f, q, l)
                assert _check_violation(result, f, q, l, post=False) is None
                assert result.witness.deg_z <= 2 * l


# --- separable Laplacian --------------------------------------------------------


def test_separable_laplacian_example():
    assert separable_laplacian(Z**2, Z**3, 2) == ZBAR * 192
    assert separable_laplacian(Z**2, Z**3, 2) == laplacian(Z**2 * ZBAR**3, 2)


def test_separable_laplacian_vanishing_cases():
    assert separable_laplacian(Z, Z, 2).is_zero
    assert separable_laplacian(Z**3, BiPoly.one(), 1).is_zero


def test_separable_laplacian_rejects_mixed_input():
    with pytest.raises(NotAnalytic):
        separable_laplacian(Z * ZBAR, Z, 1)
    with pytest.raises(NotAnalytic):
        separable_laplacian(Z, ZBAR, 1)


@given(analytic_polys, analytic_polys)
@settings(max_examples=40)
def test_separable_laplacian_identity(h, g):
    for l in (1, 2, 3, 4, 5):
        assert separable_laplacian(h, g, l) == laplacian(mul(h, g.conjugate()), l)


# --- obstruction polynomial -----------------------------------------------------


def test_a_m_analytic_vanishes():
    for m in (1, 2, 3, -2):
        assert a_m(Z, m).is_zero
        assert a_m(Z**4 + Z, m).is_zero


def test_a_m_modulus_squared():
    assert a_m(Z * ZBAR, 1) == BiPoly.constant(2) + Z * ZBAR * 4 + BiPoly.monomial(2, 2)


def test_a_m_difference():
    assert a_m(Z * ZBAR, 2) - a_m(Z * ZBAR, 1) == Z * ZBAR * 4 + BiPoly.monomial(2, 2) * 3


def test_a_m_rejects_zero_m():
    with pytest.raises(ValueError):
        a_m(Z, 0)


@given(harmonic_polys)
@settings(max_examples=40)
def test_a_m_vanishes_iff_degenerate_gradient(f):
    vanish = all(a_m(f, m).is_zero for m in (1, 2, 3))
    assert vanish == mul(d_dz(f), d_dzbar(f)).is_zero


# --- Reich condition ------------------------------------------------------------


def test_reich_zero_mapping():
    assert reich_condition_check(BiPoly.zero(), GaussianRational(1, 2), Fraction(3)) is True


def test_reich_identity_mapping_fails():
    assert reich_condition_check(Z, GaussianRational(0), 0) is False
    assert reich_condition_check(Z, GaussianRational(1), Fraction(-1)) is False


def test_reich_constant_solution():
    # alpha = 1, c = -1: 1 - 2 + 1 = 0, so the constant 1 satisfies the ODE,
    # whether alpha is given as an int, a Fraction or a GaussianRational.
    for alpha in (1, Fraction(1), GaussianRational(1)):
        assert reich_condition_check(BiPoly.one(), alpha, Fraction(-1)) is True
    # alpha = 1 + i: alpha^2 = 2i and conj(alpha)^2 = -2i, so G = 1 gives 2c.
    alpha = GaussianRational(1, 1)
    assert reich_condition_check(BiPoly.one(), alpha, 0) is True
    assert reich_condition_check(BiPoly.one(), alpha, 1) is False
    # G = i, c = 2: 2i*i^4 + 4*i^3 - 2i*i^2 = 2i - 4i + 2i = 0.  With alpha^2
    # and conj(alpha)^2 swapped it would read -2i - 4i - 2i.
    assert reich_condition_check(BiPoly.constant(GaussianRational(0, 1)), alpha, 2) is True
    # GaussianRational is a value with no arithmetic: BiPoly is the one ring.
    for op in (lambda c: c + 1, lambda c: c * 2, lambda c: -c, lambda c: c**2):
        with pytest.raises(TypeError):
            op(GaussianRational(1))


def test_reich_rejects_mixed_input():
    with pytest.raises(NotAnalytic):
        reich_condition_check(Z * ZBAR, GaussianRational(1), 0)


# --- sufficiency properties ------------------------------------------------------


@given(harmonic_polys, analytic_polys)
@settings(max_examples=40)
def test_harmonic_after_analytic_stays_harmonic(f, inner):
    assert polyharmonic_order(compose(f, inner)) <= 1


@given(analytic_polys, harmonic_polys)
@settings(max_examples=40)
def test_analytic_then_harmonic_outer_stays_harmonic(f, outer):
    assert polyharmonic_order(compose(outer, f)) <= 1


def test_strict_q_outer_bound_for_analytic_inner():
    for index in range(60):
        rng = SplitMix64(spawn(41, index))
        t = rng.between(0, 4)
        f = gen_analytic(rng.next_u64(), t, exact_degree=True)
        q = rng.between(2, 4)
        outer = gen_strict_q_harmonic(rng.next_u64(), q, 2)
        assert polyharmonic_order(compose(outer, f)) <= t * (q - 1) + 1


# --- suites ----------------------------------------------------------------------


def test_run_suite_unknown_name():
    with pytest.raises(UnknownSuite):
        run_suite("nope", 0, 1)


def test_run_suite_deterministic():
    a = run_suite("prop21", 123, 40)
    b = run_suite("prop21", 123, 40)
    assert a == b
    assert a.cases_run == 40 and a.seed == 123


@pytest.mark.parametrize(
    "name",
    ["thm1_suff", "thm1_nec", "thm2_suff", "thm2_nec", "thm3", "prop21", "prop22"],
)
def test_suites_clean_at_smoke_scale(name):
    report = run_suite(name, 2024, 60)
    assert report.failures == 0, report.first_failure
    assert report.first_failure is None


def test_conjecture_search_smoke():
    report = run_suite("conjecture_search", 3, 60)
    assert report.failures == 0


def test_run_conjecture_search_custom_l():
    report = run_conjecture_search(9, 40, (3,))
    assert report.failures == 0
    assert report.suite_name == "conjecture_search"
    # l = 1 and 2 check the same w^(2l) bound.
    assert run_conjecture_search(9, 40, (1, 2)).failures == 0


@pytest.mark.parametrize("l_values", [(), (0,), (3, -1), [3.5], ("3",)])
def test_run_conjecture_search_rejects_bad_l_values(l_values):
    with pytest.raises(ValueError):
        run_conjecture_search(1, 2, l_values)


def test_run_conjecture_search_reads_l_values_once():
    # The orders are checked and used from one tuple, so an iterator works.
    expected = run_conjecture_search(0, 5, (3, 4))
    assert run_conjecture_search(0, 5, iter([3, 4])) == expected
    assert run_conjecture_search(0, 5, (l for l in (3, 4))) == expected
    with pytest.raises(ValueError, match="l_values must name at least one order"):
        run_conjecture_search(0, 5, iter([]))


@pytest.mark.parametrize("cases", [-3, -1, 2.0, "5", None])
def test_suite_runners_reject_bad_case_counts(cases):
    with pytest.raises(ValueError, match="cases must be a nonnegative integer"):
        run_suite("thm1_nec", 1, cases)
    with pytest.raises(ValueError, match="cases must be a nonnegative integer"):
        run_conjecture_search(1, cases)


def test_suite_runners_run_zero_cases():
    assert run_suite("thm1_nec", 1, 0).cases_run == 0
    assert run_conjecture_search(1, 0).cases_run == 0


def test_witness_searches_inside_suites_recheck_strictness():
    # a strict-q witness coming back from the q >= 2 searches really has order q
    f = gen_harmonic(77, 3, both_parts_nonconstant=True)
    result = find_witness_pre(f, 3, 2)
    assert polyharmonic_order(result.witness) == 3
    _assert_verified_pre(f, 3, 2, result)


# --- the counterexample hunt --------------------------------------------------


def _power_loop_case(case_seed: int, l_values: tuple[int, ...]):
    """_conjecture_case without the Newton-vertex shortcut: the plain power loop.

    Returns (result, powers built, f).
    """
    rng = SplitMix64(case_seed)
    l = l_values[rng.below(len(l_values))]
    q = rng.between(2, 4)
    f = gen_strict_q_harmonic(rng.next_u64(), q, rng.between(1, 2))
    max_m = 2 * l
    power = BiPoly.one()
    for m in range(1, max_m + 1):
        power = mul(power, f)
        if polyharmonic_order(power) > l:
            return None, m, f
    failure = (
        f"case_seed={case_seed} l={l} f={canonical_print(f)}",
        f"some harmonic outer mapping of degree <= {max_m} with composition order > l",
        f"every power f^m, m = 1..{max_m}, stayed within order {l}",
    )
    return failure, max_m, f


# Case seeds of spawn(7, index) whose f has every Newton vertex on an axis
# (mu = 0), so the hunt decides them by the power loop: indices 186, 390,
# 1289, 6723 and 9019.
MU_ZERO_SEEDS = (
    13285122128776218976,
    10942825911608575612,
    2942702714038213533,
    310278590961829549,
    11755931027301492454,
)


def test_mu_zero_seeds_are_mu_zero():
    for case_seed in MU_ZERO_SEEDS:
        _, _, f = _power_loop_case(case_seed, DEFAULT_L_VALUES)
        assert not has_off_axis_vertex(f)
    _, _, f = _power_loop_case(spawn(7, 0), DEFAULT_L_VALUES)
    assert has_off_axis_vertex(f)


def test_conjecture_case_matches_the_plain_power_loop(monkeypatch):
    import polyharm.theorems as theorems

    built = []
    plain_mul = theorems.mul

    def counting_mul(a, b):
        built.append(1)
        return plain_mul(a, b)

    monkeypatch.setattr(theorems, "mul", counting_mul)
    seeds = [spawn(7, index) for index in range(3000)] + list(MU_ZERO_SEEDS)
    shortcut = 0
    for case_seed in seeds:
        for l_values in (DEFAULT_L_VALUES, (5,)):
            expected, powers, f = _power_loop_case(case_seed, l_values)
            built.clear()
            assert _run_case(lambda rng: _conjecture_case(rng, l_values), case_seed) == expected
            # A case with a vertex off the axes builds no power; one with
            # every vertex on an axis builds exactly the powers the plain
            # loop builds.
            if has_off_axis_vertex(f):
                assert len(built) == 0
                shortcut += 1
            else:
                assert len(built) == powers >= 1
    assert 0 < shortcut < 2 * len(seeds)


def test_conjecture_case_rechecks_the_generator_order(monkeypatch):
    import polyharm.theorems as theorems

    # q is drawn from 2..4, so an order-6 f always breaks the contract.
    monkeypatch.setattr(theorems, "gen_strict_q_harmonic", lambda seed, q, d: Z**5 * ZBAR**5)
    case_seed = spawn(7, 0)
    rng = SplitMix64(case_seed)
    rng.below(len(DEFAULT_L_VALUES))
    q = rng.between(2, 4)
    assert _run_case(lambda rng: _conjecture_case(rng, DEFAULT_L_VALUES), case_seed) == (
        f"case_seed={case_seed} f=z^5*zbar^5",
        f"generator order {q}",
        "6",
    )


def test_replay_case_gives_the_suites_first_failure(monkeypatch):
    import polyharm.theorems as theorems

    assert replay_case("prop21", spawn(0, 0)) is None
    monkeypatch.setattr(theorems, "find_witness_pre", lambda f, q, l: WitnessResult(COMPLIANT, None, None, l, ""))
    report = run_suite("thm2_nec", 0, 20)
    context, _, _ = report.first_failure
    case_seed = int(context.split(" ", 1)[0].removeprefix("case_seed="))
    assert replay_case("thm2_nec", case_seed) == report.first_failure

    def inconsistent(f, q, l):
        raise theorems.InternalInconsistency("search exhausted")

    monkeypatch.setattr(theorems, "find_witness_pre", inconsistent)
    report = run_suite("thm2_nec", 0, 1)
    assert replay_case("thm2_nec", spawn(0, 0)) == report.first_failure == (
        f"case_seed={spawn(0, 0)}",
        "witness search must succeed",
        "InternalInconsistency: search exhausted",
    )
    with pytest.raises(UnknownSuite):
        replay_case("nope", 1)
