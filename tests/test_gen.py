import hashlib
from itertools import count

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from polyharm import gen, theorems
from polyharm.classify import classify
from polyharm.gen import (
    _GAMMA,
    _MASK,
    COEFF_LIMIT,
    SplitMix64,
    _mix,
    gen_analytic,
    gen_bipoly,
    gen_harmonic,
    gen_strict_q_harmonic,
    spawn,
)
from polyharm.wirtinger import polyharmonic_order


def test_same_seed_same_output():
    for seed in (0, 1, 2**63, 12345):
        assert gen_analytic(seed, 3) == gen_analytic(seed, 3)
        assert gen_harmonic(seed, 4) == gen_harmonic(seed, 4)
        assert gen_strict_q_harmonic(seed, 3, 2) == gen_strict_q_harmonic(seed, 3, 2)
        assert gen_bipoly(seed, 5) == gen_bipoly(seed, 5)


def test_stream_is_pinned():
    # Frozen first draws so a silent generator change cannot slip through.
    rng = SplitMix64(42)
    assert [rng.below(1000) for _ in range(4)] == [413, 291, 858, 764]


def test_spawn_varies_with_index():
    seeds = {spawn(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert spawn(7, 3) == spawn(7, 3)


def test_gen_analytic_contract():
    for index in range(100):
        f = gen_analytic(spawn(11, index), 3)
        rep = classify(f)
        assert rep.is_analytic
        assert f.deg_z <= 3
        assert not f.is_zero


def test_gen_analytic_degree_zero_is_nonzero_constant():
    f = gen_analytic(1, 0)
    assert set(f.terms) == {(0, 0)}


def test_gen_analytic_exact_degree():
    for index in range(50):
        f = gen_analytic(spawn(13, index), 4, exact_degree=True)
        assert f.deg_z == 4


def test_gen_harmonic_contract():
    for index in range(100):
        f = gen_harmonic(spawn(17, index), 4)
        assert polyharmonic_order(f) <= 1


def test_gen_harmonic_both_parts_nonconstant():
    for index in range(50):
        f = gen_harmonic(spawn(19, index), 4, both_parts_nonconstant=True)
        assert f.deg_z >= 1 and f.deg_zbar >= 1
        rep = classify(f)
        assert rep.is_harmonic and not rep.is_analytic and not rep.is_antianalytic


@given(seed=st.integers(-(2**70), 2**70), max_degree=st.integers(0, 4), nonzero=st.booleans())
@example(seed=0, max_degree=3, nonzero=False)
@example(seed=2**64 - 1, max_degree=0, nonzero=True)
def test_gen_harmonic_part_seeds_are_the_first_two_draws(seed, max_degree, nonzero):
    seeds = []
    draws = gen._analytic_draws

    def recording(part_seed, *args, **kwargs):
        seeds.append(part_seed)
        return draws(part_seed, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen, "_analytic_draws", recording)
        gen_harmonic(seed, max_degree, nonzero=nonzero)
    rng = SplitMix64(seed)
    assert seeds == [rng.next_u64(), rng.next_u64()]


_items = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.integers(-16, 16), st.integers(-16, 16), st.integers(1, 256)),
    ),
    min_size=1,
    max_size=4,
)


@given(
    seed=st.integers(-(2**70), 2**70),
    max_degree=st.integers(0, 4),
    shift=st.integers(0, 5),
    start=_items,
    exact_degree=st.booleans(),
)
@example(seed=0, max_degree=0, shift=5, start=[((0, 0), (1, 0, 1))], exact_degree=False)
def test_draws_append_shifted_items_after_what_the_list_held(seed, max_degree, shift, start, exact_degree):
    # Appending to out at shift s gives the unshifted items, in order, with
    # each key moved by (s, s), after the items out already held.
    def shifted(items):
        return [((i + shift, j + shift), c) for (i, j), c in items]

    calls = [
        (gen._harmonic_draws, (seed, max_degree)),
        (gen._analytic_draws, (seed, max_degree, exact_degree, False)),
        (gen._analytic_draws, (seed, max_degree, exact_degree, True)),
    ]
    for draws, args in calls:
        alone = draws(*args)
        out = list(start)
        assert draws(*args, shift, out) is out
        assert out == start + shifted(alone)


def test_gen_strict_q_harmonic_contract():
    for index in range(60):
        rng = SplitMix64(spawn(23, index))
        q = rng.between(1, 5)
        f = gen_strict_q_harmonic(rng.next_u64(), q, 2)
        assert polyharmonic_order(f) == q


def test_gen_strict_q_harmonic_q1_is_nonzero_harmonic():
    f = gen_strict_q_harmonic(5, 1, 2)
    assert polyharmonic_order(f) == 1 and not f.is_zero


def test_gen_strict_q_harmonic_degree_zero_components():
    f = gen_strict_q_harmonic(5, 2, 0)
    assert polyharmonic_order(f) == 2
    assert set(f.terms) <= {(0, 0), (1, 1)}


def test_coefficient_bounds():
    for index in range(60):
        f = gen_analytic(spawn(29, index), 5)
        for c in f.terms.values():
            for part in (c.re, c.im):
                assert abs(part.numerator) <= COEFF_LIMIT
                assert part.denominator <= COEFF_LIMIT


# --- pinned outputs ------------------------------------------------------------
# SHA-256 digests of the generators' outputs and of the raw draw streams,
# recorded before the draws were inlined; the max_degree 1 and per-suite
# digests, before each analytic part was drawn in one frame.  Any change to
# a draw, to its order or to the normal form of a generated mapping changes
# a digest.


def _poly_digest(polys) -> str:
    h = hashlib.sha256()
    for f in polys:
        h.update(repr((sorted(f.numerators.items()), f.denominator)).encode())
    return h.hexdigest()


_SEEDS = [spawn(2024, index) for index in range(300)]

_GENERATORS = {
    "bipoly": lambda s: gen_bipoly(s, 5),
    "analytic": lambda s: gen_analytic(s, 4),
    "analytic_exact": lambda s: gen_analytic(s, 4, exact_degree=True),
    "harmonic": lambda s: gen_harmonic(s, 4),
    "harmonic_both": lambda s: gen_harmonic(s, 4, both_parts_nonconstant=True),
    "harmonic_nonzero": lambda s: gen_harmonic(s, 0, nonzero=True),
    "strict_q1": lambda s: gen_strict_q_harmonic(s, 1, 2),
    "strict_q2": lambda s: gen_strict_q_harmonic(s, 2, 2),
    "strict_q3": lambda s: gen_strict_q_harmonic(s, 3, 2),
    "strict_q4": lambda s: gen_strict_q_harmonic(s, 4, 2),
    # The hunt draws max_degree from 1 to 2.
    "analytic_deg1": lambda s: gen_analytic(s, 1),
    "harmonic_deg1": lambda s: gen_harmonic(s, 1),
    "strict_q2_deg1": lambda s: gen_strict_q_harmonic(s, 2, 1),
    "strict_q3_deg1": lambda s: gen_strict_q_harmonic(s, 3, 1),
    "strict_q4_deg1": lambda s: gen_strict_q_harmonic(s, 4, 1),
}

_GENERATOR_DIGESTS = {
    "analytic": "a7b950f0704da4d7b88acff98b5a3cb35321a3fdde25b82457398350055b2161",
    "analytic_exact": "ab3f4343a7d46a88c9756dfd9da9bef8998ce87391314d5523deb8fb0891a7ee",
    "bipoly": "6a34cf9f68ffe35f58c9751fa4a1f97b1ad3c1b760b229331161877981618bb5",
    "harmonic": "19f2149d86eec5423ff4bed2996edaaf85efabc674277538210640a8e679f474",
    "harmonic_both": "960d23d1ecc922cd20649a312da1eddebd7d1159ce6c8f568ff45744248ef91d",
    "harmonic_nonzero": "eb068648e39ffa52469babe32d98d36c642a0ef48eec55ba999931f4b70e4a6c",
    "strict_q1": "7f4e2b82e5fc066da6bac2edae7ec284feb037d45888a00f24e3309e8c08d3dd",
    "strict_q2": "58dd634cf1ac1f7df86ea7bd6c876137a0ea1d995f79cb246fcc80ec22cd6f7b",
    "strict_q3": "0a5d1fa12dd86d8168c87c7965cdb594d2a09446c374589dadfd1283c27998bd",
    "strict_q4": "610c0a6068f095f7223d19dfea4115b6616ae9d3760bf1f5bcf110e230ccd64b",
    "analytic_deg1": "ba16d87369bb1543893b4e584982e3c138d46fd1065ab6b478c7a75c6bd1e001",
    "harmonic_deg1": "099cfa881afe1d373005be167deaa9a86447cd6f39555ae55cf62febf1157740",
    "strict_q2_deg1": "ce9c7a559d594758136db1a842f33eb470401b9ef1d71cf887abdfe98991f550",
    "strict_q3_deg1": "87226e27a5064fa19b814c8fa5277b5795b1866426da9c3edd912f276163fa39",
    "strict_q4_deg1": "694c798e5e7bba0163ed9b1c34dc958fae3c3c1c4c924ebcbecb5b45efc824b7",
}


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_generator_outputs_are_pinned(name):
    assert _poly_digest(map(_GENERATORS[name], _SEEDS)) == _GENERATOR_DIGESTS[name]


_SUITE_DIGESTS = {
    "conjecture_search": "55f92b06320aef91fda2c1e9ae8815cb31bc83e86f10b2fdc5f5eea07e9d9163",
    "prop21": "fd1a75ca7a3aa624097acbbf146d77be6278fb22f0add570ef8b37d0e8e940c0",
    "prop22": "84a7b1075ae0d4e343f164f4a5aa648e32d635c73cbbc7e7de9b407e1a7c21ab",
    "thm1_nec": "fefbdcd1b9d8a7640f3dfe06a450a29c1883a192bad05681cd4db3393411288b",
    "thm1_suff": "87e75b063143c7c91035782491f94f17462c92d41cd4ddf384b502c64cc367b9",
    "thm2_nec": "497317abb5edcfaf296fa1d998958820a1a29aec9282389c46b6e45638155b10",
    "thm2_suff": "182832dcb25d46b71a24724db4ac05484048f9fa1a38c5d76b057b0ce9fd9727",
    "thm3": "89764694fe84077b019f4283e3ef3bfb81bee208a1326601df3975d7097e09d6",
}


@pytest.mark.parametrize("name", theorems.SUITE_NAMES)
def test_suite_mappings_are_pinned(name, monkeypatch):
    # Every mapping a suite generates, in draw order, through the gen_*
    # names theorems imports.
    generated = []

    def recording(gen):
        def wrapper(*args, **kwargs):
            f = gen(*args, **kwargs)
            generated.append(f)
            return f

        return wrapper

    for gen_name in ("gen_analytic", "gen_bipoly", "gen_harmonic", "gen_strict_q_harmonic"):
        monkeypatch.setattr(theorems, gen_name, recording(getattr(theorems, gen_name)))
    report = theorems.run_suite(name, 5, 40)
    assert report.failures == 0
    assert generated
    assert _poly_digest(generated) == _SUITE_DIGESTS[name]


def _stream(seed: int) -> list:
    rng = SplitMix64(seed)
    out = [rng.next_u64() for _ in range(8)]
    for lo, hi in ((0, 0), (0, 1), (-16, 16), (1, 16), (0, 2**64), (-(2**70), 3)):
        out += [rng.between(lo, hi) for _ in range(8)]
    for num, den in ((1, 2), (3, 4), (5, 8), (0, 3), (7, 7)):
        out += [rng.chance(num, den) for _ in range(8)]
    for limit, nonzero in ((16, False), (16, True), (2, True), (1, False)):
        out += [rng.coeff_parts(limit, nonzero) for _ in range(8)]
    out += [rng.below(n) for n in (1, 2, 3, 1000, 2**64 + 1)]
    out.append(rng.unit())
    return out


_STREAM_DIGEST = "32bf0edaaa113e2f50ef1f7d88c93d28f58a8fa3e5e64af50ad872c51dd1800a"


def test_draw_streams_are_pinned():
    h = hashlib.sha256()
    for seed in (0, 1, 42, 2**64 - 1, 2**64 + 5, -3) + tuple(_SEEDS[:20]):
        h.update(repr(_stream(seed)).encode())
    assert h.hexdigest() == _STREAM_DIGEST


@pytest.mark.parametrize("gen", [gen_bipoly, gen_analytic, gen_harmonic])
def test_negative_max_degree_is_rejected(gen):
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        gen(1, -1)


_EMPTY_RANGES = {
    "coeff_parts(-3)": (lambda rng: rng.coeff_parts(-3), "limit must be positive"),
    "coeff_parts(0)": (lambda rng: rng.coeff_parts(0), "limit must be positive"),
    "below(0)": (lambda rng: rng.below(0), "n must be positive"),
    "below(-2)": (lambda rng: rng.below(-2), "n must be positive"),
    "between(3, 1)": (lambda rng: rng.between(3, 1), "hi must be at least lo"),
    "between(3, 2)": (lambda rng: rng.between(3, 2), "hi must be at least lo"),
    "chance(1, 0)": (lambda rng: rng.chance(1, 0), "den must be positive"),
}


@pytest.mark.parametrize("name", _EMPTY_RANGES)
def test_empty_draw_ranges_are_rejected(name):
    draw, message = _EMPTY_RANGES[name]
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=message):
        draw(rng)
    # The stream did not move.
    assert rng.next_u64() == SplitMix64(1).next_u64()


# --- the draw methods against _mix alone ----------------------------------------
# The k-th draw of SplitMix64(seed), k = 1, 2, ..., is _mix((seed + k*_GAMMA) & _MASK).
# Each method is restated on that stream, and after every call the next raw
# draws of both must agree, so a method that takes one draw too many or too
# few is caught too.


def _mix_draws(seed: int):
    return (_mix((seed + k * _GAMMA) & _MASK) for k in count(1))


def _reference_coeff_parts(draws, limit: int, nonzero: bool) -> tuple[int, int, int]:
    while True:
        re = next(draws) % (2 * limit + 1) - limit
        den = next(draws) % limit + 1
        im, im_den = 0, 1
        if next(draws) % 2 == 0:  # chance(1, 2): an imaginary part is drawn
            im = next(draws) % (2 * limit + 1) - limit
            im_den = next(draws) % limit + 1
        if re or im or not nonzero:
            return re * im_den, im * den, den * im_den


_REFERENCE = {
    "below": lambda draws, n: next(draws) % n,
    "between": lambda draws, lo, hi: lo + next(draws) % (hi - lo + 1),
    "chance": lambda draws, num, den: next(draws) % den < num,
    "unit": lambda draws: next(draws) / 2**64,
    "coeff_parts": _reference_coeff_parts,
}

_any_seeds = st.integers(-(2**70), 2**70)

_calls = st.one_of(
    st.tuples(st.just("below"), st.integers(1, 2**70)),
    # Negative lo, and ranges past 2^64.
    st.builds(lambda lo, width: ("between", lo, lo + width), st.integers(-(2**70), 2**70), st.integers(0, 2**70)),
    # num <= 0 is never true and num >= den always.
    st.tuples(st.just("chance"), st.integers(-4, 20), st.integers(1, 16)),
    st.tuples(st.just("unit")),
    st.tuples(st.just("coeff_parts"), st.integers(1, 40), st.booleans()),
)


@given(seed=_any_seeds, calls=st.lists(_calls, max_size=12))
@example(seed=0, calls=[("between", -3, 3), ("between", 0, 2**64), ("chance", 0, 2), ("chance", 2, 2)])
def test_draw_methods_match_the_mix_reference(seed, calls):
    rng, draws = SplitMix64(seed), _mix_draws(seed)
    for name, *args in calls:
        assert getattr(rng, name)(*args) == _REFERENCE[name](draws, *args), (name, args)
        assert rng.next_u64() == next(draws)


@given(seed=_any_seeds, limit=st.integers(1, 40), nonzero=st.booleans())
@example(seed=0, limit=1, nonzero=True)  # a zero value, redrawn, in about 2 of 9 calls
@example(seed=0, limit=40, nonzero=False)
def test_coeff_parts_matches_the_mix_reference(seed, limit, nonzero):
    rng, draws = SplitMix64(seed), _mix_draws(seed)
    for _ in range(64):
        assert rng.coeff_parts(limit, nonzero) == _reference_coeff_parts(draws, limit, nonzero)
        assert rng.next_u64() == next(draws)
