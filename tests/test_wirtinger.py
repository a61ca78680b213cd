import time
from fractions import Fraction
from operator import itemgetter

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from polyharm.bipoly import BiPoly
from polyharm.errors import NonHarmonicComponent
from polyharm.bipoly import mul
from polyharm.classify import classify
from polyharm.gen import gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from polyharm.wirtinger import (
    _newton_vertices,
    almansi_decompose,
    almansi_recompose,
    d_dz,
    d_dzbar,
    has_off_axis_vertex,
    laplacian,
    newton_certificate,
    polyharmonic_order,
)
from newton_oracle import certified_points, certified_start, newton_vertices
from strategies import bipoly_any, bipolys, gr_mul

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


def order_by_iteration(f: BiPoly, cap: int = 64) -> int:
    """Independent oracle: apply the Laplacian until the result vanishes."""
    count = 0
    current = f
    while not current.is_zero:
        current = laplacian(current, 1)
        count += 1
        assert count <= cap, "runaway Laplacian iteration"
    return count


# --- derivatives -------------------------------------------------------------


def test_d_dz_power_rule():
    assert d_dz(Z**2 * ZBAR**3) == Z * ZBAR**3 * 2


def test_d_dz_kills_antianalytic():
    assert d_dz(ZBAR**5).is_zero


def test_d_dz_linearity():
    assert d_dz(Z * ZBAR + Z**3) == ZBAR + Z**2 * 3


def test_d_dzbar_power_rule():
    assert d_dzbar(Z**2 * ZBAR**3) == Z**2 * ZBAR**2 * 3


def test_d_dzbar_kills_analytic():
    assert d_dzbar(Z**4).is_zero


def test_conjugation_symmetry_of_derivatives():
    f = Z**2 * ZBAR
    assert d_dz(f.conjugate()).conjugate() == d_dzbar(f) == Z**2


@given(bipoly_any)
def test_mixed_partials_commute(f):
    assert d_dz(d_dzbar(f)) == d_dzbar(d_dz(f))


# --- laplacian ----------------------------------------------------------------


def test_laplacian_of_modulus_squared():
    assert laplacian(Z * ZBAR) == BiPoly.constant(4)


def test_laplacian_monomial_law():
    assert laplacian(Z**2 * ZBAR**3) == Z * ZBAR**2 * 24


def test_laplacian_iterated():
    # Delta(24 z zbar^2) = 24 * 4 * 1 * 2 * zbar, iterated by hand
    assert laplacian(Z**2 * ZBAR**3, 2) == ZBAR * 192


def test_laplacian_stops_once_zero():
    start = time.perf_counter()
    assert laplacian(Z * ZBAR, 10**9).is_zero
    assert laplacian(BiPoly.zero(), 10**9).is_zero
    assert time.perf_counter() - start < 1.0


def test_laplacian_times_validation():
    with pytest.raises(ValueError):
        laplacian(Z, 0)
    with pytest.raises(ValueError):
        laplacian(Z, -1)


@given(bipoly_any)
def test_laplacian_matches_composed_derivatives(f):
    assert laplacian(f, 1) == d_dz(d_dzbar(f)) * 4


# --- polyharmonic order --------------------------------------------------------


def test_order_examples():
    assert polyharmonic_order(Z**5) == 1
    assert polyharmonic_order(Z * ZBAR) == 2
    assert polyharmonic_order(Z**2 * ZBAR**3 + Z) == 3
    assert polyharmonic_order(BiPoly.zero()) == 0


def test_order_third_power_needed():
    f = Z**2 * ZBAR**3 + Z
    assert laplacian(f, 2) == ZBAR * 192
    assert laplacian(f, 3).is_zero


@given(bipoly_any)
def test_order_matches_iteration_oracle(f):
    assert polyharmonic_order(f) == order_by_iteration(f)


def test_order_matches_iteration_oracle_seeded():
    for index in range(200):
        f = gen_bipoly(spawn(99, index), 8)
        assert polyharmonic_order(f) == order_by_iteration(f)


@given(bipoly_any, bipoly_any)
def test_order_of_sum_with_distinct_orders(f, g):
    if polyharmonic_order(f) != polyharmonic_order(g):
        assert polyharmonic_order(f + g) == max(
            polyharmonic_order(f), polyharmonic_order(g)
        )


@given(bipoly_any)
def test_conjugation_preserves_order(f):
    assert polyharmonic_order(f.conjugate()) == polyharmonic_order(f)


# --- Newton polygon ------------------------------------------------------------


def test_off_axis_vertex_examples():
    cases = [
        (BiPoly.zero(), False),
        (BiPoly.constant(5), False),
        (Z**2 * ZBAR**3 * 7, True),  # a single point
        (Z**3 * ZBAR + Z**2 * ZBAR**2, True),  # two points
        (Z**3 + Z**2 * ZBAR + Z * ZBAR**2 + ZBAR**3, False),  # collinear; the inner points are not vertices
        (Z * ZBAR + Z**2 * ZBAR**2 + Z**3 * ZBAR**3, True),  # collinear on the diagonal
        (Z**2 + Z * ZBAR + ZBAR**2, False),  # (1, 1) lies on the edge from (2, 0) to (0, 2)
        (Z**2 + Z * ZBAR * 3 + ZBAR**2 + 1, False),  # (1, 1) inside the triangle
        (1 + Z**2 + ZBAR**2 + Z**2 * ZBAR**2 + Z * ZBAR, True),  # a square with an inner point
        (Z**4 + Z * ZBAR + ZBAR**4, True),  # (1, 1) is a vertex below the edge
    ]
    for f, off_axis in cases:
        assert has_off_axis_vertex(f) is off_axis, str(f)
        assert has_off_axis_vertex(f.conjugate()) is off_axis


@given(bipoly_any)
@example(Z**2 + Z * ZBAR + ZBAR**2)
@example(Z + Z**2 * ZBAR + Z**3 * ZBAR**2 + Z**4 * ZBAR**3)
def test_off_axis_vertex_matches_the_vertex_oracle(f):
    assert has_off_axis_vertex(f) == any(min(v) >= 1 for v in newton_vertices(f))


_points = st.tuples(st.integers(0, 4), st.integers(0, 4))

# Supports in [0, 4]^2 that stress the diagonal-extreme check: any points,
# points on one line (so some lie inside an edge), points on the axes
# only, and several points tied on the top diagonal i + j = s.
_supports = st.one_of(
    st.sets(_points, min_size=1, max_size=6),
    st.builds(
        lambda start, step, n: {(start[0] + k * step[0], start[1] + k * step[1]) for k in range(n)},
        _points,
        st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (1, 2)]),
        st.integers(1, 5),
    ).filter(lambda support: all(0 <= x <= 4 and 0 <= y <= 4 for x, y in support)),
    st.sets(
        st.one_of(st.tuples(st.integers(0, 4), st.just(0)), st.tuples(st.just(0), st.integers(0, 4))),
        min_size=1,
        max_size=6,
    ),
    st.builds(
        lambda s, tied, rest: {(x, s - x) for x in tied if x <= s} | {p for p in rest if sum(p) < s},
        st.integers(1, 4),
        st.sets(st.integers(0, 4), min_size=2, max_size=4),
        st.sets(_points, max_size=4),
    ).filter(bool),
)


@given(_supports)
@example({(2, 0), (1, 1), (0, 2)})  # z^2 + z*zbar + zbar^2: (1, 1) lies inside the top edge; mu = 0
@example({(4, 0), (1, 1), (0, 4)})  # the extreme point is on an axis, but (1, 1) is a vertex
@example({(2, 3)})  # a single point
@example({(0, 3), (0, 1), (2, 0)})  # axis-only
@example({(1, 3), (2, 2), (3, 1), (0, 0)})  # ties on the top diagonal
def test_the_diagonal_extreme_point_is_a_newton_vertex(support):
    f = BiPoly({key: 1 for key in support})
    top = max(support, key=lambda key: (key[0] + key[1], key[0]))
    assert top in _newton_vertices(f)
    assert top in newton_vertices(f)
    # has_off_axis_vertex's two reads: the largest in (i, j) and in (j, i).
    for extreme in (max(support), max(support, key=itemgetter(1, 0))):
        assert extreme in _newton_vertices(f)
        assert extreme in newton_vertices(f)
    # The hunt's vertex check, which reads top before any hull is built.
    assert has_off_axis_vertex(f) == any(min(v) >= 1 for v in newton_vertices(f))


@given(st.integers(0, 2**64 - 1))
def test_powers_keep_the_newton_vertices(seed):
    # The fact the counterexample hunt relies on: the coefficient of f^m at
    # m*v is c_v^m for every vertex v, so order(f^m) >= 1 + m*mu.
    f = gen_bipoly(seed, 4)
    vertices = newton_vertices(f)
    mu = max(map(min, vertices), default=0)
    power = f
    for m in range(1, 5):
        if m > 1:
            power = mul(power, f)
        for i, j in vertices:
            assert power.coefficient(m * i, m * j) == gr_mul(*[f.coefficient(i, j)] * m)
        assert polyharmonic_order(power) >= 1 + m * mu


def test_newton_certificate_examples():
    none_at_every_l = [
        BiPoly.zero(),
        BiPoly.constant(5),
        Z + ZBAR,  # the binomial edge puts (k, m - k) into f^m: min(i, j) >= l first at m = 2l
        Z**2 + Z * ZBAR + ZBAR**2,  # (1, 1) inside the one edge: only the ends count
    ]
    cases = [(f, l, None) for f in none_at_every_l for l in range(1, 5)] + [
        (Z**2 + ZBAR**2, 1, None),
        (Z**2 + ZBAR**2, 2, 2),
        (Z**2 + ZBAR**2, 3, 4),
        (Z**2 + ZBAR, 2, 3),
        (Z**2 + ZBAR, 3, 5),  # (2(m - k), k): min(i, j) >= 3 first at m = 5
        (Z * ZBAR + Z, 3, 3),  # the vertex (1, 1) alone
        (Z**2 * ZBAR**3 * 7, 3, 2),  # a single point
        (Z**4 + Z * ZBAR + ZBAR**4, 1, 1),  # the vertex (1, 1) at m = 1 ...
        (Z**4 + Z * ZBAR + ZBAR**4, 3, 2),  # ... but at l = 3 the edge from (4, 0) to (0, 4), before the vertex at m = 3
        (Z**4 + Z * ZBAR + ZBAR**4, 5, 4),
    ]
    for f, l, m in cases:
        assert newton_certificate(f, l) == m, (str(f), l)
        assert newton_certificate(f.conjugate(), l) == m


@given(
    st.sampled_from(["bipoly", "harmonic", "strict_q"]),
    st.integers(0, 2**64 - 1),
    st.integers(2, 4),
)
def test_newton_certificate_is_certified_by_the_powers(kind, seed, q):
    # The points the certificate reads, found from the brute-force oracle:
    # m*v with c_v^m for each vertex, and (m-k)*v1 + k*v2 with
    # binom(m, k)*c1^(m-k)*c2^k for each edge with no other support point.
    if kind == "bipoly":
        f = gen_bipoly(seed, 4)
    elif kind == "harmonic":
        f = gen_harmonic(seed, 3, both_parts_nonconstant=True)
    else:
        f = gen_strict_q_harmonic(seed, q, 2)
    powers = [BiPoly.one(), f]
    for m in range(2, 5):
        powers.append(mul(powers[-1], f))
    for m in range(1, 5):
        for (i, j), c in certified_points(f, m).items():
            assert powers[m].coefficient(i, j) == c
    # At l <= 2 a certified m is at most 3, within the powers built.
    for l in (1, 2):
        m = newton_certificate(f, l)
        assert m == certified_start(f, l)
        if m is not None:
            assert polyharmonic_order(powers[m]) > l


# --- Almansi ------------------------------------------------------------------


def test_decompose_examples():
    form = almansi_decompose(Z * ZBAR**2)
    assert [str(g) for g in form] == ["0", "zbar"]

    form = almansi_decompose(Z**2 * ZBAR**3 + Z)
    assert [str(g) for g in form] == ["z", "0", "zbar"]

    form = almansi_decompose(Z * ZBAR + 7)
    assert [str(g) for g in form] == ["7", "1"]


def test_decompose_zero_mapping():
    assert len(almansi_decompose(BiPoly.zero())) == 0


def test_recompose_examples():
    assert almansi_recompose((Z,)) == Z
    assert almansi_recompose((BiPoly.zero(), ZBAR)) == Z * ZBAR**2


def test_recompose_rejects_non_harmonic_component():
    with pytest.raises(NonHarmonicComponent):
        almansi_recompose((Z * ZBAR,))


def test_round_trip_hand_case():
    f = Z**2 * ZBAR**2 * 3 + ZBAR - 5
    assert almansi_recompose(almansi_decompose(f)) == f


@given(bipoly_any)
def test_round_trip(f):
    form = almansi_decompose(f)
    assert almansi_recompose(form) == f
    assert len(form) == polyharmonic_order(f)
    for g in form:
        assert classify(g).is_harmonic
    if len(form):
        assert not form[-1].is_zero


@given(bipolys(max_exp=8, max_terms=6), st.integers(1, 6))
@example(Z**5 * ZBAR**6 * 3 - ZBAR**2 * Z**4, 4)
@example(Z**6 * ZBAR**6 * Fraction(1, 2) + Z**3 * ZBAR**5, 6)
def test_laplacian_matches_iterated_single_laplacians(f, times):
    expected = f
    for _ in range(times):
        expected = laplacian(expected, 1)
    assert laplacian(f, times) == expected
