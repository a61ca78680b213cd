"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on a clean pass; on failure the detail also lands in the assertion
message.  Everything is seeded, so a red line reproduces from the printed
case seed.
"""

import time

from polyharm.bipoly import BiPoly, canonical_print, mul
from polyharm.classify import classify
from polyharm.errors import ParseError
from polyharm.gen import SplitMix64, gen_analytic, gen_bipoly, spawn
from polyharm.numeric import (
    exp_identity_check,
    exp_within_tolerance,
    fd_laplacian,
    fd_within_tolerance,
    sample_points,
)
from polyharm.parser import parse
from polyharm.theorems import run_conjecture_search, run_suite, separable_laplacian
from polyharm.wirtinger import (
    almansi_decompose,
    almansi_recompose,
    laplacian,
    polyharmonic_order,
)

SEED = 20260808


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _order_by_iteration(f: BiPoly, cap: int = 64) -> int:
    count = 0
    current = f
    while not current.is_zero:
        current = laplacian(current, 1)
        count += 1
        assert count <= cap
    return count


def test_criterion_01_order_oracle_equivalence():
    start = time.perf_counter()
    failures = 0
    for index in range(1000):
        f = gen_bipoly(spawn(SEED, index), 8)
        if polyharmonic_order(f) != _order_by_iteration(f):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "order oracle equivalence on 1000 mappings",
        failures == 0 and elapsed < 10.0,
        f"failures={failures}, elapsed={elapsed:.2f}s",
    )


def test_criterion_02_almansi_round_trip():
    failures = 0
    for index in range(1000):
        f = gen_bipoly(spawn(SEED + 1, index), 8)
        form = almansi_decompose(f)
        ok = (
            almansi_recompose(form) == f
            and all(classify(g).is_harmonic for g in form)
            and len(form) == polyharmonic_order(f)
        )
        if not ok:
            failures += 1
    _report(2, "Almansi round trip on 1000 mappings", failures == 0, f"failures={failures}")


def test_criterion_03_post_composition_sufficiency():
    report = run_suite("thm1_suff", SEED + 2, 200)
    _report(
        3,
        "post-composition sufficiency (harmonic/affine/degree-bounded), 200 cases each",
        report.failures == 0,
        f"failures={report.failures}, first={report.first_failure}",
    )


def test_criterion_04_post_composition_witnesses():
    report = run_suite("thm1_nec", SEED + 3, 200)
    _report(
        4,
        "post-composition necessity witnesses, 200 cases per branch",
        report.failures == 0,
        f"failures={report.failures}, first={report.first_failure}",
    )


def test_criterion_05_pre_composition_order_bound():
    report = run_suite("thm2_suff", SEED + 4, 200)
    _report(
        5,
        "pre-composition order bound t(q-1)+1, 200 cases",
        report.failures == 0,
        f"failures={report.failures}, first={report.first_failure}",
    )


def test_criterion_06_separable_laplacian_identity():
    failures = 0
    for index in range(200):
        rng = SplitMix64(spawn(SEED + 5, index))
        h = gen_analytic(rng.next_u64(), rng.between(0, 5))
        g = gen_analytic(rng.next_u64(), rng.between(0, 5))
        l = rng.between(1, 5)
        if separable_laplacian(h, g, l) != laplacian(mul(h, g.conjugate()), l):
            failures += 1
    _report(
        6,
        "separable Laplacian identity on 200 analytic pairs, l <= 5",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_07_obstruction_equivalence():
    report = run_suite("prop22", SEED + 6, 500)
    _report(
        7,
        "obstruction polynomials vanish iff f_z*f_zbar = 0 iff analytic/anti-analytic, 500 cases",
        report.failures == 0,
        f"failures={report.failures}, first={report.first_failure}",
    )


def test_criterion_08_order_of_sum_and_identity_composition():
    report = run_suite("prop21", SEED + 7, 500)
    _report(
        8,
        "order-of-sum law and identity composition, 500 cases",
        report.failures == 0,
        f"failures={report.failures}, first={report.first_failure}",
    )


def test_criterion_09_numeric_cross_checks():
    start = time.perf_counter()
    fd_failures = 0
    for index in range(100):
        f = gen_bipoly(spawn(SEED + 8, index), 6)
        for report in fd_laplacian(f, sample_points(spawn(SEED + 9, index), 5), 1e-4):
            if not fd_within_tolerance(report, 1e-5, 1e-6):
                fd_failures += 1
    # The exponential identity is exact on biharmonic mappings (its
    # derivation needs the fourth mixed derivative to vanish), so the
    # cases draw exponent pairs with min(i, j) <= 1.
    biharmonic_pool = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2)]
    exp_failures = 0
    for index in range(50):
        rng = SplitMix64(spawn(SEED + 10, index))
        terms = {}
        for _ in range(rng.between(2, 4)):
            terms[biharmonic_pool[rng.below(len(biharmonic_pool))]] = rng.coeff(
                limit=2, nonzero=True
            )
        f = BiPoly(terms)
        m = (1 + rng.below(2)) * (1 if rng.chance(1, 2) else -1)
        point = complex(0.35 * (2 * rng.unit() - 1), 0.35 * (2 * rng.unit() - 1))
        [report] = exp_identity_check(f, m, [point], 1e-3)
        if not exp_within_tolerance(report, f, m, 1e-2):
            exp_failures += 1
    elapsed = time.perf_counter() - start
    _report(
        9,
        "finite-difference Laplacian (100x5 points) and exp identity (50 cases)",
        fd_failures == 0 and exp_failures == 0 and elapsed < 5.0,
        f"fd_failures={fd_failures}, exp_failures={exp_failures}, elapsed={elapsed:.2f}s",
    )


MALFORMED_INPUTS = [
    "",
    "z +",
    "2z",
    "z^",
    "z^-1",
    "(z",
    "z)",
    "conj z",
    "abs2(z",
    "1/0",
    "w",
    "z**2",
    "z^2^3",
    "*z",
    "z zbar",
    "conj()",
    "+",
    "1/z",
    "z^(2)",
    "i(z)",
]


def test_criterion_10_parser_round_trip_and_errors():
    round_trip_failures = 0
    for index in range(1000):
        f = gen_bipoly(spawn(SEED + 11, index), 6)
        if parse(canonical_print(f)) != f:
            round_trip_failures += 1
    error_failures = 0
    for text in MALFORMED_INPUTS:
        try:
            parse(text)
        except ParseError as exc:
            if not (0 <= exc.position <= len(text.encode())):
                error_failures += 1
        else:
            error_failures += 1
    _report(
        10,
        "parser round trip on 1000 mappings and 20 curated malformed inputs",
        round_trip_failures == 0 and error_failures == 0 and len(MALFORMED_INPUTS) == 20,
        f"round_trip_failures={round_trip_failures}, error_failures={error_failures}",
    )


def test_criterion_11_conjecture_search():
    report = run_conjecture_search(SEED + 12, 10000, (3, 4))
    _report(
        11,
        "counterexample search, 10^4 cases at l = 3, 4",
        report.failures == 0 and report.cases_run == 10000,
        f"candidates={report.failures}, cases={report.cases_run}, seed={report.seed}"
        + (f", first={report.first_failure}" if report.first_failure else ""),
    )
