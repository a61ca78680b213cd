#!/usr/bin/env python3
"""polyharm benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {suites,hunt,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from ./src.
With --trace 0 the run times whole cases for S seconds and reports the
end-to-end metrics.  With --trace 1 it replays a fixed, seed-determined set
of cases twice, untraced and then traced (tracer.py), and reports the
per-layer metrics.  Every output is checked outside the timed calls.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
See README.md for the metrics and how to read a traced run.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median of this many fresh interpreters, after one more
# that also writes the bytecode caches.
SETUP_PROBES = 11
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)

# Time of reference_seconds() on a machine running at nominal speed (a
# 2-vCPU Xeon VM at its usual pace).  Timings are reported at that speed;
# see SpeedProbe.
REFERENCE_NOMINAL_S = 1.5e-3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def reference_seconds() -> float:
    """Time of a fixed piece of exact rational arithmetic, the work of polyharm's scalar layer."""
    a, b, s = Fraction(3, 7), Fraction(5, 11), Fraction(0)
    start = time.perf_counter()
    for _ in range(300):
        s = s * a + b
        s = Fraction(s.numerator % 1000003, s.denominator % 1000003 or 1)
    return time.perf_counter() - start


class SpeedProbe:
    """How much slower than nominal the machine ran around each block of cases.

    On a shared VM the speed of one vCPU drifts by 20-40% over tens of
    seconds, far more than the changes the benchmark must resolve.  The
    reference computation is timed before every block of cases, so it sees
    the same slow and fast periods as the cases.  Each block's times are
    divided by the mean slowdown of the samples within WINDOW blocks of it,
    which removes most of that drift.  The raw figures are printed next to
    the reported ones.
    """

    WINDOW = 5

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        self.samples.append(reference_seconds())

    def slowdown(self) -> float:
        """Mean slowdown over the whole run."""
        return statistics.fmean(self.samples) / REFERENCE_NOMINAL_S

    def local_slowdowns(self) -> list:
        """Slowdown around each sample, a mean over the neighbouring samples."""
        w, samples = self.WINDOW, self.samples
        return [
            statistics.fmean(samples[max(0, i - w): i + w + 1]) / REFERENCE_NOMINAL_S
            for i in range(len(samples))
        ]


def measure_setup(workload: str, seed: int) -> tuple:
    """Median wall time of a fresh interpreter that imports polyharm and builds the inputs."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    probe = SpeedProbe()
    times = []
    for n in range(SETUP_PROBES + 1):
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        if n:
            times.append(elapsed)
    return statistics.median(times), probe.slowdown()


def build(workload: str, seed: int):
    sys.path.insert(0, str(SRC))
    wl = workloads.build(workload, seed)
    where = Path(sys.modules["polyharm"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"polyharm was imported from {where}, not from {SRC}")
    return wl


def run_cases(cases, tracer=None, first_id=0) -> list:
    """Call each case in turn; returns (case, value, error, seconds) records."""
    records = []
    for index, case in enumerate(cases, first_id):
        if tracer is not None:
            tracer.case_id = index
        start = time.perf_counter()
        try:
            value, error = case.call(), None
        except Exception as exc:  # an unexpected exception is a failed case
            value, error = None, f"{type(exc).__name__}: {exc}"
        records.append((case, value, error, time.perf_counter() - start))
    return records


def check(records) -> list:
    """Failure messages for wrong outputs and unexpected exceptions."""
    failures = []
    for case, value, error, _ in records:
        try:
            why = error if error is not None else case.check(value)
        except Exception as exc:  # a check that cannot read the output fails the case
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failures.append(f"{case.label}: {why}")
    return failures


def quantile(values, n: int, k: int) -> float:
    """k-th of the n-quantiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[k - 1]


def timed_run(wl, seconds: float):
    """End-to-end metrics of one closed-loop run with tracing off.

    Outputs are checked block by block and then dropped, so memory grows
    only by the case times; the time spent checking and probing the
    machine's speed is left out of the timed wall time.
    """
    attempted, failures = 0, []
    for _ in range(wl.warmup_blocks):
        records = run_cases(wl.next_block())
        attempted += len(records)
        failures += check(records)
    probe = SpeedProbe()
    blocks = []  # (block wall seconds, case kinds, case times in ms)
    deadline = time.perf_counter() + seconds
    while True:
        probe.sample()
        start = time.perf_counter()
        records = run_cases(wl.next_block())
        wall = time.perf_counter() - start
        attempted += len(records)
        failures += check(records)
        blocks.append((wall, [r[0].kind for r in records], array("d", (r[3] * 1e3 for r in records))))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def summary(scales):
        wall = sum(b[0] / s for b, s in zip(blocks, scales))
        ms = sorted(t / s for b, s in zip(blocks, scales) for t in b[2])
        return {
            "cases_per_s": len(ms) / wall,
            "case_ms_p50": statistics.median(ms),
            "case_ms_p90": quantile(ms, 10, 9),
            "case_ms_p99": quantile(ms, 100, 99),
        }

    raw = summary([1.0] * len(blocks))
    scales = probe.local_slowdowns()
    norm = summary(scales)
    metrics = {
        "cases_per_s": (norm["cases_per_s"], "cases/s"),
        "case_ms_p50": (norm["case_ms_p50"], "ms"),
        "case_ms_p90": (norm["case_ms_p90"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    cases = sum(len(b[2]) for b in blocks)
    notes = [
        f"timed cases {cases} in {len(blocks)} blocks after {attempted - cases} warm-up cases",
        f"slowdown {probe.slowdown()} (reference loop mean {statistics.fmean(probe.samples) * 1e3:.4f} ms, "
        f"nominal {REFERENCE_NOMINAL_S * 1e3} ms)",
        f"case_ms_p99 {norm['case_ms_p99']} ms (n={cases}; not gated: steered by the seed's slowest cases)",
    ]
    notes += [f"raw.{name} {value}" for name, value in raw.items()]
    if wl.name == "cli":
        by_kind = {}
        for (_, kinds, ms), scale in zip(blocks, scales):
            for kind, t in zip(kinds, ms):
                by_kind.setdefault(kind, []).append(t / scale)
        small, large = by_kind["small"], by_kind["large"]
        notes += [
            f"call_ms_p50 {statistics.median(small)} ms (small calls, n={len(small)})",
            f"call_ms_p90 {quantile(small, 10, 9)} ms (small calls, n={len(small)})",
            f"large_call_ms_p50 {statistics.median(large)} ms (large-expression calls, n={len(large)})",
        ]
    return attempted, failures, metrics, notes


def traced_run(wl, seconds: float, seed: int):
    """Per-layer metrics: each block of cases untraced, then traced.

    Alternating block by block lets both runs see the same slow and fast
    periods of the machine, so their difference estimates the overhead.
    """
    records = []
    for _ in range(wl.warmup_blocks):
        records += run_cases(wl.next_block())
    blocks = max(1, round(seconds * wl.trace_blocks_per_s))
    tracer = Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for _ in range(blocks):
        cases = wl.next_block()
        start = time.perf_counter()
        plain += run_cases(cases)
        plain_wall += time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            traced += run_cases(cases, tracer, first_id=len(traced))
            traced_wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
    records += plain + traced

    def outcome(record):
        _, value, error, _ = record
        return error if error is not None else wl.outcome(value)

    failures = check(records)
    failures += [
        f"{p[0].label}: traced outcome differs from untraced"
        for p, t in zip(plain, traced)
        if outcome(p) != outcome(t)
    ]
    failures += [
        f"layer {layer} recorded no calls on {wl.name}; a wrapper was not rebound"
        for layer in wl.expected_layers
        if tracer.calls[layer] == 0
    ]

    metrics = tracer.metrics()
    for suite in workloads.SUITE_MIX:
        metrics[f"theorems.suite.{suite}.s"] = (sum(r[3] for r in plain if r[0].kind == suite), "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write_spans(span_file)

    notes = [
        f"replayed {len(plain)} cases ({blocks} blocks): untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s",
        f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}",
        "calls per layer on this workload:",
    ]
    for layer in LAYERS:
        mark = " (predicted bypass)" if layer in wl.predicted_bypass else ""
        notes.append(f"  {layer:<24} {tracer.calls[layer]}{mark}")
    notes.append(
        "not measured: self time of GaussianRational arithmetic; spans around millions of "
        "scalar operations would swamp the trace, so bipoly.mul.term_products and "
        "bipoly.coeff_bits_max stand in for it"
    )
    notes += [f"not measured: {name} is no longer defined" for name in tracer.missing]
    return len(records), failures, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polyharm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if not (SRC / "polyharm" / "__init__.py").is_file():
            raise BenchError(f"no polyharm sources under {SRC}; run from the root of a source tree")
        if args.trace:
            wl = build(args.workload, args.seed)
            attempted, failures, metrics, notes = traced_run(wl, args.seconds, args.seed)
        else:
            setup_raw, setup_slow = measure_setup(args.workload, args.seed)
            wl = build(args.workload, args.seed)
            attempted, failures, metrics, notes = timed_run(wl, args.seconds)
            metrics = {"setup_s": (setup_raw / setup_slow, "s"), **metrics}
            notes.append(f"raw.setup_s {setup_raw} (slowdown {setup_slow})")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {len(failures) / attempted} ratio ({len(failures)} of {attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
