#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 10 [--workloads suites hunt cli]
                               [--trace 0|1] [--out perfbench/baseline.json]

Runs one process at a time, cycling through the workloads for each seed.
For every metric it prints the median and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the bound in BENCHMARK.json.  --out writes the raw values and the
summary together with the Python version, the commit and the CPU count.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=["suites", "hunt", "cli"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 10)

    values = {w: {} for w in args.workloads}
    clean = True
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                clean = False
                continue
            result = json.loads(lines[-1])
            clean &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} in {elapsed:.1f} s", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("raw."):
                    name, value = line.split()[:2]
                    values[workload].setdefault(name, []).append(float(value))

    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            s = summarise(vals)
            summary[workload][name] = s
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = "" if bound is None else f"  bound {bound}  bound/3 {bound / 3:.4f}"
            print(f"{workload:<7} {name:<36} median {s['median']:<14.6g} spread {spread}{limit}")
            print("        values " + " ".join(f"{v:.6g}" for v in vals))

    if args.out:
        record = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": seconds,
            "trace": args.trace,
            "seeds": args.seeds,
            "summary": summary,
            "values": values,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
