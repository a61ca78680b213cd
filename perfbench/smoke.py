#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload for one second with tracing off and on, and checks
that each metric in BENCHMARK.json is reported with its unit, that no
output failed its check, that every traced layer records calls on some
workload, that a deliberately wrong expected CLI output is reported as a
failure, and that the benchmark refuses to run without the program's
sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class Smoke(unittest.TestCase):
    def assert_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("fail_ratio 0.0 ratio", proc.stdout)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.assert_result(bench(workload, 0), "end_to_end")
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_per_layer_metrics(self):
        calls = {}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.assert_result(bench(workload, 1), "per_layer")
                for layer in LAYERS:
                    calls[layer] = calls.get(layer, 0) + metrics[f"{layer}.calls"]["value"]
        silent = [layer for layer, n in calls.items() if n == 0]
        self.assertEqual(silent, [], "layers with no calls on any workload")

    def test_every_layer_is_expected_somewhere(self):
        expected = set()
        for cls in (workloads.Suites, workloads.Hunt, workloads.Cli):
            expected.update(cls.expected_layers)
        self.assertEqual(sorted(set(LAYERS) - expected), [])

    def test_wrong_cli_expectation_fails(self):
        wrong = list(workloads.SMALL_CALLS)
        index = next(k for k, call in enumerate(wrong) if call[0][0] == "laplacian")
        wrong[index] = (wrong[index][0], 0, workloads._exact("193*zbar"))
        original = workloads.SMALL_CALLS
        workloads.SMALL_CALLS = tuple(wrong)
        try:
            cli = workloads.build("cli", 7)
        finally:
            workloads.SMALL_CALLS = original
        failures = run.check(run.run_cases(cli.next_block()))
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("193*zbar", failures[0])
        self.assertEqual(run.check(run.run_cases(workloads.build("cli", 7).next_block())), [])

    def test_refuses_without_sources(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("suites", 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
