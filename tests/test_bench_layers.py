"""The benchmark's traced run still sees every layer it expects.

perfbench/run.py --trace 1 fails when a layer a workload lists in
``expected_layers`` records no calls, or when a traced case returns
something else than its untraced replay.  A change inside polyharm can
trip that: a layer that stops calling a public function, or a helper
reached by a private name that the tracer cannot rebind.  The benchmark
itself is not part of the test suite, so this replays two blocks of each
workload at a fixed seed, untraced and then traced, with the benchmark's
own modules, which it imports and does not change.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Tracer.install imports a layer's module when it gets to it, after it has
# wrapped the layers before it; a module first imported that way keeps the
# wrappers once they are removed.  The benchmark runs one workload per
# process, so import every traced module before the first install here.
for module_name, _ in LAYERS.values():
    importlib.import_module(module_name)

SEED = 4
BLOCKS = 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_replay_records_every_expected_layer(name):
    wl = workloads.build(name, SEED)
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(BLOCKS):
        cases = wl.next_block()
        plain += bench_run.run_cases(cases)
        tracer.install()
        try:
            traced += bench_run.run_cases(cases, tracer, first_id=len(traced))
        finally:
            tracer.uninstall()

    assert bench_run.check(plain + traced) == []

    def outcome(record):
        _, value, error, _ = record
        return error if error is not None else wl.outcome(value)

    assert [outcome(r) for r in traced] == [outcome(r) for r in plain]
    assert tracer.missing == []
    silent = [layer for layer in wl.expected_layers if tracer.calls[layer] == 0]
    assert silent == [], f"layers that recorded no calls on {name}: {silent}"


def test_traced_suites_record_scalar_products_across_seeds():
    # a_m adds its scaled products in one pass and records no scalar
    # product, so on `suites` the bipoly.scale layer is reached only
    # through the c*|z|^(2(q-1)) witness families of _post_candidates:
    # a few calls per block.  One block at each of ten seeds reaches them.
    tracer = Tracer()
    for seed in range(1, 11):
        cases = workloads.build("suites", seed).next_block()
        tracer.install()
        try:
            records = bench_run.run_cases(cases, tracer)
        finally:
            tracer.uninstall()
        assert bench_run.check(records) == []
    assert tracer.missing == []
    assert tracer.calls["bipoly.scale"] > 0
