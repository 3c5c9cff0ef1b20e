"""The benchmark's ops replayed in-process at the recorded seed.

One cycle of each workload in bench/workloads.py runs under bench/tracing.py's
tracer, as a traced benchmark run does. Every op must pass the workload's own
check and match its output digest in bench/golden.json, so a change that
breaks the benchmark's ops, or a library name the tracer wraps, fails here.
"""

import json
import os
import sys

import pytest

import ckptsched

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

# ops replayed per workload: one cycle of each op mix (two of verify_small's)
OPS = {"plan_large": 9, "verify_small": 36, "simulate": 21, "cli": 13}


def test_every_workload_is_replayed():
    assert set(OPS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_bench_ops_match_the_golden_digests(name, tmp_path):
    golden = GOLDEN["digests"][name]
    wl = workloads.WORKLOADS[name](ckptsched, GOLDEN["seed"], str(tmp_path), True)
    tracer = tracing.Tracer()
    try:
        tracer.install(ckptsched)
        for k in range(OPS[name]):
            inp = wl.make_input(k)
            rec = wl.record(inp, wl.run(inp))
            assert wl.check(rec) is None, (k, wl.check(rec))
            assert rec["digest"] == golden[k], k
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["trace.spans"][0] > 0
