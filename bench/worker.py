"""One workload in one fresh interpreter; started by run.py, one at a time.

Set-up is everything from interpreter start to the first op: importing
ckptsched and building the workload's inputs. The worker then runs ops as a
single closed-loop client (the next op starts when the previous one ends)
and checks every op's output after the timed loop. It prints one JSON
object as its last line of stdout.

Modes:
  --first K      start at op K, so that one run can be split over several
                 workers, each with its own set-up;
  --trace 1      run each op twice, untraced and traced, and report
                 per-layer numbers and the difference;
  --record N     run ops 0..N-1 of the default seed and store their output
                 digests in golden.json (only when the library is known good).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
GOLDEN_SEED = 0

sys.path.insert(0, SRC)
sys.path.insert(0, BENCH_DIR)

import ckptsched as ck  # noqa: E402

from tracing import Tracer, startup_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(ck.__file__))) != SRC:
    sys.exit(f"ckptsched was imported from {ck.__file__}, not from {SRC}")


def run_op(wl, k: int, inp, corrupt=None) -> tuple[float, dict]:
    """Run op k once; return its latency in s and its record."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}", "digest": None}
    latency = time.perf_counter() - start
    return latency, wl.record(inp, wl.corrupt(out) if k == corrupt else out)


def closed_loop(wl, first=0, seconds=None, count=None, corrupt=None):
    """Run ops first, first+1, ... until ``seconds`` have passed or ``count``
    ops ran. Returns (latencies in s, records, wall time in s).
    """
    latencies, records = [], []
    start = time.perf_counter()
    k = first
    while k - first < count if count is not None else time.perf_counter() - start < seconds:
        latency, rec = run_op(wl, k, wl.make_input(k), corrupt)
        latencies.append(latency)
        records.append(rec)
        k += 1
    return latencies, records, time.perf_counter() - start


def paired_loop(wl, seconds: float, tracer: Tracer, corrupt=None):
    """Run each op twice, untraced and traced, until ``seconds`` have passed.

    The order alternates from op to op. Both runs of an op see nearly the
    same machine state, so the machine's changes of speed cancel in the
    difference. Returns the summed latencies and the records, each keyed by
    whether the run was traced.
    """
    total = {False: 0.0, True: 0.0}
    records: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        inp = wl.make_input(k)
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                tracer.op = k
                tracer.install(ck)
            try:
                latency, rec = run_op(wl, k, inp, corrupt)
            finally:
                if traced:
                    tracer.uninstall()
            total[traced] += latency
            records[traced].append(rec)
        k += 1
    return total, records


def load_golden(workload: str, seed: int) -> list[str]:
    if seed != GOLDEN_SEED:
        return []
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, [])


def check_all(wl, records, golden, first=0) -> list[tuple[int, str]]:
    """(op, reason) for every op that raised, failed its check, or drifted
    from the digest recorded for the default seed; records[0] is op first."""
    failures = []
    for k, rec in enumerate(records, start=first):
        reason = rec.get("error") or wl.check(rec)
        if reason is None and k < len(golden) and rec["digest"] != golden[k]:
            reason = f"output digest {rec['digest']} differs from the recorded {golden[k]}"
        if reason is not None:
            failures.append((k, reason))
    return failures


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def run_untraced(wl, args, golden) -> dict:
    latencies, records, wall = closed_loop(wl, args.first, args.seconds, corrupt=args.corrupt)
    return {
        "attempted": len(records),
        "failures": check_all(wl, records, golden, args.first),
        "latencies_ms": [x * 1e3 for x in latencies],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mib(children=wl.name == "cli"),
        "golden_checked": max(0, min(len(golden), args.first + len(records)) - args.first),
    }


def run_traced(wl, args, golden) -> dict:
    startup = startup_metrics(SRC)
    tracer = Tracer()
    total, records = paired_loop(wl, args.seconds, tracer, args.corrupt)
    plain, traced = records[False], records[True]
    # Traced runs are numbered after the untraced ones.
    failures = dict(check_all(wl, plain, golden))
    offset = len(plain)
    failures.update((k + offset, r) for k, r in check_all(wl, traced, golden))
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a["digest"] != b["digest"]:
            failures.setdefault(k + offset, "traced output differs from untraced output")
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl"))
    metrics = {**startup, **tracer.layer_metrics()}
    metrics.update({
        "trace.ops": (len(traced), "count"),
        "trace.untraced_ms": (total[False] * 1e3, "ms"),
        "trace.traced_ms": (total[True] * 1e3, "ms"),
        "trace.overhead_ms": ((total[True] - total[False]) * 1e3, "ms"),
        "trace.overhead_pct": (100 * (total[True] - total[False]) / total[False], "%"),
    })
    return {
        "attempted": len(plain) + len(traced),
        "failures": sorted(failures.items()),
        "metrics": metrics,
        "golden_checked": 2 * min(len(golden), len(plain)),
    }


def record_golden(wl, count: int) -> None:
    _, records, _ = closed_loop(wl, count=count)
    failures = check_all(wl, records, [])
    if failures:
        sys.exit(f"not recording: op {failures[0][0]} failed: {failures[0][1]}")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["digests"][wl.name] = [rec["digest"] for rec in records]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first", type=int, default=0, metavar="K",
                        help="number of the first op (untraced runs)")
    parser.add_argument("--corrupt", type=int, default=None, metavar="K",
                        help="damage the output of op K (self-test of the checks)")
    parser.add_argument("--record", type=int, default=None, metavar="N")
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        in_process = bool(args.trace) or args.record is not None
        wl = WORKLOADS[args.workload](ck, args.seed, workdir, in_process)
        setup_end = time.monotonic()
        if args.record is not None:
            if args.seed != GOLDEN_SEED:
                parser.error(f"--record needs --seed {GOLDEN_SEED}")
            record_golden(wl, args.record)
            return 0
        else:
            golden = load_golden(wl.name, args.seed)
            run = run_traced if args.trace else run_untraced
            result = run(wl, args, golden)
            result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_end"] = setup_end
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
