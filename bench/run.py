"""ckptsched benchmark: one workload per call, each in fresh interpreters.

    python3 bench/run.py --workload plan_large --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a separate traced run and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details (environment, percentiles, failures) go to .bench_out/ in the
checkout. See bench/README.md for the workloads and metrics.

This launcher imports only the standard library. An untraced run is split
into CHUNKS workers (worker.py), started one after the other, each running
the next ops for an equal share of the time. Each fresh worker gives one
set-up time, spread over the run, and setup_s is their median; the ops'
latencies are pooled. A traced run is one worker.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("plan_large", "verify_small", "simulate", "cli")
# Bounded in BENCHMARK.json. Throughput and error rate are printed too, but a
# run's mean follows the machine's slow share and error rate reads 0 (README).
END_TO_END = ("setup_s", "latency_ms_p50", "latency_ms_tail", "peak_rss_mb")
CHUNKS = 7


class WorkerError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (monotonic start, its JSON result).

    The worker gets its own process group, so on timeout it is killed
    together with any command it started.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return started, json.loads(lines[-1])


def latency_summary(latencies_ms: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
    }


def run_chunks(common: list[str], seconds: float, deadline: float) -> tuple[list[float], dict]:
    """Run the workload as CHUNKS workers in turn; return the set-up times
    and the pooled result."""
    setups = []
    pooled = {"attempted": 0, "failures": [], "latencies_ms": [], "wall_s": 0.0,
              "peak_rss_mb": 0.0, "golden_checked": 0}
    for _ in range(CHUNKS):
        argv = common + ["--seconds", str(seconds / CHUNKS), "--first", str(pooled["attempted"])]
        started, res = spawn_worker(argv, deadline)
        setups.append(res["setup_end"] - started)
        for key in ("attempted", "failures", "latencies_ms", "wall_s", "golden_checked"):
            pooled[key] += res[key]
        pooled["peak_rss_mb"] = max(pooled["peak_rss_mb"], res["peak_rss_mb"])
        pooled["env"] = res["env"]
    return setups, pooled


def main() -> int:
    parser = argparse.ArgumentParser(description="ckptsched benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=None, metavar="K",
                        help="self-test: damage the output of op K")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "ckptsched", "__init__.py")):
        print(f"error: no ckptsched source under {ROOT}/src", file=sys.stderr)
        return 2

    # Room for set-up and for the checks after each timed loop.
    deadline = time.monotonic() + 3 * args.seconds + 60
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.corrupt is not None:
        common += ["--corrupt", str(args.corrupt)]
    setups = []
    try:
        if args.trace:
            _, res = spawn_worker(common + ["--seconds", str(args.seconds)], deadline)
        else:
            setups, res = run_chunks(common, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = reported = res["metrics"]
    else:
        res["latency"] = lat = latency_summary(res["latencies_ms"])
        reported = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (res["attempted"] / res["wall_s"], "1/s"),
            "latency_ms_p50": (lat["p50_ms"], "ms"),
            "latency_ms_tail": (lat["tail_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
        metrics = {name: reported[name] for name in END_TO_END}
    attempted, failures = res["attempted"], res["failures"]
    context.update(res["env"], setup_samples_s=setups, golden_checked=res["golden_checked"])

    mode = "traced run, per-layer metrics" if args.trace else "end-to-end metrics"
    print(f"workload {args.workload}: {mode}, seed {args.seed}, {args.seconds:g} s")
    print("  env: python {python}, numpy {numpy}, nproc {nproc}, cpu {cpu}, "
          "loadavg at start {loadavg_at_start}".format(**context))
    for name, (value, unit) in reported.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if not args.trace:
        lat = res["latency"]
        print(f"  latency_ms_tail is p{lat['tail_percentile']:.2f}: "
              f"{lat['tail_samples_beyond']} of {lat['samples']} ops were slower")
    print(f"  error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed;"
          f" {context['golden_checked']} ops compared with recorded digests)")
    for k, reason in failures[:10]:
        print(f"    op {k}: {reason}")

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {**context, **res, "metrics": reported}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
