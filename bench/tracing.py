"""Spans around the calls into each ckptsched layer, and what they sum to.

The traced run wraps the public functions of every module in each module
namespace that holds them (``solver.validate_plan``, ``scenarios.solve``,
``cli.monte_carlo``, ...), so a call from one module into another becomes a
child span. Private kernels (``_row_costs``, ``_run_cdcr``,
``RunStream.random``) are not wrapped. Spans stay in memory until the run
ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from workloads import env_with_src

# Public functions per layer; each span is named "<layer>.<function>".
LAYERS = {
    "core": ("validate_plan", "plan_columns", "diagnose_redo_prefix_sums", "reachable_states"),
    "solver": ("solve", "evaluate_policy"),
    "oracle": ("enumerate_policies", "monte_carlo", "simulate_run", "simulate_run_forced", "format_trace"),
    "scenarios": ("compare_strategies", "sweep", "error_location_experiment", "load_scenario", "render_csv"),
    "cli": ("main", "format_solve_output"),
}
FORMAT_SPANS = ("cli.format_solve_output", "scenarios.render_csv", "oracle.format_trace")
SCENARIO_SPANS = tuple(f"scenarios.{f}" for f in LAYERS["scenarios"])
SIMULATE_RUN_SPANS = ("oracle.simulate_run", "oracle.simulate_run_forced")


def _counts(name: str, args: tuple, result) -> dict | None:
    """Work done by one call, read from its inputs and result."""
    if name == "solver.solve":
        n = args[0].n
        return {"cells": n * (n + 1) // 2, "table_bytes": n * (n + 1) * 8}
    if name == "oracle.enumerate_policies":
        return {"policies": result.evaluated}
    if name == "oracle.monte_carlo":
        return {"runs": result.runs, "cycles": result.mean_cycles * result.runs}
    return None


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent, op, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _counts(name, args, result)
            return result

        return traced

    def install(self, ck) -> None:
        """Replace each public function in every ckptsched module that binds it."""
        import ckptsched.cli  # noqa: F401  (the package does not import it)

        modules = [ck] + [sys.modules[f"ckptsched.{layer}"] for layer in LAYERS]
        for layer, names in LAYERS.items():
            home = sys.modules[f"ckptsched.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        policy = ck.core.Policy
        self._undo.append((policy, "validate_for", policy.validate_for))
        policy.validate_for = self.wrap("core.Policy.validate_for", policy.validate_for)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "counts": counts,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        counts: dict[str, float] = {}
        table_bytes = 0
        for idx, (name, start, end, _, _, cnt) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[idx])
            total_ns[name] = total_ns.get(name, 0) + (end - start)
            for key, value in (cnt or {}).items():
                if key == "table_bytes":
                    table_bytes = max(table_bytes, value)
                else:
                    counts[key] = counts.get(key, 0) + value

        def n_calls(*names: str) -> int:
            return sum(calls.get(n, 0) for n in names)

        def ms(table: dict, *names: str) -> float:
            return sum(table.get(n, 0) for n in names) / 1e6

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        core = tuple(n for n in calls if n.startswith("core."))
        cells = counts.get("cells", 0)
        runs = counts.get("runs", 0)
        return {
            "core.calls": (n_calls(*core), "count"),
            "core.self_ms": (ms(self_ns, *core), "ms"),
            "solver.solve.calls": (n_calls("solver.solve"), "count"),
            "solver.solve.self_ms": (ms(self_ns, "solver.solve"), "ms"),
            "solver.cells": (cells, "count_computed"),
            "solver.ns_per_cell": (ratio(self_ns.get("solver.solve", 0), cells), "ns"),
            "solver.table_mb": (table_bytes / 2**20, "MiB_computed"),
            "solver.evaluate_policy.calls": (n_calls("solver.evaluate_policy"), "count"),
            "solver.evaluate_policy.self_ms": (ms(self_ns, "solver.evaluate_policy"), "ms"),
            "oracle.enumerate.calls": (n_calls("oracle.enumerate_policies"), "count"),
            "oracle.enumerate.self_ms": (ms(self_ns, "oracle.enumerate_policies"), "ms"),
            "oracle.enumerate.us_per_policy": (
                ratio(self_ns.get("oracle.enumerate_policies", 0) / 1e3, counts.get("policies", 0)), "us"),
            "oracle.monte_carlo.calls": (n_calls("oracle.monte_carlo"), "count"),
            "oracle.monte_carlo.self_ms": (ms(self_ns, "oracle.monte_carlo"), "ms"),
            "oracle.us_per_run": (ratio(self_ns.get("oracle.monte_carlo", 0) / 1e3, runs), "us"),
            "oracle.cycles_per_run": (ratio(counts.get("cycles", 0), runs), "count"),
            "oracle.simulate_run.calls": (n_calls(*SIMULATE_RUN_SPANS), "count"),
            "oracle.simulate_run.self_ms": (ms(self_ns, *SIMULATE_RUN_SPANS), "ms"),
            "scenarios.calls": (n_calls(*SCENARIO_SPANS), "count"),
            "scenarios.self_ms": (ms(self_ns, *SCENARIO_SPANS), "ms"),
            "cli.command_ms": (ms(total_ns, "cli.main"), "ms"),
            "cli.format_ms": (ms(total_ns, *FORMAT_SPANS), "ms"),
            "trace.spans": (len(spans), "count"),
        }


def _timed_run(argv: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    return (time.perf_counter() - start) * 1e3, proc.stderr


def _import_ms(stderr: str, wanted) -> float:
    """Cumulative -X importtime microseconds of the matching entries, in ms."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and wanted(parts[2][1:]):
            total += int(parts[1])
    return total / 1e3


def startup_metrics(src: str, repeats: int = 5) -> dict[str, tuple[float, str]]:
    """Medians of interpreter start and of the import times of the CLI module
    and of numpy, each from its own fresh interpreter."""
    env = env_with_src(src)
    interp = [_timed_run([sys.executable, "-c", "pass"], env)[0] for _ in range(repeats)]
    ours, numpy = [], []
    for _ in range(repeats):
        _, err = _timed_run([sys.executable, "-X", "importtime", "-c", "import ckptsched.cli"], env)
        # Top-level entries have no indent: the package and its cli module.
        ours.append(_import_ms(err, lambda f: f == "ckptsched" or f.startswith("ckptsched.")))
        numpy.append(_import_ms(err, lambda f: f.strip() == "numpy"))
    return {
        "cli.interp_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(ours), "ms"),
        "cli.import_numpy_ms": (statistics.median(numpy), "ms"),
    }
