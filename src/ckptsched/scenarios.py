"""Built-in scenarios, strategy comparisons, parameter sweeps, and reports.

Three bundled scenarios mirror the study task domains (shopping cart, image
editing, Overcooked). Per-step accuracy and agent redo time are measured
quantities from formative agent runs; plan length and the user-side times
(confirm, diagnose, correct) were never published, so they default to assumed
values and every number carries a provenance note saying which kind it is.

Human-participant completion times and preference rates for these domains are
measurements of human behavior and are not reproduction targets; this module
reproduces model structure (dominance of the optimized schedule, how error
location shifts the balance), not human magnitudes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .core import Policy, StepModel, TaskPlan, validate_plan
from .oracle import monte_carlo, simulate_run_forced
from .solver import evaluate_policy, solve


class ConfigError(ValueError):
    """A scenario config file is malformed."""


class InvalidSweepValueError(ValueError):
    """A sweep value is outside the axis' validity range."""


NON_REPRODUCTION_NOTE = (
    "Note: expected times are the model's own cost accounting. "
    "Human-participant results for these task domains (total trial times, "
    "per-domain savings, preference rates) are measurements of human behavior "
    "and are not reproduction targets; this toolkit reproduces structure "
    "(which schedule dominates, how error location shifts the balance), not "
    "human magnitudes. Values marked 'assumed' are uncalibrated defaults."
)

# Assumed defaults for quantities with no published value.
DEFAULT_N = 12
DEFAULT_T_CONFIRM = 8.0
DEFAULT_T_DIAGNOSE = 4.0
DEFAULT_T_CORRECT = 10.0

# Longest plan a config file or an N sweep may build. solve() takes about
# 1.5 s at this size on one core and needs no O(N^2) memory; the limit turns
# a plan such as n = 10**8 into a ConfigError instead of a hang.
MAX_STEPS = 10_000

_NUMERIC_FIELDS = ("n", "p_a", "t_confirm", "t_diagnose", "t_correct", "t_redo")


@dataclass(frozen=True)
class Scenario:
    """Named plan plus a per-field note of where each number came from."""

    name: str
    plan: TaskPlan
    description: str = ""
    provenance: Mapping[str, str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.provenance is None:
            object.__setattr__(self, "provenance", {})


def validate_scenario(scenario: Scenario) -> Scenario:
    """Plan must validate and every numeric field must carry a source note."""
    validate_plan(scenario.plan)
    missing = [f for f in _NUMERIC_FIELDS if f not in scenario.provenance]
    if missing:
        raise ConfigError(
            f"scenario {scenario.name!r} missing provenance for: {', '.join(missing)}"
        )
    return scenario


def _fill_provenance(note: str) -> dict[str, str]:
    return {f: note for f in _NUMERIC_FIELDS}


def _study_scenario(
    name: str,
    description: str,
    p_a: float,
    t_redo: float,
    n: int,
    t_confirm: float,
    t_diagnose: float,
    t_correct: float,
) -> Scenario:
    assumed = {
        "n": (n, DEFAULT_N, "assumed: trials ran 8..16 steps, midpoint default"),
        "t_confirm": (t_confirm, DEFAULT_T_CONFIRM, "assumed: uncalibrated default"),
        "t_diagnose": (t_diagnose, DEFAULT_T_DIAGNOSE, "assumed: uncalibrated default"),
        "t_correct": (t_correct, DEFAULT_T_CORRECT, "assumed: uncalibrated default"),
    }
    provenance = {
        "p_a": "measured: per-step accuracy from formative agent runs",
        "t_redo": "measured: mean agent re-execution time for this domain",
    }
    for field, (value, default, note) in assumed.items():
        provenance[field] = note if value == default else "override"
    plan = TaskPlan.uniform(
        n,
        p_a,
        t_confirm=t_confirm,
        t_diagnose=t_diagnose,
        t_correct=t_correct,
        t_redo=t_redo,
    )
    return validate_scenario(Scenario(name, plan, description, provenance))


def builtin_scenarios(
    n: int = DEFAULT_N,
    t_confirm: float = DEFAULT_T_CONFIRM,
    t_diagnose: float = DEFAULT_T_DIAGNOSE,
    t_correct: float = DEFAULT_T_CORRECT,
) -> list[Scenario]:
    """The three study task domains, accuracies applied uniformly per step.

    The keyword arguments override the assumed (unpublished) quantities; the
    measured ones (per-step accuracy, redo time) are fixed per domain.
    """
    shared = dict(n=n, t_confirm=t_confirm, t_diagnose=t_diagnose, t_correct=t_correct)
    return [
        _study_scenario(
            "shopping",
            "Shopping cart management: slow redo (network plus screenshot "
            "analysis), lowest per-step accuracy.",
            p_a=0.875,
            t_redo=20.0,
            **shared,
        ),
        _study_scenario(
            "image-editing",
            "Image editing via external tool calls.",
            p_a=0.91,
            t_redo=10.0,
            **shared,
        ),
        _study_scenario(
            "overcooked",
            "Overcooked game play: agent reasoning plus game state processing.",
            p_a=0.93,
            t_redo=10.0,
            **shared,
        ),
    ]


def fig4_scenario() -> Scenario:
    """The five-step worked example with unit costs and mixed accuracies."""
    probs = (0.7, 0.7, 0.9, 0.85, 0.85)
    plan = TaskPlan(
        StepModel(p, t_confirm=1.0, t_diagnose=1.0, t_correct=1.0, t_redo=1.0)
        for p in probs
    )
    return validate_scenario(
        Scenario(
            "fig4",
            plan,
            "Worked five-step example, unit costs, p = [0.7, 0.7, 0.9, 0.85, 0.85].",
            _fill_provenance("example parameters"),
        )
    )


def get_scenario(name: str) -> Scenario | None:
    """Resolve a builtin scenario name; None if unknown."""
    if name == "fig4":
        return fig4_scenario()
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    return None


# ---------------------------------------------------------------------------
# Strategy comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyRow:
    strategy: str
    expected_time: float
    mc_mean: float
    mc_ci95: tuple[float, float]
    n_checkpoints: int


@dataclass(frozen=True)
class ComparisonReport:
    scenario: str
    rows: tuple[StrategyRow, ...]
    reduction_vs_end: float


def compare_strategies(
    scenario: Scenario,
    mc_runs: int = 10_000,
    seed: int = 0,
    include_correct_cost: bool = False,
) -> ComparisonReport:
    """Price optimal, end-only, and every-step schedules, each with a Monte
    Carlo confirmation of the analytic number."""
    validate_scenario(scenario)
    plan = scenario.plan
    n = plan.n
    result = solve(plan, include_correct_cost)
    strategies = [
        ("optimal", result.policy, float(result.value[0])),
        (
            "end-only",
            Policy.end_only(n),
            float(evaluate_policy(plan, Policy.end_only(n), include_correct_cost)[0]),
        ),
        (
            "every-step",
            Policy.every_step(n),
            float(evaluate_policy(plan, Policy.every_step(n), include_correct_cost)[0]),
        ),
    ]
    rows = []
    for offset, (label, policy, expected) in enumerate(strategies):
        mc = monte_carlo(plan, policy, mc_runs, seed + offset, include_correct_cost)
        rows.append(
            StrategyRow(
                strategy=label,
                expected_time=expected,
                mc_mean=mc.mean_time,
                mc_ci95=mc.ci95,
                n_checkpoints=len(policy.success_path()),
            )
        )
    v_opt = rows[0].expected_time
    v_end = rows[1].expected_time
    reduction = 0.0 if v_end == 0.0 else (v_end - v_opt) / v_end
    return ComparisonReport(
        scenario=scenario.name, rows=tuple(rows), reduction_vs_end=reduction
    )


def comparison_csv_rows(
    report: ComparisonReport,
) -> tuple[list[str], list[list[object]]]:
    header = [
        "strategy",
        "expected_time",
        "mc_mean",
        "mc_ci95_low",
        "mc_ci95_high",
        "n_checkpoints",
    ]
    rows = [
        [r.strategy, r.expected_time, r.mc_mean, r.mc_ci95[0], r.mc_ci95[1], r.n_checkpoints]
        for r in report.rows
    ]
    return header, rows


def comparison_summary(report: ComparisonReport) -> str:
    lines = [f"scenario: {report.scenario}"]
    for r in report.rows:
        lines.append(
            f"  {r.strategy:<11s} expected {format_float(r.expected_time):>9s} s   "
            f"mc {format_float(r.mc_mean):>9s} s "
            f"[{format_float(r.mc_ci95[0])}, {format_float(r.mc_ci95[1])}]   "
            f"checkpoints {r.n_checkpoints}"
        )
    lines.append(
        f"  time saved vs end-only confirmation: {report.reduction_vs_end * 100:.2f}%"
    )
    lines.append(NON_REPRODUCTION_NOTE)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("p_a", "t_confirm", "t_diagnose", "t_redo", "N")


@dataclass(frozen=True)
class SweepRow:
    value: float
    v_opt: float
    v_end: float
    v_every: float
    policy_summary: str


def _apply_axis(base: Scenario, axis: str, value: float) -> TaskPlan:
    if axis not in SWEEP_AXES:
        raise InvalidSweepValueError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    if not -math.inf < value < math.inf:  # exact for ints too large for a float
        raise InvalidSweepValueError(f"{axis} must be finite, got {value!r}")
    if axis == "N":
        if value != int(value) or not 1 <= value <= MAX_STEPS:
            raise InvalidSweepValueError(
                f"N must be an integer in 1..{MAX_STEPS}, got {value!r}"
            )
        template = base.plan.steps[0]
        return TaskPlan([template] * int(value))
    if axis == "p_a":
        if not 0.0 < value <= 1.0:
            raise InvalidSweepValueError(f"p_a must lie in (0, 1], got {value!r}")
    elif value < 0.0:
        raise InvalidSweepValueError(f"{axis} must be >= 0, got {value!r}")
    return TaskPlan(replace(step, **{axis: value}) for step in base.plan.steps)


def sweep(
    base: Scenario,
    axis: str,
    values: Sequence[float],
    include_correct_cost: bool = False,
) -> list[SweepRow]:
    """Re-solve the scenario with one parameter set uniformly per row.

    Sweeping N rebuilds a uniform plan from the base scenario's first step.
    Every value is checked before the first row is solved.
    """
    validate_scenario(base)
    plans = [validate_plan(_apply_axis(base, axis, value)) for value in values]
    rows = []
    for value, plan in zip(values, plans):
        result = solve(plan, include_correct_cost)
        v_end = evaluate_policy(plan, Policy.end_only(plan.n), include_correct_cost)[0]
        v_every = evaluate_policy(plan, Policy.every_step(plan.n), include_correct_cost)[0]
        rows.append(
            SweepRow(
                value=value,
                v_opt=float(result.value[0]),
                v_end=float(v_end),
                v_every=float(v_every),
                policy_summary=">".join(str(j) for j in result.policy.success_path()),
            )
        )
    return rows


def sweep_csv_rows(rows: Iterable[SweepRow]) -> tuple[list[str], list[list[object]]]:
    header = ["value", "v_opt", "v_end", "v_every", "policy"]
    return header, [[r.value, r.v_opt, r.v_end, r.v_every, r.policy_summary] for r in rows]


# ---------------------------------------------------------------------------
# Error-location experiment
# ---------------------------------------------------------------------------

LOCATIONS = ("early", "mid", "late")


@dataclass(frozen=True)
class ErrorLocationRow:
    location: str
    fail_step: int
    optimal_time: float
    end_only_time: float


def _location_step(location: str, n: int) -> int:
    if location == "early":
        step = math.ceil(n / 6)
    elif location == "mid":
        step = math.ceil(n / 2)
    elif location == "late":
        step = n - 1
    else:
        raise ValueError(f"unknown error location {location!r}; use one of {LOCATIONS}")
    return min(max(step, 1), n)


def error_location_experiment(
    scenario: Scenario,
    locations: Sequence[str] = LOCATIONS,
    include_correct_cost: bool = False,
) -> list[ErrorLocationRow]:
    """Force exactly one step failure at a fixed position and compare the
    optimized schedule against end-only confirmation.

    Outcomes are fully forced (the chosen step fails once, everything else
    succeeds), so each cell is exact and deterministic: there is nothing to
    sample, hence no run count or seed.
    """
    validate_scenario(scenario)
    plan = scenario.plan
    n = plan.n
    optimal = solve(plan, include_correct_cost).policy
    end_only = Policy.end_only(n)
    rows = []
    for location in locations:
        fail_step = _location_step(location, n)
        t_opt = simulate_run_forced(
            plan, optimal, fail_step, include_correct_cost
        ).total_user_time
        t_end = simulate_run_forced(
            plan, end_only, fail_step, include_correct_cost
        ).total_user_time
        rows.append(
            ErrorLocationRow(
                location=location,
                fail_step=fail_step,
                optimal_time=t_opt,
                end_only_time=t_end,
            )
        )
    return rows


def error_location_csv_rows(
    rows: Iterable[ErrorLocationRow],
) -> tuple[list[str], list[list[object]]]:
    header = ["location", "fail_step", "optimal_time", "end_only_time"]
    return header, [
        [r.location, r.fail_step, r.optimal_time, r.end_only_time] for r in rows
    ]


# ---------------------------------------------------------------------------
# Config files and CSV output
# ---------------------------------------------------------------------------

_STEP_KEYS = {"p_a", "t_confirm", "t_diagnose", "t_correct", "t_redo"}
_COMMON_KEYS = {"name", "description", "provenance"}
_UNIFORM_KEYS = {"n", "p_a", "t_confirm", "t_diagnose", "t_correct", "t_redo"}


def _require_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float64
        raise ConfigError(f"{where} must be a finite float64, got an integer beyond its range") from None


def _step_from_dict(entry: object, where: str) -> StepModel:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object, got {entry!r}")
    unknown = set(entry) - _STEP_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    if "p_a" not in entry:
        raise ConfigError(f"{where}: missing required key 'p_a'")
    fields = {k: _require_number(v, f"{where}.{k}") for k, v in entry.items()}
    return StepModel(**fields)


def scenario_from_dict(data: object) -> Scenario:
    """Build a scenario from a parsed config tree; unknown keys rejected."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    if "name" not in data or not isinstance(data["name"], str):
        raise ConfigError("config must carry a string 'name'")
    name = data["name"]
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ConfigError("'description' must be a string")
    provenance = data.get("provenance", None)
    if provenance is not None and not (
        isinstance(provenance, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in provenance.items())
    ):
        raise ConfigError("'provenance' must map field names to notes")

    if "steps" in data:
        unknown = set(data) - _COMMON_KEYS - {"steps"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)}")
        raw = data["steps"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("'steps' must be a non-empty list")
        if len(raw) > MAX_STEPS:
            raise ConfigError(f"'steps' has {len(raw)} entries; the limit is {MAX_STEPS}")
        steps = [_step_from_dict(s, f"steps[{idx}]") for idx, s in enumerate(raw)]
        plan = TaskPlan(steps)
    else:
        unknown = set(data) - _COMMON_KEYS - _UNIFORM_KEYS
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)}")
        missing = {"n", "p_a"} - set(data)
        if missing:
            raise ConfigError(f"uniform config missing key(s) {sorted(missing)}")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_STEPS:
            raise ConfigError(f"'n' must be an integer in 1..{MAX_STEPS}, got {n!r}")
        costs = {
            k: _require_number(data.get(k, 0.0), k)
            for k in ("t_confirm", "t_diagnose", "t_correct", "t_redo")
        }
        plan = TaskPlan.uniform(n, _require_number(data["p_a"], "p_a"), **costs)

    # a field the config gives no note for came from the config file
    provenance = _fill_provenance("config file") | (provenance or {})
    scenario = Scenario(name, plan, description, provenance)
    validate_plan(scenario.plan)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical (per-step) config form; loses nothing on a round trip."""
    return {
        "name": scenario.name,
        "description": scenario.description,
        "provenance": dict(scenario.provenance),
        "steps": [
            {
                "p_a": s.p_a,
                "t_confirm": s.t_confirm,
                "t_diagnose": s.t_diagnose,
                "t_correct": s.t_correct,
                "t_redo": s.t_redo,
            }
            for s in scenario.plan.steps
        ],
    }


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise ConfigError(f"{path}: unreadable JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=False)
        fh.write("\n")


def format_float(x: float) -> str:
    """Six significant digits, the report-wide float format."""
    return f"{x:.6g}"


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with floats at six significant digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, float) else v for v in row]
        )
    return out.getvalue()
