"""Command-line front door.

Commands map one-to-one onto the library: solve, eval, simulate, enumerate,
compare, sweep, error-loc. Inputs are builtin scenario names (fig4, shopping,
image-editing, overcooked) or paths to JSON scenario configs; builtin names
win on collision, with a warning. All output is deterministic given the
command line and seed.

Exit codes: 0 success, 2 bad invocation, 3 invalid config or plan,
4 plan too large for enumeration, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence, TextIO

from . import scenarios as lab
from .core import (
    InvalidPlanError,
    InvalidPolicyError,
    Policy,
    TaskPlan,
)
from .oracle import (
    DEFAULT_ENUM_CAP,
    MAX_ENUM_CAP,
    PlanTooLargeError,
    enumerate_policies,
    format_trace,
    monte_carlo,
    simulate_run,
)
from .solver import SolveResult, evaluate_policy, solve, table_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_TOO_LARGE = 4
EXIT_IO = 5

ENUM_CAP_ENV = "CKPTSCHED_ENUM_CAP"


def _resolve_scenario(name_or_path: str) -> lab.Scenario:
    builtin = lab.get_scenario(name_or_path)
    if builtin is not None:
        if os.path.exists(name_or_path):
            print(
                f"warning: {name_or_path!r} resolves to the builtin scenario; "
                "the file of the same name is ignored",
                file=sys.stderr,
            )
        return builtin
    return lab.load_scenario(name_or_path)


def _parse_policy(spec: str, plan: TaskPlan, include_correct_cost: bool) -> Policy:
    if spec == "optimal":
        return solve(plan, include_correct_cost).policy
    if spec == "end":
        return Policy.end_only(plan.n)
    if spec == "every":
        return Policy.every_step(plan.n)
    try:
        entries = [int(x) for x in spec.split(",")]
    except ValueError:
        raise InvalidPolicyError(
            f"policy must be 'optimal', 'end', 'every', or a comma-separated "
            f"next_ckpt list, got {spec!r}"
        ) from None
    return Policy(entries).validate_for(plan.n)


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise lab.InvalidSweepValueError(f"--values must be a comma-separated number list, got {text!r}") from None
    return values


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer in low..high, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value <= high:
            bound = f">= {low}" if value < low else f"<= {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _locations(text: str) -> list[str]:
    """argparse type: a comma-separated subset of the error locations, else a
    usage error (exit 2); the empty string means all of them."""
    if not text:
        return list(lab.LOCATIONS)
    locations = text.split(",")
    unknown = [x for x in locations if x not in lab.LOCATIONS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown location(s) {', '.join(map(repr, unknown))}; "
            f"use a comma-separated subset of {','.join(lab.LOCATIONS)}"
        )
    return locations


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_policy(policy: Policy) -> str:
    return " ".join(f"{i}>{j}" for i, j in enumerate(policy.next_ckpt))


def format_solve_output(scenario: lab.Scenario, result: SolveResult, precision: int, out: TextIO) -> None:
    """Write V, next_ckpt, and the expected-time table laid out with start
    states as rows, checkpoint states as columns, and the row best starred.

    The table is streamed from table_rows twice, and each line is written
    as soon as it is made. The first pass finds the column width, that of
    the widest cell. A correctly rounded fixed-point string never gets
    shorter as |x| grows on either side of zero, so a row's widest finite
    cell is its largest or its smallest (a tiny negative one prints as
    -0.00). No cell is -0.0, which would tie with 0.0 in min and hide its
    sign: a sum is -0.0 only when both its terms are, and the last term of
    a cell's a(i, j), the redo tail, never is (see _long_row_costs).
    """
    import numpy as np  # only the table needs numpy here

    plan = scenario.plan
    lines = [
        f"scenario: {scenario.name}",
        f"include_correct_cost: {str(result.include_correct_cost).lower()}",
        "V: " + " ".join(f"{v:.{precision}f}" for v in result.value),
        "next_ckpt: " + _format_policy(result.policy),
        "success path: " + ">".join(str(j) for j in result.policy.success_path()),
    ]
    width = len(f"{plan.n}")  # the widest cell, with its mark
    for row in table_rows(plan, result):
        finite = row[np.isfinite(row)]
        edge = [finite.min(), finite.max()] if finite.size else []
        if finite.size < row.size:  # inf and nan print in 3 characters, -inf in 4
            edge.append(-math.inf if (row == -math.inf).any() else math.inf)
        width = max([width] + [len(f"{x:.{precision}f}") + 1 for x in edge])
    header = "start\\ckpt |" + "".join(f" {j:>{width}}" for j in range(1, plan.n + 1))
    out.write("\n".join(lines + [header, "-" * len(header)]) + "\n")
    cell = f" {{:>{width - 1}.{precision}f}} "  # its last space is the mark, * at the best
    for i, row in enumerate(table_rows(plan, result)):
        k = result.policy.next_ckpt[i] - i - 1
        cells = (cell * k + cell[:-1] + "*" + cell * (len(row) - k - 1)).format(*row.tolist())
        out.write(f"{i:>10} |" + " " * (width + 1) * i + cells.rstrip() + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    result = solve(scenario.plan, args.with_correct_cost)
    # --out is opened only once the plan has solved, so a failure writes nothing
    if args.out is None:
        format_solve_output(scenario, result, args.precision, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            format_solve_output(scenario, result, args.precision, fh)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    policy = _parse_policy(args.policy, scenario.plan, args.with_correct_cost)
    values = evaluate_policy(scenario.plan, policy, args.with_correct_cost)
    lines = [
        f"scenario: {scenario.name}",
        f"policy: {_format_policy(policy)}",
        "V_policy: " + " ".join(lab.format_float(v) for v in values),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    policy = _parse_policy(args.policy, scenario.plan, args.with_correct_cost)
    if args.runs > 1:
        summary = monte_carlo(
            scenario.plan, policy, args.runs, args.seed, args.with_correct_cost
        )
        lines = [
            f"scenario: {scenario.name}",
            f"runs: {summary.runs}",
            f"mean_time: {lab.format_float(summary.mean_time)}",
            f"std_error: {lab.format_float(summary.std_error)}",
            f"ci95: {lab.format_float(summary.ci95[0])} {lab.format_float(summary.ci95[1])}",
            f"mean_cycles: {lab.format_float(summary.mean_cycles)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        trace = simulate_run(scenario.plan, policy, args.seed, args.with_correct_cost)
        _emit(format_trace(trace), args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    cap = DEFAULT_ENUM_CAP
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise lab.ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
        if not 1 <= cap <= MAX_ENUM_CAP:
            raise lab.ConfigError(
                f"{ENUM_CAP_ENV} must lie in 1..{MAX_ENUM_CAP}, got {cap}"
            )
    result = enumerate_policies(scenario.plan, args.with_correct_cost, max_n=cap)
    lines = [
        f"scenario: {scenario.name}",
        f"evaluated: {result.evaluated}",
        f"best_value: {lab.format_float(result.best_value)}",
        "best_policy: " + _format_policy(result.best_policy),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    report = lab.compare_strategies(
        scenario, mc_runs=args.runs, seed=args.seed,
        include_correct_cost=args.with_correct_cost,
    )
    header, rows = lab.comparison_csv_rows(report)
    csv_text = lab.render_csv(header, rows)
    _emit(csv_text, args.out)
    sys.stdout.write(lab.comparison_summary(report))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    values = _parse_values(args.values)
    rows = lab.sweep(scenario, args.axis, values, args.with_correct_cost)
    header, csv_rows = lab.sweep_csv_rows(rows)
    _emit(lab.render_csv(header, csv_rows), args.out)
    return EXIT_OK


def _cmd_error_loc(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.input)
    rows = lab.error_location_experiment(
        scenario, args.locations, include_correct_cost=args.with_correct_cost
    )
    header, csv_rows = lab.error_location_csv_rows(rows)
    _emit(lab.render_csv(header, csv_rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckptsched",
        description="Optimal user-confirmation checkpoint scheduling for "
        "multi-step agent plans.",
        epilog=f"Environment: {ENUM_CAP_ENV} overrides the enumeration cap "
        f"(default {DEFAULT_ENUM_CAP}, at most {MAX_ENUM_CAP}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="builtin scenario name or config path")
        p.add_argument("--with-correct-cost", action="store_true",
                       help="charge the correction-explanation time as well")
        p.add_argument("--out", default=None, help="write output to this file "
                       "(default: stdout)")
        p.set_defaults(func=func)
        return p

    p = add("solve", _cmd_solve, "solve for the optimal checkpoint schedule")
    p.add_argument("--precision", type=_int_in(0, 20), default=2,
                   help="decimal places in the table, 0 to 20 (default 2)")

    p = add("eval", _cmd_eval, "price a fixed policy analytically")
    p.add_argument("--policy", required=True,
                   help="'optimal', 'end', 'every', or comma-separated next_ckpt list")

    p = add("simulate", _cmd_simulate, "sample the confirm/diagnose/correct/redo process")
    p.add_argument("--policy", required=True,
                   help="'optimal', 'end', 'every', or comma-separated next_ckpt list")
    p.add_argument("--seed", type=_int_in(0), default=0,
                   help="master seed (default 0)")
    p.add_argument("--runs", type=_int_in(1), default=1,
                   help="1 prints a full trace, >1 prints a Monte Carlo summary")

    add("enumerate", _cmd_enumerate, "brute-force the optimum over all policies")

    p = add("compare", _cmd_compare, "compare optimal vs end-only vs every-step")
    p.add_argument("--runs", type=_int_in(2), default=10_000,
                   help="Monte Carlo runs per strategy, at least 2 for the "
                   "95%% interval (default 10000)")
    p.add_argument("--seed", type=_int_in(0), default=0,
                   help="master seed (default 0)")

    p = add("sweep", _cmd_sweep, "re-solve across one parameter axis")
    p.add_argument("--axis", required=True, choices=lab.SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated list of axis values")

    p = add("error-loc", _cmd_error_loc,
            "forced single-error comparison by error location")
    p.add_argument("--locations", type=_locations, default=lab.LOCATIONS,
                   help="comma-separated subset of early,mid,late (default all)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (lab.ConfigError, lab.InvalidSweepValueError, InvalidPlanError,
            InvalidPolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
