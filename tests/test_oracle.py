"""Simulator, Monte Carlo aggregation, and exhaustive enumeration."""

import math
import random
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ckptsched import (
    InvalidPlanError,
    PlanOverflowError,
    PlanTooLargeError,
    Policy,
    SimulationBudgetError,
    StepModel,
    TaskPlan,
    enumerate_policies,
    evaluate_policy,
    format_trace,
    get_scenario,
    monte_carlo,
    simulate_run,
    simulate_run_forced,
    solve,
)
from ckptsched import oracle
from ckptsched.core import plan_columns
from ckptsched.oracle import (
    _LANE_CELLS,
    CONFIRM,
    DEFAULT_ENUM_CAP,
    MAX_ENUM_CAP,
    EXECUTE,
    MAX_EXPECTED_DRAWS,
    RunStream,
    _draw_bits,
    _lockstep_runs,
    _run_cdcr,
    _run_states,
    _sampled_outcomes,
    _stream_base,
)

from oracles import product_enumerate, random_plan


# ---------------------------------------------------------------------------
# Single traces
# ---------------------------------------------------------------------------


def test_deterministic_success_trace():
    plan = TaskPlan.uniform(3, 1.0, t_confirm=1.0, t_diagnose=9.0, t_redo=9.0)
    trace = simulate_run(plan, Policy.end_only(3), seed=0)
    kinds = [(e.kind, e.index) for e in trace.events]
    assert kinds == [(EXECUTE, 1), (EXECUTE, 2), (EXECUTE, 3), (CONFIRM, 3)]
    assert all(e.ok for e in trace.events[:3])
    assert trace.total_user_time == 1.0
    assert trace.cycles == 0


def test_same_seed_same_trace(fig4_plan):
    policy = solve(fig4_plan).policy
    first = simulate_run(fig4_plan, policy, seed=42)
    second = simulate_run(fig4_plan, policy, seed=42)
    assert first == second


def test_seeds_produce_varied_traces(fig4_plan):
    policy = solve(fig4_plan).policy
    totals = {
        simulate_run(fig4_plan, policy, seed=s).total_user_time for s in range(30)
    }
    assert len(totals) > 3


def test_trace_accounting_is_exact(fig4_plan):
    rng = random.Random(17)
    for case in range(30):
        plan = fig4_plan if case == 0 else random_plan(rng)
        policy = Policy(rng.randint(i + 1, plan.n) for i in range(plan.n))
        trace = simulate_run(plan, policy, seed=case, include_correct_cost=bool(case % 2))
        assert sum(e.seconds for e in trace.events) == trace.total_user_time


def test_trace_ends_with_clean_confirmation_at_n(fig4_plan):
    policy = solve(fig4_plan).policy
    for seed in range(10):
        trace = simulate_run(fig4_plan, policy, seed=seed)
        last = trace.events[-1]
        assert (last.kind, last.index) == (CONFIRM, 5)
        # every execute in the final interval succeeded
        tail = []
        for event in reversed(trace.events[:-1]):
            if event.kind != EXECUTE:
                break
            tail.append(event)
        assert tail and all(e.ok for e in tail)


def test_negative_seed_rejected(fig4_plan):
    with pytest.raises(ValueError):
        simulate_run(fig4_plan, Policy.end_only(5), seed=-1)


# ---------------------------------------------------------------------------
# Forced outcomes
# ---------------------------------------------------------------------------


def test_forced_error_end_only(fig4_plan):
    trace = simulate_run_forced(fig4_plan, Policy.end_only(5), fail_step=2)
    # confirm(5) + diagnose 1..2 + redo 2..5 + clean confirm(5)
    assert trace.total_user_time == 8.0
    assert trace.cycles == 1
    with_fix = simulate_run_forced(
        fig4_plan, Policy.end_only(5), fail_step=2, include_correct_cost=True
    )
    assert with_fix.total_user_time == 9.0


def test_forced_error_optimal_policy(fig4_plan):
    policy = solve(fig4_plan).policy
    trace = simulate_run_forced(fig4_plan, policy, fail_step=2)
    # fail caught at checkpoint 2: confirm + 2 diagnose + 1 redo, then
    # confirmations at 3 and 5 on the clean rerun
    assert trace.total_user_time == 6.0
    assert trace.cycles == 1


def test_forced_no_error_is_success_path(fig4_plan):
    trace = simulate_run_forced(fig4_plan, Policy.end_only(5), fail_step=None)
    assert trace.total_user_time == 1.0
    assert trace.cycles == 0


def test_forced_fail_step_out_of_range(fig4_plan):
    with pytest.raises(ValueError):
        simulate_run_forced(fig4_plan, Policy.end_only(5), fail_step=6)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_single_run_reproduces_simulate_run(fig4_plan):
    policy = solve(fig4_plan).policy
    for seed in (0, 3, 2026):
        trace = simulate_run(fig4_plan, policy, seed=seed)
        summary = monte_carlo(fig4_plan, policy, runs=1, seed=seed)
        assert summary.mean_time == trace.total_user_time
        assert summary.mean_cycles == trace.cycles
        assert summary.std_error == 0.0


def test_summary_is_seed_deterministic(fig4_plan):
    policy = Policy.every_step(5)
    a = monte_carlo(fig4_plan, policy, runs=500, seed=9)
    b = monte_carlo(fig4_plan, policy, runs=500, seed=9)
    assert a == b


def test_ci_brackets_mean(fig4_plan):
    summary = monte_carlo(fig4_plan, Policy.end_only(5), runs=200, seed=1)
    assert summary.ci95[0] <= summary.mean_time <= summary.ci95[1]
    assert summary.std_error > 0.0


def test_mc_agrees_with_analytic_value(fig4_plan):
    policy = solve(fig4_plan).policy
    expected = evaluate_policy(fig4_plan, policy)[0]
    summary = monte_carlo(fig4_plan, policy, runs=30_000, seed=4)
    assert abs(summary.mean_time - expected) <= 5 * summary.std_error


def test_runs_must_be_positive(fig4_plan):
    with pytest.raises(ValueError):
        monte_carlo(fig4_plan, Policy.end_only(5), runs=0, seed=0)


def _scalar_runs(cols, next_ckpt, runs, seed, include_correct_cost):
    """Per-run totals and cycles from the scalar state machine, run by run."""
    totals = np.empty(runs)
    cycles = np.empty(runs)
    for r in range(runs):
        outcomes = _sampled_outcomes(cols[0], RunStream(seed, r))
        totals[r], cycles[r] = _run_cdcr(
            *cols, next_ckpt, outcomes, include_correct_cost, None
        )
    return totals, cycles


def _assert_lockstep_matches_scalar(plan, policy, runs, seed, include_correct_cost):
    cols = plan_columns(plan)
    args = (policy.next_ckpt, runs, seed, include_correct_cost)
    totals, cycles = _lockstep_runs(*cols, *args)
    expected_totals, expected_cycles = _scalar_runs(cols, *args)
    assert np.array_equal(totals, expected_totals)
    assert np.array_equal(cycles, expected_cycles)


SEEDS = (0, 2**63, 2**64 + 5)


def test_lockstep_runs_equal_scalar_runs_on_random_plans():
    rng = random.Random(20261018)
    for case in range(45):
        plan = random_plan(rng, n_lo=1, n_hi=25, p_lo=0.3)
        # some steps that never fail (p_a = 1)
        plan = TaskPlan(
            replace(step, p_a=1.0) if rng.random() < 0.25 else step
            for step in plan.steps
        )
        policy = Policy(rng.randint(i + 1, plan.n) for i in range(plan.n))
        runs = rng.choice((1, 2, 17, 300))
        _assert_lockstep_matches_scalar(
            plan, policy, runs, SEEDS[case % 3], include_correct_cost=bool(case % 2)
        )


@pytest.mark.parametrize("n", [1, 20])
def test_lockstep_runs_equal_scalar_runs_around_the_lane_pool_size(n):
    rng = random.Random(n)
    plan = random_plan(rng, n_lo=n, n_hi=n, p_lo=0.3)
    policy = Policy(rng.randint(i + 1, n) for i in range(n))
    lanes = max(1, _LANE_CELLS // n)
    for k, runs in enumerate((1, lanes - 1, lanes, lanes + 1, 3 * lanes + 7)):
        _assert_lockstep_matches_scalar(
            plan, policy, runs, SEEDS[k % 3], include_correct_cost=bool(k % 2)
        )


def _record_pass_lanes(monkeypatch) -> list[int]:
    """The live lane count of every lockstep pass from now on."""
    lanes = []
    draw_bits = oracle._draw_bits

    def counting(states, width, out, tmp):
        lanes.append(len(states))
        return draw_bits(states, width, out, tmp)

    monkeypatch.setattr(oracle, "_draw_bits", counting)
    return lanes


@pytest.mark.parametrize("flag", [False, True])
def test_lockstep_runs_equal_scalar_runs_down_to_one_live_lane(monkeypatch, flag):
    """One step at p_a = 0.3 over three and a bit waves: the slowest runs end
    long after the others, so the pool packs down to a single live lane."""
    plan = TaskPlan([StepModel(0.3, t_confirm=1.25, t_diagnose=0.5, t_correct=3.0, t_redo=0.75)])
    runs = 3 * _LANE_CELLS + 7
    lane_counts = _record_pass_lanes(monkeypatch)
    for seed in SEEDS:
        lane_counts.clear()
        _assert_lockstep_matches_scalar(plan, Policy((1,)), runs, seed, flag)
        assert lane_counts[0] == _LANE_CELLS and lane_counts[-1] == 1


def _confirm_intervals(plan, policy, runs, seed):
    """Confirm intervals played over runs 0..runs-1, counted from the scalar
    state machine's events."""
    cols = plan_columns(plan)
    count = 0
    for r in range(runs):
        events = []
        _run_cdcr(*cols, policy.next_ckpt, _sampled_outcomes(cols[0], RunStream(seed, r)),
                  False, events)
        count += sum(e.kind == CONFIRM for e in events)
    return count


@pytest.mark.parametrize("scenario,policy_name", [("fig4", "optimal"), ("shopping", "end")])
def test_lockstep_pool_plays_no_idle_lane(monkeypatch, scenario, policy_name):
    """The lanes of all passes sum to the confirm intervals the runs play: a
    pass never carries a lane whose run has finished."""
    plan = get_scenario(scenario).plan
    policy = solve(plan).policy if policy_name == "optimal" else Policy.end_only(plan.n)
    lanes = _record_pass_lanes(monkeypatch)
    monte_carlo(plan, policy, runs=5000, seed=7)
    assert sum(lanes) == _confirm_intervals(plan, policy, 5000, 7)


def test_mean_cycles_match_the_closed_form():
    """Under every policy a run's expected cycle count is the sum over steps
    of (1 - p)/p: step m is first wrong only from verified state m - 1, and is
    retried from there until it succeeds. The closed form shares no code with
    either simulator."""
    rng = random.Random(20261019)
    for case in range(40):
        plan = random_plan(rng, n_lo=1, n_hi=12, p_lo=0.4)
        policy = Policy(rng.randint(i + 1, plan.n) for i in range(plan.n))
        expected = sum((1.0 - s.p_a) / s.p_a for s in plan.steps)
        _, cycles = _lockstep_runs(*plan_columns(plan), policy.next_ckpt, 20_000, case, False)
        std_error = cycles.std(ddof=1) / math.sqrt(cycles.size)
        assert abs(cycles.mean() - expected) < 4.5 * std_error, case


def _slow_plan(p_a):
    return TaskPlan.uniform(2, p_a, t_confirm=1.0, t_redo=1.0)


def test_expected_work_above_the_limits_is_a_typed_error():
    """A 2-step plan at p_a = 1e-6 expects 2e6 cycles per run; it is refused
    before any draw instead of running for minutes."""
    for plan in (_slow_plan(1e-6), _slow_plan(1e-308)):  # the second sums past float64
        with pytest.raises(SimulationBudgetError):
            monte_carlo(plan, Policy.end_only(2), runs=2, seed=0)
        with pytest.raises(SimulationBudgetError):
            simulate_run(plan, Policy.end_only(2), seed=0)
    with pytest.raises(SimulationBudgetError):
        monte_carlo(get_scenario("fig4").plan, Policy.end_only(5),
                    runs=MAX_EXPECTED_DRAWS // 5, seed=0)
    # the limits leave room for criterion 3's calls: 10**6 fig4 runs
    fig4 = get_scenario("fig4").plan
    oracle._check_budget([s.p_a for s in fig4.steps], 10**6, _LANE_CELLS // fig4.n)
    assert issubclass(SimulationBudgetError, InvalidPlanError)  # exit 3


def test_runs_far_above_their_mean_hit_the_pass_cap(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PASSES", 20)
    plan = _slow_plan(0.01)  # 198 cycles per run expected
    with pytest.raises(SimulationBudgetError):
        monte_carlo(plan, Policy.end_only(2), runs=3, seed=0)
    with pytest.raises(SimulationBudgetError):
        simulate_run(plan, Policy.end_only(2), seed=0)


@pytest.mark.parametrize("flag", [False, True])
def test_non_finite_totals_are_typed_errors(flag):
    """Totals past float64 raise PlanOverflowError, as solve does, and no
    numpy warning is written on the way."""
    plan = TaskPlan.uniform(3, 0.5, t_confirm=1e308, t_redo=1e308)
    policy = Policy.end_only(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: monte_carlo(plan, policy, runs=50, seed=0, include_correct_cost=flag),
            lambda: simulate_run(plan, policy, seed=0, include_correct_cost=flag),
            lambda: simulate_run_forced(plan, policy, 2, include_correct_cost=flag),
            lambda: evaluate_policy(plan, policy, include_correct_cost=flag),
        ):
            with pytest.raises(PlanOverflowError):
                call()
        # finite totals whose sum overflows
        summed = TaskPlan.uniform(1, 1.0, t_confirm=1e308)
        with pytest.raises(PlanOverflowError):
            monte_carlo(summed, Policy.end_only(1), runs=2, seed=0)


def test_vector_splitmix_equals_run_stream():
    for seed in SEEDS:
        states = _run_states(_stream_base(seed), np.arange(1000))
        out = np.empty((1000, 3), dtype=np.uint64)
        draws = _draw_bits(states, 3, out, np.empty_like(out)) * 2.0**-53
        expected = []
        for r in range(1000):
            stream = RunStream(seed, r)
            expected.append([stream.random() for _ in range(3)])
        assert np.array_equal(draws, np.array(expected))


def test_monte_carlo_memory_grows_only_with_its_outputs():
    """Only the per-run outputs scale with runs; the lane pool is fixed."""
    plan = get_scenario("shopping").plan
    policy = Policy.end_only(plan.n)
    peaks = {}
    for runs in (20_000, 200_000):
        tracemalloc.start()
        try:
            monte_carlo(plan, policy, runs=runs, seed=0)
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200_000] - peaks[20_000] <= 48 * 180_000


def test_mc_dominance_under_sampling_noise(fig4_plan):
    optimal = solve(fig4_plan).policy
    a = monte_carlo(fig4_plan, Policy.end_only(5), runs=50_000, seed=12)
    b = monte_carlo(fig4_plan, optimal, runs=50_000, seed=13)
    joint = 4 * math.hypot(a.std_error, b.std_error)
    assert a.mean_time >= b.mean_time - joint


def test_oracle_triangle_on_random_plans():
    """Enumeration, the solver, and Monte Carlo must tell the same story.

    The enumeration leg runs over the full 500-plan corpus in the acceptance
    suite; the Monte Carlo leg is sampled here because a hundred-thousand-run
    estimate per corpus plan would dominate the whole suite's runtime.
    """
    rng = random.Random(20260809)
    for _ in range(10):
        plan = random_plan(rng)
        solved = solve(plan)
        brute = enumerate_policies(plan)
        assert abs(brute.best_value - solved.value[0]) <= 1e-9 * max(
            1.0, abs(brute.best_value)
        )
        summary = monte_carlo(plan, solved.policy, runs=100_000, seed=6)
        tolerance = 5 * summary.std_error
        assert abs(summary.mean_time - solved.value[0]) <= tolerance
        assert abs(summary.mean_time - brute.best_value) <= tolerance


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def test_enumerate_single_step():
    plan = TaskPlan([StepModel(0.8, t_confirm=1.0, t_diagnose=1.0, t_redo=1.0)])
    result = enumerate_policies(plan)
    assert result.evaluated == 1
    assert result.best_policy.next_ckpt == (1,)
    assert result.best_value == evaluate_policy(plan, result.best_policy)[0]


def test_enumerate_fig4_matches_solver_exactly(fig4_plan):
    result = enumerate_policies(fig4_plan)
    solved = solve(fig4_plan)
    assert result.evaluated == 120  # 5!
    assert result.best_policy.next_ckpt == solved.policy.next_ckpt
    assert result.best_value == solved.value[0]


def test_enumerate_cap_enforced():
    plan = TaskPlan.uniform(9, 0.9, t_confirm=1.0)
    with pytest.raises(PlanTooLargeError):
        enumerate_policies(plan)
    with pytest.raises(PlanTooLargeError):
        enumerate_policies(TaskPlan.uniform(5, 0.9, t_confirm=1.0), max_n=4)


def test_enumerate_tie_break_is_lexicographic():
    # all-zero costs make every policy cost zero; the lexicographically
    # smallest next_ckpt vector must win
    plan = TaskPlan.uniform(4, 0.9)
    result = enumerate_policies(plan)
    assert result.best_value == 0.0
    assert result.best_policy.next_ckpt == (1, 2, 3, 4)


def _walk_plans(kind: str, rng: random.Random, n: int) -> TaskPlan:
    """One plan of a kind for the tree-walk comparison."""
    def costs(draw):
        return [draw() for _ in range(4)]

    if kind == "random":
        steps = [StepModel(rng.uniform(0.3, 1.0), *costs(lambda: rng.uniform(0, 10)))
                 for _ in range(n)]
    elif kind == "zero_cost":  # every policy ties at 0
        steps = [StepModel(rng.choice([1.0, rng.uniform(0.1, 1.0)])) for _ in range(n)]
    elif kind == "sure_steps":  # p_a = 1: no errors, only confirm costs differ
        steps = [StepModel(1.0, *costs(lambda: rng.uniform(0, 10))) for _ in range(n)]
    elif kind == "unit_costs":  # costs in {0, 1}: many exact ties across nodes
        steps = [StepModel(rng.choice([0.5, 1.0]), *costs(lambda: float(rng.randint(0, 1))))
                 for _ in range(n)]
    else:  # near_overflow: some, or all, policies overflow to inf or NaN
        steps = [StepModel(rng.uniform(0.2, 1.0),
                           *costs(lambda: rng.choice([0.0, rng.uniform(1e306, 1.7e308)])))
                 for _ in range(n)]
    return TaskPlan(steps)


@pytest.mark.parametrize(
    "kind", ["random", "zero_cost", "sure_steps", "unit_costs", "near_overflow"]
)
def test_tree_walk_equals_product_loop(kind):
    """Brute force by the policy-tree walk returns the policy, the bits of its
    value and the count that pricing every policy alone returns: 105 plans of
    each kind, N = 1..6 and every 21st at N = 7 (its 5040 policies priced
    alone take ~50 ms), both flags."""
    rng = random.Random(kind)
    overflowed = 0
    for k in range(105):
        plan = _walk_plans(kind, rng, 7 if k % 21 == 20 else 1 + k % 6)
        flag = (k // 6) % 2 == 1
        want_policy, want_value, want_count = product_enumerate(plan, flag)
        if want_policy is None:
            overflowed += 1
            with pytest.raises(PlanOverflowError):
                enumerate_policies(plan, flag)
            continue
        got = enumerate_policies(plan, flag)
        assert got.best_policy.next_ckpt == want_policy, (kind, k)
        assert repr(got.best_value) == repr(want_value), (kind, k)
        assert got.evaluated == want_count == math.factorial(plan.n)
    assert (overflowed > 0) == (kind == "near_overflow")


def test_enumerate_prices_every_policy_at_the_cap():
    n = DEFAULT_ENUM_CAP
    plan = TaskPlan.uniform(n, 0.8, t_confirm=1.0, t_diagnose=2.0, t_redo=0.5)
    assert enumerate_policies(plan).evaluated == math.factorial(n)


@pytest.mark.parametrize("max_n", [0, -1, MAX_ENUM_CAP + 1])
def test_enumerate_cap_outside_its_range_is_refused(max_n):
    """The cap is bounded, so no call can ask for hours of enumeration."""
    plan = TaskPlan.uniform(MAX_ENUM_CAP + 1, 0.8, t_confirm=1.0)
    with pytest.raises(ValueError, match=f"max_n must lie in 1..{MAX_ENUM_CAP}"):
        enumerate_policies(plan, max_n=max_n)


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("step", [
    StepModel(0.5, t_confirm=1e308),
    StepModel(1e-308, t_confirm=1.0),
    StepModel(0.9, 1e308, 1e308, 1e308, 1e308),
])
def test_enumerate_overflow_is_a_typed_error(step, flag):
    with pytest.raises(PlanOverflowError):
        enumerate_policies(TaskPlan([step] * 3), flag)


# ---------------------------------------------------------------------------
# Trace export and the run stream
# ---------------------------------------------------------------------------


def test_format_trace_records(fig4_plan):
    trace = simulate_run_forced(fig4_plan, Policy.end_only(5), fail_step=2)
    lines = format_trace(trace).splitlines()
    assert lines[0] == "execute-ok 1 0.000000"
    assert lines[1] == "execute-fail 2 0.000000"
    assert lines[5] == "confirm 5 1.000000"
    assert lines[6] == "diagnose 1 1.000000"
    assert lines[-1] == f"total {trace.cycles} {trace.total_user_time:.6f}"
    assert len(lines) == len(trace.events) + 1
    for line in lines:
        kind, index, seconds = line.split(" ")
        int(index)
        assert len(seconds.split(".")[1]) == 6


def test_run_stream_is_reproducible_and_uniform():
    a = RunStream(123, 5)
    b = RunStream(123, 5)
    draws_a = [a.random() for _ in range(50)]
    draws_b = [b.random() for _ in range(50)]
    assert draws_a == draws_b
    assert all(0.0 <= u < 1.0 for u in draws_a)
    c = RunStream(123, 6)
    assert [c.random() for _ in range(50)] != draws_a


def test_run_stream_mean_sane():
    total = 0.0
    for run in range(200):
        stream = RunStream(7, run)
        total += sum(stream.random() for _ in range(50))
    mean = total / (200 * 50)
    assert abs(mean - 0.5) < 3 * (1 / math.sqrt(12 * 200 * 50))
