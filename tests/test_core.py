"""Plan validation and probability kernels."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckptsched import (
    EmptyPlanError,
    IndexOutOfRangeError,
    InvalidPolicyError,
    InvalidProbabilityError,
    NegativeCostError,
    Policy,
    StepModel,
    TaskPlan,
    core,
    enumerate_policies,
    evaluate_policy,
    first_error_distribution,
    monte_carlo,
    reachable_states,
    solve,
    survival_probability,
    validate_plan,
)
from ckptsched.core import diagnose_redo_prefix_sums, plan_columns

from oracles import ref_columns, ref_first_error, ref_survival, ref_validate

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

probabilities = st.floats(min_value=0.01, max_value=1.0)
costs = st.floats(min_value=0.0, max_value=10.0)

steps = st.builds(
    StepModel,
    p_a=probabilities,
    t_confirm=costs,
    t_diagnose=costs,
    t_correct=costs,
    t_redo=costs,
)
plans = st.lists(steps, min_size=1, max_size=8).map(TaskPlan)


@st.composite
def plan_with_interval(draw, strict=False):
    plan = draw(plans)
    j = draw(st.integers(min_value=1 if strict else 0, max_value=plan.n))
    i = draw(st.integers(min_value=0, max_value=j - 1 if strict else j))
    return plan, i, j


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_single_trivial_step_is_valid():
    plan = TaskPlan([StepModel(1.0)])
    assert validate_plan(plan) is plan


def test_fig4_plan_is_valid(fig4_plan):
    assert validate_plan(fig4_plan) is fig4_plan
    assert [s.p_a for s in fig4_plan.steps] == [0.7, 0.7, 0.9, 0.85, 0.85]


def test_empty_plan_rejected():
    with pytest.raises(EmptyPlanError):
        validate_plan(TaskPlan([]))


def test_zero_probability_rejected():
    plan = TaskPlan([StepModel(0.9), StepModel(0.0), StepModel(0.9)])
    with pytest.raises(InvalidProbabilityError, match="step 2"):
        validate_plan(plan)


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_out_of_range_probability_rejected(bad):
    with pytest.raises(InvalidProbabilityError):
        validate_plan(TaskPlan([StepModel(bad)]))


@pytest.mark.parametrize("field", ["t_confirm", "t_diagnose", "t_correct", "t_redo"])
@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_bad_costs_rejected(field, bad):
    with pytest.raises(NegativeCostError):
        validate_plan(TaskPlan([StepModel(0.9, **{field: bad})]))


# ---------------------------------------------------------------------------
# The per-plan column set
# ---------------------------------------------------------------------------

GOOD_STEP = StepModel(0.9, 1.0, 2.0, 3.0, 4.0)


def _bad_fields():
    for bad in (0.0, -0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, "0.5", None):
        yield "p_a", bad
    for field in ("t_confirm", "t_diagnose", "t_correct", "t_redo"):
        for bad in (-1.0, -5e-324, math.inf, -math.inf, math.nan, "1", None):
            yield field, bad


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001  (any class: it is compared)
        return type(exc), str(exc)
    return None


def _users(plan):
    """Every way into the plan checks: direct, and through each caller."""
    end = Policy.end_only(plan.n)
    return [
        (validate_plan, plan),
        (lambda p: p.columns, plan),
        (solve, plan),
        (evaluate_policy, plan, end),
        (enumerate_policies, plan),
        (monte_carlo, plan, end, 10, 0),
    ]


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("field,bad", list(_bad_fields()))
def test_each_invalid_field_raises_as_the_step_by_step_checks(field, bad, at):
    """The class and message of the step-by-step checks, naming the first
    bad step even when a later step is bad too."""
    steps = [GOOD_STEP] * 5
    steps[at] = replace(GOOD_STEP, **{field: bad})
    if at < 4:
        steps[4] = replace(GOOD_STEP, t_redo=-2.0)
    plan = TaskPlan(steps)
    want = _raised(ref_validate, plan)
    assert want is not None
    if want[0] is not TypeError:  # a non-number's TypeError names no step
        assert want[1].startswith(f"step {at + 1}: ")
    for fn, *args in _users(plan):
        assert _raised(fn, *args) == want, fn


def test_the_empty_plan_raises_as_the_step_by_step_checks():
    plan = TaskPlan([])
    want = _raised(ref_validate, plan)
    assert want == (EmptyPlanError, "plan must contain at least one step")
    for fn, *args in _users(plan):
        assert _raised(fn, *args) == want, fn


def _bits(column):
    return [(type(x).__name__, float(x).hex()) for x in column]


def _assert_columns_are_the_step_by_step_build(plan):
    cols = plan.columns
    want = ref_columns(plan)
    assert set(cols._fields) == set(want)
    for key, column in want.items():
        got = getattr(cols, key)
        assert type(got) is tuple and _bits(got) == _bits(column), key
    # the public helpers keep their lists, and do not validate
    assert [_bits(c) for c in plan_columns(plan)] == [
        _bits(want[key]) for key in ("p", "tc", "td", "tcor", "tr")
    ]
    assert [_bits(c) for c in diagnose_redo_prefix_sums(plan)] == [
        _bits(want["td_sum"]), _bits(want["tr_sum"])
    ]
    lists = plan_columns(plan) + diagnose_redo_prefix_sums(plan)
    assert all(type(c) is list for c in lists)


@pytest.mark.parametrize("steps", [
    [StepModel(1.0, -0.0, -0.0, -0.0, -0.0)],
    [StepModel(1.0)] * 3,
    [StepModel(5e-324, 0.0, 5e-324, 0.0, 5e-324)] * 2,
    # every cost finite, the columns' sums not
    [StepModel(0.5, 1e308, 1e308, 1e308, 1e308)] * 3,
    [StepModel(1, 0, 1, 2, 3), StepModel(0.5, True, 2, 0, 1)],
], ids=["signed-zero", "certain", "subnormal", "overflowing-sums", "ints"])
def test_edge_plans_stay_valid(steps):
    plan = TaskPlan(steps)
    assert validate_plan(plan) is plan
    _assert_columns_are_the_step_by_step_build(plan)


def test_an_invalid_plan_raises_on_every_use():
    plan = TaskPlan([GOOD_STEP, replace(GOOD_STEP, t_redo=-1.0)])
    for _ in range(3):
        with pytest.raises(NegativeCostError, match="step 2: t_redo = -1.0"):
            validate_plan(plan)
        with pytest.raises(NegativeCostError, match="step 2: t_redo = -1.0"):
            solve(plan)
        assert "columns" not in vars(plan)


def test_a_plan_is_split_once(monkeypatch):
    """solve, the price of its policy, brute force and Monte Carlo check
    and split the plan once between them."""
    calls = 0
    split = core._split

    def counting_split(steps):
        nonlocal calls
        calls += 1
        return split(steps)

    monkeypatch.setattr(core, "_split", counting_split)
    plan = TaskPlan([GOOD_STEP, replace(GOOD_STEP, p_a=0.5)] * 3)
    result = solve(plan)
    evaluate_policy(plan, result.policy)
    validate_plan(plan)
    enumerate_policies(plan)
    monte_carlo(plan, result.policy, 10, 0)
    assert calls == 1


signed_costs = st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=1e308))


@given(st.lists(
    st.builds(StepModel, p_a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
              t_confirm=signed_costs, t_diagnose=signed_costs,
              t_correct=signed_costs, t_redo=signed_costs),
    min_size=1, max_size=30,
))
@settings(max_examples=200)
def test_cached_columns_equal_a_step_by_step_build(steps):
    plan = TaskPlan(steps)
    assert validate_plan(plan) is plan
    _assert_columns_are_the_step_by_step_build(plan)


def test_uniform_constructor_expands():
    plan = TaskPlan.uniform(3, 0.9, t_confirm=1.0, t_redo=2.0)
    assert plan.n == 3
    assert all(s == StepModel(0.9, t_confirm=1.0, t_redo=2.0) for s in plan.steps)


# ---------------------------------------------------------------------------
# Survival probability
# ---------------------------------------------------------------------------


def test_survival_empty_interval_is_one(fig4_plan):
    assert survival_probability(fig4_plan, 3, 3) == 1.0


def test_survival_fig4_spot_values(fig4_plan):
    assert survival_probability(fig4_plan, 0, 2) == pytest.approx(0.49, rel=1e-12)
    assert survival_probability(fig4_plan, 2, 5) == pytest.approx(0.650250, rel=1e-12)


@pytest.mark.parametrize("i,j", [(3, 2), (0, 6), (-1, 2), (6, 6)])
def test_survival_bad_indices(fig4_plan, i, j):
    with pytest.raises(IndexOutOfRangeError):
        survival_probability(fig4_plan, i, j)


# ---------------------------------------------------------------------------
# First-error distribution
# ---------------------------------------------------------------------------


def test_first_error_fig4_spot_values(fig4_plan):
    dist = first_error_distribution(fig4_plan, 0, 2)
    assert [m for m, _ in dist] == [1, 2]
    assert dist[0][1] == pytest.approx(0.30, rel=1e-12)
    assert dist[1][1] == pytest.approx(0.21, rel=1e-12)


def test_first_error_deterministic_plan_is_zero():
    plan = TaskPlan.uniform(5, 1.0)
    assert all(q == 0.0 for _, q in first_error_distribution(plan, 0, 5))


def test_first_error_complements_survival(fig4_plan):
    total = sum(q for _, q in first_error_distribution(fig4_plan, 0, 5))
    assert total == pytest.approx(1.0 - survival_probability(fig4_plan, 0, 5), abs=1e-12)


@pytest.mark.parametrize("i,j", [(2, 2), (3, 1), (0, 6)])
def test_first_error_bad_indices(fig4_plan, i, j):
    with pytest.raises(IndexOutOfRangeError):
        first_error_distribution(fig4_plan, i, j)


# ---------------------------------------------------------------------------
# Kernel invariants
# ---------------------------------------------------------------------------


@given(plan_with_interval())
@settings(max_examples=300)
def test_normalization(case):
    plan, i, j = case
    total = sum(q for _, q in first_error_distribution(plan, i, j)) if i < j else 0.0
    assert abs(total + survival_probability(plan, i, j) - 1.0) <= 1e-12


@given(plan_with_interval())
@settings(max_examples=200)
def test_survival_non_increasing_in_j(case):
    plan, i, _ = case
    values = [survival_probability(plan, i, j) for j in range(i, plan.n + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(plans, st.data())
@settings(max_examples=200)
def test_survival_chain_rule(plan, data):
    i = data.draw(st.integers(0, plan.n))
    j = data.draw(st.integers(i, plan.n))
    k = data.draw(st.integers(j, plan.n))
    whole = survival_probability(plan, i, k)
    split = survival_probability(plan, i, j) * survival_probability(plan, j, k)
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-300)


@given(plan_with_interval(strict=True))
@settings(max_examples=200)
def test_kernels_match_reference(case):
    plan, i, j = case
    assert survival_probability(plan, i, j) == pytest.approx(
        ref_survival(plan, i, j), rel=1e-12
    )
    got = first_error_distribution(plan, i, j)
    want = ref_first_error(plan, i, j)
    assert [m for m, _ in got] == [m for m, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def test_builtin_policies():
    assert Policy.end_only(4).next_ckpt == (4, 4, 4, 4)
    assert Policy.every_step(4).next_ckpt == (1, 2, 3, 4)


def test_policy_validation():
    Policy((2, 3, 5, 5, 5)).validate_for(5)
    with pytest.raises(InvalidPolicyError):
        Policy((2, 3, 5, 5)).validate_for(5)  # not total
    with pytest.raises(InvalidPolicyError):
        Policy((2, 1, 5, 5, 5)).validate_for(5)  # points backwards
    with pytest.raises(InvalidPolicyError):
        Policy((2, 3, 5, 5, 6)).validate_for(5)  # past the end


def test_success_path():
    assert Policy((2, 3, 5, 5, 5)).success_path() == (2, 5)
    assert Policy.end_only(5).success_path() == (5,)
    assert Policy.every_step(3).success_path() == (1, 2, 3)
    for invalid in (Policy([0]), Policy((7, 2))):  # a self-loop; a state past N
        with pytest.raises(InvalidPolicyError):
            invalid.success_path()


def test_reachable_states_all_fallible(fig4_plan):
    # every step can fail, so every verified state can be rolled back to
    assert reachable_states(fig4_plan, Policy.end_only(5)) == frozenset(range(5))
    assert reachable_states(fig4_plan, Policy((2, 3, 5, 5, 5))) == frozenset(range(5))


def test_reachable_states_deterministic_steps():
    # steps 2..4 cannot fail: a single end checkpoint can only ever put the
    # process back at state 0, so intermediate states are never decision points
    plan = TaskPlan([StepModel(0.5, 1, 1, 1, 1)] + [StepModel(1.0, 1, 1, 1, 1)] * 3)
    assert reachable_states(plan, Policy.end_only(4)) == frozenset({0})
    assert reachable_states(plan, Policy.every_step(4)) == frozenset({0, 1, 2, 3})


def test_random_policies_reach_all_states_when_all_steps_fallible(corpus):
    rng = random.Random(7)
    for plan in corpus[:50]:
        policy = Policy(rng.randint(i + 1, plan.n) for i in range(plan.n))
        assert reachable_states(plan, policy) == frozenset(range(plan.n))
