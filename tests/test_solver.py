"""Solver against frozen values, independent oracles, and its own table."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckptsched import (
    IndexOutOfRangeError,
    InvalidProbabilityError,
    InvalidPolicyError,
    PlanOverflowError,
    Policy,
    StepModel,
    TaskPlan,
    evaluate_policy,
    solve,
    solver,
)

from oracles import (
    interval_cost,
    iterate_to_fixed_point,
    linear_policy_values,
    list_policy_values,
)

# Optimal values for the five-step example (p = [.7, .7, .9, .85, .85], unit
# costs), frozen from a dense linear solve over exhaustively enumerated
# policies, which shares no code with solve().
FIG4_VALUE = [7.511996101774044, 5.48288538748833, 3.2183496732026144,
              2.3852941176470592, 1.5294117647058825, 0.0]
FIG4_VALUE_WITH_CORRECT = [8.8331912464986, 6.375509103641457,
                           3.682401960784314, 2.738235294117647,
                           1.7058823529411766, 0.0]
FIG4_POLICY = (2, 3, 5, 5, 5)
FIG4_END_ONLY = [9.684353244631186, 6.139528244631187, 3.2183496732026144,
                 2.3852941176470592, 1.5294117647058825, 0.0]
FIG4_EVERY_STEP = [8.963585434173671, 6.677871148459385, 4.392156862745098,
                   3.058823529411765, 1.5294117647058825, 0.0]

probabilities = st.floats(min_value=0.05, max_value=1.0)
costs = st.floats(min_value=0.0, max_value=10.0)
plan_strategy = st.lists(
    st.builds(StepModel, p_a=probabilities, t_confirm=costs, t_diagnose=costs,
              t_correct=costs, t_redo=costs),
    min_size=1, max_size=7,
).map(TaskPlan)


# ---------------------------------------------------------------------------
# solve(): worked example and small cases
# ---------------------------------------------------------------------------


def test_fig4_frozen_values(fig4_plan):
    result = solve(fig4_plan)
    assert result.policy.next_ckpt == FIG4_POLICY
    assert np.allclose(result.value, FIG4_VALUE, rtol=1e-12)
    assert not result.include_correct_cost


def test_fig4_frozen_values_with_correct_cost(fig4_plan):
    result = solve(fig4_plan, include_correct_cost=True)
    assert result.policy.next_ckpt == FIG4_POLICY
    assert np.allclose(result.value, FIG4_VALUE_WITH_CORRECT, rtol=1e-12)


@pytest.mark.parametrize("flag", [False, True])
def test_fig4_agrees_with_fixed_point_iteration(fig4_plan, flag):
    value, next_ckpt = iterate_to_fixed_point(fig4_plan, flag)
    result = solve(fig4_plan, flag)
    assert tuple(next_ckpt) == result.policy.next_ckpt
    assert np.allclose(result.value, value, rtol=1e-9)


def test_single_step_plan():
    result = solve(TaskPlan([StepModel(1.0, t_confirm=2.0)]))
    assert result.value.tolist() == [2.0, 0.0]
    assert result.policy.next_ckpt == (1,)


def test_solve_rejects_invalid_plan():
    with pytest.raises(InvalidProbabilityError):
        solve(TaskPlan([StepModel(0.0)]))


@pytest.mark.parametrize("step", [
    StepModel(1e-308, t_confirm=1.0),
    StepModel(0.5, t_confirm=1.7e308),
])
def test_solve_overflow_is_a_typed_error(step):
    with pytest.raises(PlanOverflowError):
        solve(TaskPlan([step] * 3))


@pytest.mark.parametrize("cut", [solver.ROW_CUT, 1])
@pytest.mark.parametrize("plan", [
    TaskPlan([StepModel(1e-308, t_confirm=1.0)] * (solver.ROW_CUT + 3)),
    TaskPlan([StepModel(0.5, t_confirm=1.7e308)] * (solver.ROW_CUT + 3)),
    # only row 0, which is long, overflows
    TaskPlan([StepModel(1e-309, t_confirm=1.0)]
             + [StepModel(0.9, t_confirm=1.0)] * solver.ROW_CUT),
])
def test_solve_overflow_past_the_cut_is_a_typed_error(monkeypatch, plan, cut):
    monkeypatch.setattr(solver, "ROW_CUT", cut)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the numpy body overflows silently too
        with pytest.raises(PlanOverflowError):
            solve(plan)


def test_t_table_overflow_writes_no_warning():
    """A short plan's table cells may overflow to inf; pricing them is as
    quiet as the backwards pass that gave the finite values."""
    plan = TaskPlan([
        StepModel(0.9, t_diagnose=1e300, t_correct=1.7e308, t_redo=1e307),
        StepModel(1.0, t_confirm=1.7e308, t_diagnose=1.0, t_correct=1e307, t_redo=1e300),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(plan)
        table = result.t_table
    assert np.isfinite(result.value).all()
    assert not np.isfinite(table[0, 1:]).all()


def test_t_table_shape_and_sentinels(fig4_plan):
    table = solve(fig4_plan).t_table
    assert table.shape == (5, 6)
    for i in range(5):
        assert np.isnan(table[i, : i + 1]).all()
        assert np.isfinite(table[i, i + 1 :]).all()


# ---------------------------------------------------------------------------
# The row kernel: scalar and numpy bodies, the lazy table
# ---------------------------------------------------------------------------


def _row_both_ways(monkeypatch, i, upto, cols, value, flag):
    """One row from each body of _row_costs, as arrays."""
    monkeypatch.setattr(solver, "ROW_CUT", 10**9)
    scalar = solver._row_costs(i, upto, cols, list(value), flag)
    assert isinstance(scalar, list)
    monkeypatch.setattr(solver, "ROW_CUT", 1)
    with np.errstate(all="ignore"):  # inf * 0 in the rows that read inf
        by_list = solver._row_costs(i, upto, cols, list(value), flag)
        by_array = solver._row_costs(i, upto, cols, np.array(value), flag)
    assert isinstance(by_array, np.ndarray)
    assert by_list.tobytes() == by_array.tobytes()
    return np.array(scalar), by_array


def _kernel_plans(rng, n):
    """A random plan, one with p_a = 1 steps mixed in, and one with zero
    costs of both signs."""
    yield [StepModel(rng.uniform(0.3, 1.0), *(rng.uniform(0, 10) for _ in range(4)))
           for _ in range(n)]
    yield [StepModel(1.0 if k % 3 else rng.uniform(0.5, 1.0),
                     *(rng.uniform(0, 10) for _ in range(4))) for k in range(n)]
    yield [StepModel(1.0 if k % 2 else 0.75, -0.0, 0.0, -0.0, 0.0) for k in range(n)]


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("length", [1, solver.ROW_CUT - 1, solver.ROW_CUT,
                                    solver.ROW_CUT + 1, 200])
def test_row_kernel_bodies_are_bit_identical(monkeypatch, length, flag):
    rng = random.Random(length)
    n = length + 3
    for steps in _kernel_plans(rng, n):
        cols = solver._Columns(TaskPlan(steps))
        finite = [rng.uniform(0, 50) for _ in range(n)] + [0.0]
        with_inf = list(finite)
        with_inf[n - 2] = math.inf
        with_inf[1] = math.inf
        for value in (finite, with_inf, [0.0] * (n + 1)):
            for i, upto in ((0, length), (3, n), (n - length, n)):
                scalar, vector = _row_both_ways(monkeypatch, i, upto, cols, value, flag)
                assert len(vector) == upto - i
                assert scalar.tobytes() == vector.tobytes()


def test_row_min_ranks_nan_last_and_keeps_the_earliest_tie():
    nan, inf = math.nan, math.inf
    rows = [
        [nan, 3.0, 1.0, nan, 1.0],
        [inf, nan, inf],
        [nan, nan],
        [2.0, 2.0, 5.0],
        [inf, 4.0, -0.0, 0.0],
    ]
    for row in rows:
        want = solver._row_min(list(row), 0.5)
        got = solver._row_min(np.array(row), 0.5)
        assert got == want
    assert solver._row_min([nan, 3.0, 1.0, nan, 1.0], 0.5) == (2.0, 2)
    assert solver._row_min([inf, nan, inf], 0.5) == (inf, -1)


def _eager_table(plan, flag):
    """Values and table filled cell by cell during the backwards pass."""
    n = plan.n
    cols = solver._Columns(plan)
    value = [0.0] * (n + 1)
    table = np.full((n, n + 1), np.nan)
    for i in range(n - 1, -1, -1):
        a_row = [float(a) for a in solver._row_costs(i, n, cols, value, flag)]
        best = min(a / cols.p[i] for a in a_row)
        value[i] = best
        for offset, a_ij in enumerate(a_row):
            table[i, i + 1 + offset] = a_ij + (1.0 - cols.p[i]) * best
    return np.array(value), table


@pytest.mark.parametrize("flag", [False, True])
def test_lazy_t_table_equals_eager_table(fig4_plan, flag):
    from oracles import random_plan

    rng = random.Random(17)
    plans = [fig4_plan, random_plan(rng, n_lo=solver.ROW_CUT + 5, n_hi=90)]
    for plan in plans:
        result = solve(plan, flag)
        value, table = _eager_table(plan, flag)
        assert result.value.tobytes() == value.tobytes()
        assert result.t_table.tobytes() == table.tobytes()


def test_t_table_is_priced_once_on_first_read(fig4_plan, monkeypatch):
    result = solve(fig4_plan)
    priced = []
    row_costs = solver._row_costs
    monkeypatch.setattr(
        solver, "_row_costs", lambda *a: priced.append(a[0]) or row_costs(*a)
    )
    first = result.t_table
    assert sorted(priced) == list(range(fig4_plan.n))
    assert result.t_table is first
    assert len(priced) == fig4_plan.n


def test_solve_does_not_build_the_table():
    rng = random.Random(2000)
    n = 2000
    plan = TaskPlan(StepModel(rng.uniform(0.85, 0.999), *(rng.uniform(0, 10) for _ in range(4)))
                    for _ in range(n))
    table_bytes = n * (n + 1) * 8  # 31 MiB
    tracemalloc.start()
    try:
        result = solve(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 16
    assert "t_table" not in vars(result)


# ---------------------------------------------------------------------------
# solve() stops each row early: exactness, the tight family, work done
# ---------------------------------------------------------------------------


def _tight_steps(rng, n):
    """n steps ending in a run of p_a = 1 steps with t_redo = 0, the last
    with t_confirm = 0: for a row that starts before the run, cell N equals
    lb(i, J) bit for bit at every J in the run, so a row stopped on any
    weaker bound than lb > best + tau loses cell N where it wins."""
    tail = rng.randint(1, n)
    steps = [StepModel(rng.uniform(0.3, 1.0), *(rng.uniform(0, 10) for _ in range(4)))
             for _ in range(n - tail)]
    steps += [StepModel(1.0, rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10), 0.0)
              for _ in range(tail - 1)]
    steps.append(StepModel(1.0, 0.0, rng.uniform(0, 10), rng.uniform(0, 10), 0.0))
    return steps


def _stop_rule_plans(rng, n):
    """Plans whose rows stop early, late or never: random p_a in [0.3, 1],
    the benchmark's [0.85, 0.999], [0.99, 1] (long numpy prefixes), runs of
    p_a = 1, zero costs of both signs, uniform plans with exact ties,
    near-overflow costs and the tight family."""
    def costs(hi=10.0):
        return [rng.uniform(0, hi) for _ in range(4)]

    yield [StepModel(rng.uniform(0.3, 1.0), *costs()) for _ in range(n)]
    yield [StepModel(rng.uniform(0.85, 0.999), *costs()) for _ in range(n)]
    yield [StepModel(rng.uniform(0.99, 1.0), *costs()) for _ in range(n)]
    yield [StepModel(1.0 if (k // 5) % 2 else rng.uniform(0.3, 1.0), *costs())
           for k in range(n)]
    yield [StepModel(rng.choice([1.0, 0.75, 0.5]),
                     *(rng.choice([0.0, -0.0, 1.0]) for _ in range(4))) for _ in range(n)]
    yield [StepModel(1.0)] * n  # every cell 0: all ties
    yield [StepModel(0.5, 1.0, 1.0, 1.0, 1.0)] * n
    scale = rng.choice([1e300, 1e306, 1.7e308 / (4 * n)])
    yield [StepModel(rng.uniform(0.3, 1.0), *costs(scale)) for _ in range(n)]
    yield _tight_steps(rng, n)


def _full_row_pass_overflows(plan, flag):
    """Whether the backwards pass over whole rows meets a row with no finite
    candidate, as solve() did before rows stopped early."""
    n = plan.n
    cols = solver._Columns(plan)
    value = [0.0] * (n + 1)
    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            value[i], offset = solver._row_min(
                solver._row_costs(i, n, cols, value, flag), cols.p[i]
            )
            if offset < 0:
                return True
    return False


def _assert_rows_are_whole_row_minima(plan, flag):
    """solve()'s value[i] and next_ckpt[i] are the minimum and argmin of row
    i priced out to state N from the returned V, bit for bit."""
    try:
        result = solve(plan, flag)
    except PlanOverflowError:
        assert _full_row_pass_overflows(plan, flag)
        return
    n = plan.n
    cols = solver._Columns(plan)
    value = result.value.tolist()
    with np.errstate(all="ignore"):
        for i in range(n):
            best, offset = solver._row_min(
                solver._row_costs(i, n, cols, value, flag), cols.p[i]
            )
            assert (best.hex(), offset) == (
                value[i].hex(), result.policy.next_ckpt[i] - i - 1
            ), (n, i)


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 27, 28, 29, solver.STREAM_CELLS - 1,
                               solver.STREAM_CELLS, solver.STREAM_CELLS + 1,
                               63, 64, 65, 130, 400])
def test_stopped_rows_equal_whole_rows_bit_for_bit(n, flag):
    rng = random.Random(n)
    for steps in _stop_rule_plans(rng, n):
        _assert_rows_are_whole_row_minima(TaskPlan(steps), flag)


@pytest.mark.parametrize("flag", [False, True])
def test_stop_rule_is_exact_on_the_tight_family(flag):
    """The family where a later cell meets the bound with equality."""
    rng = random.Random(600 + flag)
    for _ in range(150):
        n = rng.randint(2, 120)
        _assert_rows_are_whole_row_minima(TaskPlan(_tight_steps(rng, n)), flag)


@pytest.mark.parametrize("flag", [False, True])
def test_stopping_loop_cells_equal_the_scalar_body(flag):
    """_stream_row keeps its own copy of the cell formula; pin it to
    _row_costs' scalar body cell by cell. V[j] is set to make cell j just
    below every earlier cell of row i cut at j, so the loop's best is that
    cell over p_next, and its low bits still carry every term."""
    rng = random.Random(41)
    for k in range(6):
        steps = [StepModel(1.0 if k % 2 else rng.uniform(0.6, 1.0),
                           *(rng.uniform(0, 10) for _ in range(4))) for _ in range(10)]
        for j in range(1, len(steps) + 1):
            cols = solver._Columns(TaskPlan(steps[:j]))
            for i in range(j):
                value = [rng.uniform(0, 50) for _ in range(j)] + [0.0]
                cells = solver._row_costs(i, j, cols, value, flag)
                lower = max(0.0, cells[-1] - min(cells[:-1], default=cells[-1])) + 1.0
                value[j] = -lower / math.prod(cols.p[i:j])
                cells = solver._row_costs(i, j, cols, value, flag)
                assert all(c > cells[-1] for c in cells[:-1])
                best, offset, need = solver._stream_row(i, j, cols, value, flag, math.inf)
                assert (best.hex(), offset, need) == (
                    (cells[-1] / cols.p[i]).hex(), j - i - 1, j - i
                )


def test_solve_prices_a_bounded_number_of_cells(monkeypatch):
    """A deterministic guard against rows sliding back to full length: on a
    1000-step plan with p in [0.85, 0.999] a row stops after about 30 cells,
    where whole rows average 500."""
    rng = random.Random(1000)
    n = 1000
    plan = TaskPlan(StepModel(rng.uniform(0.85, 0.999), *(rng.uniform(0, 10) for _ in range(4)))
                    for _ in range(n))
    cells = 0
    stream_row, long_row_costs = solver._stream_row, solver._long_row_costs

    def counting_stream_row(i, upto, *args):
        nonlocal cells
        row = stream_row(i, upto, *args)
        cells += upto - i if row is None else row[2]
        return row

    def counting_long_row_costs(i, upto, *args):
        nonlocal cells
        cells += upto - i
        return long_row_costs(i, upto, *args)

    monkeypatch.setattr(solver, "_stream_row", counting_stream_row)
    monkeypatch.setattr(solver, "_long_row_costs", counting_long_row_costs)
    solve(plan)
    assert n <= cells <= 64 * n


# ---------------------------------------------------------------------------
# interval_cost() (tests/oracles.py)
# ---------------------------------------------------------------------------


def test_interval_cost_deterministic_steps_only_confirm():
    plan = TaskPlan.uniform(4, 1.0, t_confirm=1.0, t_diagnose=5.0, t_redo=5.0)
    assert interval_cost(plan, 0, 4, [0.0] * 5, self_value=0.0) == 1.0


def test_interval_cost_one_step_fixed_point(fig4_plan):
    # interval (4, 5]: survive at 0.85, fail costs one diagnose + one redo
    value = [0.0] * 6
    assert interval_cost(fig4_plan, 4, 5, value, self_value=0.0) == pytest.approx(
        1.30, rel=1e-12
    )
    v = 1.30 / 0.85
    assert interval_cost(fig4_plan, 4, 5, value, self_value=v) == pytest.approx(
        v, rel=1e-12
    )
    assert v == pytest.approx(1.5294117647058825, rel=1e-12)


def test_interval_cost_sure_segment_reduces_to_confirm_plus_value():
    plan = TaskPlan.uniform(5, 1.0, t_confirm=2.5, t_diagnose=3.0, t_redo=4.0)
    value = [0.0, 0.0, 0.0, 7.25, 0.0, 0.0]
    assert interval_cost(plan, 1, 3, value, self_value=99.0) == 2.5 + 7.25


@pytest.mark.parametrize("i,j", [(2, 2), (3, 1), (0, 6), (-1, 3)])
def test_interval_cost_bad_indices(fig4_plan, i, j):
    with pytest.raises(IndexOutOfRangeError):
        interval_cost(fig4_plan, i, j, [0.0] * 6, self_value=0.0)


@pytest.mark.parametrize("flag", [False, True])
def test_t_table_cells_match_interval_cost(fig4_plan, flag):
    rng = random.Random(5)
    from oracles import random_plan

    for plan in [fig4_plan] + [random_plan(rng) for _ in range(25)]:
        result = solve(plan, flag)
        value = result.value.tolist()
        for i in range(plan.n):
            for j in range(i + 1, plan.n + 1):
                direct = interval_cost(plan, i, j, value, value[i], flag)
                assert result.t_table[i, j] == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("flag", [False, True])
def test_fixed_point_substitution(fig4_plan, flag):
    result = solve(fig4_plan, flag)
    value = result.value.tolist()
    for i in range(fig4_plan.n):
        j = result.policy.next_ckpt[i]
        reproduced = interval_cost(fig4_plan, i, j, value, value[i], flag)
        assert reproduced == pytest.approx(value[i], rel=1e-9)


# ---------------------------------------------------------------------------
# evaluate_policy()
# ---------------------------------------------------------------------------


def test_end_only_and_every_step_frozen(fig4_plan):
    assert np.allclose(
        evaluate_policy(fig4_plan, Policy.end_only(5)), FIG4_END_ONLY, rtol=1e-12
    )
    assert np.allclose(
        evaluate_policy(fig4_plan, Policy.every_step(5)), FIG4_EVERY_STEP, rtol=1e-12
    )


def test_end_only_deterministic_unit_confirm():
    plan = TaskPlan.uniform(6, 1.0, t_confirm=1.0)
    assert evaluate_policy(plan, Policy.end_only(6))[0] == 1.0


def test_evaluate_policy_rejects_bad_policy(fig4_plan):
    with pytest.raises(InvalidPolicyError):
        evaluate_policy(fig4_plan, Policy((1, 2, 3)))


@pytest.mark.parametrize("n", [3, solver.ROW_CUT + 2])
def test_evaluate_policy_overflow_is_a_typed_error(n):
    """The optimal policy is finite here and end-only is not."""
    plan = TaskPlan.uniform(n, 0.5, t_confirm=1.0, t_redo=1.5e308 / n)
    assert np.isfinite(solve(plan).value).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlanOverflowError, match="under the policy"):
            evaluate_policy(plan, Policy.end_only(n))


@pytest.mark.parametrize("flag", [False, True])
def test_evaluate_policy_matches_linear_system(flag):
    from oracles import random_plan

    rng = random.Random(99)
    for _ in range(40):
        plan = random_plan(rng)
        policy = Policy(rng.randint(i + 1, plan.n) for i in range(plan.n))
        got = evaluate_policy(plan, policy, flag)
        want = linear_policy_values(plan, policy, flag)
        assert np.allclose(got, want, rtol=1e-9)


def _mixed_policy(rng: random.Random, n: int) -> Policy:
    """Rows of both kernel bodies in a random order: each row is long (at
    least ROW_CUT cells) with probability 0.4 where the plan leaves room."""
    cut = solver.ROW_CUT
    return Policy(
        rng.randint(i + cut, n) if i + cut <= n and rng.random() < 0.4
        else rng.randint(i + 1, min(n, i + cut - 1))
        for i in range(n)
    )


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("n", [solver.ROW_CUT - 1, solver.ROW_CUT,
                               solver.ROW_CUT + 1, 2 * solver.ROW_CUT + 5])
def test_evaluate_policy_equals_list_pass_bit_for_bit(n, flag):
    """Long rows read V from one shared array, short rows from the list; the
    values are those of a pass that hands every row the list."""
    rng = random.Random(n)
    for k in range(12):
        plan = TaskPlan(
            StepModel(1.0 if k % 3 == 2 else rng.uniform(0.5, 1.0),
                      *(rng.uniform(0, 10) for _ in range(4)))
            for _ in range(n)
        )
        policies = [Policy.end_only(n), Policy.every_step(n)]
        policies += [_mixed_policy(rng, n) for _ in range(4)]
        for policy in policies:
            got = evaluate_policy(plan, policy, flag)
            want = np.array(list_policy_values(plan, policy.next_ckpt, flag))
            assert got.tobytes() == want.tobytes(), (k, policy.next_ckpt)


def test_short_rows_never_build_the_array(monkeypatch):
    plan = TaskPlan.uniform(200, 0.9, t_confirm=1.0, t_redo=1.0)
    solved = solve(plan)
    policy = solved.policy
    assert max(j - i for i, j in enumerate(policy.next_ckpt)) < solver.ROW_CUT

    def no_array(*args, **kwargs):
        raise AssertionError("short rows built an array")

    monkeypatch.setattr(np, "empty", no_array)
    assert evaluate_policy(plan, policy).tobytes() == solved.value.tobytes()


def test_self_consistency_is_exact(fig4_plan):
    result = solve(fig4_plan)
    assert np.array_equal(evaluate_policy(fig4_plan, result.policy), result.value)


# ---------------------------------------------------------------------------
# Optimality properties
# ---------------------------------------------------------------------------


@given(plan_strategy)
@settings(max_examples=150, deadline=None)
def test_dominance_over_baselines(plan):
    result = solve(plan)
    v_end = evaluate_policy(plan, Policy.end_only(plan.n))[0]
    v_every = evaluate_policy(plan, Policy.every_step(plan.n))[0]
    assert result.value[0] <= v_end + 1e-12
    assert result.value[0] <= v_every + 1e-12


@given(plan_strategy, st.booleans())
@settings(max_examples=150, deadline=None)
def test_policy_self_consistency(plan, flag):
    result = solve(plan, flag)
    again = evaluate_policy(plan, result.policy, flag)
    assert np.allclose(again, result.value, rtol=1e-9)


@given(plan_strategy, st.booleans())
@settings(max_examples=100, deadline=None)
def test_row_minimum_structure(plan, flag):
    result = solve(plan, flag)
    for i in range(plan.n):
        row = result.t_table[i, i + 1 :]
        j = result.policy.next_ckpt[i]
        assert result.value[i] == pytest.approx(np.nanmin(row), rel=1e-12)
        # smallest argmin wins ties
        assert j - i - 1 == int(np.nanargmin(row))


def test_scaling_covariance_exact_power_of_two(fig4_plan):
    scaled = TaskPlan(
        StepModel(s.p_a, s.t_confirm * 1024, s.t_diagnose * 1024,
                  s.t_correct * 1024, s.t_redo * 1024)
        for s in fig4_plan.steps
    )
    base = solve(fig4_plan)
    big = solve(scaled)
    assert big.policy.next_ckpt == base.policy.next_ckpt
    assert np.array_equal(big.value, base.value * 1024)


def test_scaling_covariance_general_factor(fig4_plan):
    c = 3.7
    scaled = TaskPlan(
        StepModel(s.p_a, s.t_confirm * c, s.t_diagnose * c, s.t_correct * c,
                  s.t_redo * c)
        for s in fig4_plan.steps
    )
    base = solve(fig4_plan)
    big = solve(scaled)
    assert big.policy.next_ckpt == base.policy.next_ckpt
    assert np.allclose(big.value, base.value * c, rtol=1e-9)


def test_deterministic_plan_prefers_single_end_checkpoint():
    plan = TaskPlan.uniform(7, 1.0, t_confirm=3.0, t_diagnose=1.0, t_redo=1.0)
    result = solve(plan)
    assert result.policy.next_ckpt == tuple([7] * 7)
    assert result.value.tolist() == [3.0] * 7 + [0.0]
