"""Independent reference implementations used only to check the library.

Each function recomputes a quantity by a route the library does not take:
plain product loops for the kernels, a direct double loop over one table
cell instead of the streamed row kernel, a dense linear solve over a policy's
state equations instead of the per-row closed form, and sweep-to-convergence
fixed-point iteration instead of the algebraic fixed point. The plan checks
and columns go step by step, where the library reduces whole columns. The
second moment of a policy's user time, which the library does not compute,
checks the simulators' spread. Three more share the row kernel but not its
callers' bookkeeping: brute force that prices every policy by its own
backwards pass instead of walking the policy tree, a policy pass that hands
every row V as a list instead of one shared array, and a dense (N, N+1)
table filled cell by cell during a backwards pass over whole rows, instead
of rows that stop early and a table streamed from the final values. The
table's reference text formats every cell into a dict before it lays out a
line.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

from ckptsched import (
    EmptyPlanError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NegativeCostError,
    Policy,
    StepModel,
    TaskPlan,
)
from ckptsched.solver import _Columns, _policy_values, _row_costs


def ref_validate(plan: TaskPlan) -> None:
    """The plan checks one step and one field at a time, raising at the
    first bad one."""
    if not plan.steps:
        raise EmptyPlanError("plan must contain at least one step")
    for k, step in enumerate(plan.steps, start=1):
        if not (0.0 < step.p_a <= 1.0):
            raise InvalidProbabilityError(
                f"step {k}: p_a = {step.p_a!r} must lie in (0, 1]"
            )
        for name in ("t_confirm", "t_diagnose", "t_correct", "t_redo"):
            cost = getattr(step, name)
            if not (math.isfinite(cost) and cost >= 0.0):
                raise NegativeCostError(
                    f"step {k}: {name} = {cost!r} must be finite and >= 0"
                )


def ref_columns(plan: TaskPlan) -> dict[str, list[float]]:
    """A plan's columns built step by step: p_a, 1 - p_a, the four costs,
    and the diagnose and redo prefix sums, each a running total from 0.0."""
    cols: dict[str, list[float]] = {
        key: [] for key in ("p", "fail", "tc", "td", "tcor", "tr")
    }
    td_sum, tr_sum = [0.0], [0.0]
    for step in plan.steps:
        cols["p"].append(step.p_a)
        cols["fail"].append(1.0 - step.p_a)
        cols["tc"].append(step.t_confirm)
        cols["td"].append(step.t_diagnose)
        cols["tcor"].append(step.t_correct)
        cols["tr"].append(step.t_redo)
        td_sum.append(td_sum[-1] + step.t_diagnose)
        tr_sum.append(tr_sum[-1] + step.t_redo)
    cols["td_sum"], cols["tr_sum"] = td_sum, tr_sum
    return cols


def ref_survival(plan: TaskPlan, i: int, j: int) -> float:
    return math.prod(s.p_a for s in plan.steps[i:j])


def ref_first_error(plan: TaskPlan, i: int, j: int) -> list[tuple[int, float]]:
    out = []
    for m in range(i + 1, j + 1):
        prefix = math.prod(s.p_a for s in plan.steps[i : m - 1])
        out.append((m, prefix * (1.0 - plan.steps[m - 1].p_a)))
    return out


def interval_cost(
    plan: TaskPlan,
    i: int,
    j: int,
    value: Sequence[float],
    self_value: float,
    include_correct_cost: bool = False,
) -> float:
    """Evaluate T[i, j] directly against a given value vector.

    ``value[m]`` supplies the continuation for states m > i; the continuation
    for state i itself (reached when the very first step of the interval is
    the one that failed) is read from ``self_value``, which may be a trial
    value while a row is still being resolved.
    """
    if not (0 <= i < j <= plan.n):
        raise IndexOutOfRangeError(f"need 0 <= i < j <= {plan.n}, got ({i}, {j})")
    steps = plan.steps
    total = steps[j - 1].t_confirm
    surv = 1.0
    diag = 0.0
    for m in range(i + 1, j + 1):
        step = steps[m - 1]
        q = surv * (1.0 - step.p_a)
        diag += step.t_diagnose
        if q != 0.0:
            redo = 0.0
            for k in range(m, j + 1):
                redo += steps[k - 1].t_redo
            branch = diag + redo
            if include_correct_cost:
                branch += step.t_correct
            branch += self_value if m == i + 1 else value[m - 1]
            total += q * branch
        surv *= step.p_a
    return total + surv * value[j]


def list_policy_values(
    plan: TaskPlan, next_ckpt: Sequence[int], include_correct_cost: bool
) -> list[float]:
    """A fixed policy's backwards pass with V kept as a list: every row, long
    ones too, reads V through the kernel's list route."""
    n = plan.n
    cols = _Columns(plan)
    value = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        a_ij = _row_costs(i, next_ckpt[i], cols, value, include_correct_cost)[-1]
        value[i] = max(a_ij / plan.steps[i].p_a, 0.0)
    return value


def eager_table(plan: TaskPlan, include_correct: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Values and table filled cell by cell during the backwards pass; cells
    with j <= i are NaN. A value or cell that rounds below 0 is 0."""
    n = plan.n
    cols = _Columns(plan)
    value = [0.0] * (n + 1)
    table = np.full((n, n + 1), np.nan)
    for i in range(n - 1, -1, -1):
        a_row = [float(a) for a in _row_costs(i, n, cols, value, include_correct)]
        best = max(min(a / cols.p[i] for a in a_row), 0.0)
        value[i] = best
        for offset, a_ij in enumerate(a_row):
            table[i, i + 1 + offset] = max(a_ij + (1.0 - cols.p[i]) * best, 0.0)
    return np.array(value), table


def dense_solve_output(
    name: str,
    value: Sequence[float],
    policy: Policy,
    include_correct: bool,
    table: np.ndarray,
    precision: int,
) -> str:
    """The text of `ckptsched solve` from a dense table: every cell is
    formatted into a dict first, and the column width is the widest of them."""
    n = table.shape[0]
    lines = [
        f"scenario: {name}",
        f"include_correct_cost: {str(include_correct).lower()}",
        "V: " + " ".join(f"{v:.{precision}f}" for v in value),
        "next_ckpt: " + " ".join(f"{i}>{j}" for i, j in enumerate(policy.next_ckpt)),
        "success path: " + ">".join(str(j) for j in policy.success_path()),
    ]
    cells = {}
    width = len(f"{n}")
    for i in range(n):
        for j in range(i + 1, n + 1):
            mark = "*" if j == policy.next_ckpt[i] else " "
            cells[i, j] = f"{table[i, j]:.{precision}f}{mark}"
            width = max(width, len(cells[i, j]))
    header = "start\\ckpt |" + "".join(f" {j:>{width}}" for j in range(1, n + 1))
    lines.append(header)
    lines.append("-" * len(header))
    for i in range(n):
        row = [f"{i:>10} |"]
        for j in range(1, n + 1):
            row.append(f" {cells.get((i, j), ''):>{width}}")
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def product_enumerate(
    plan: TaskPlan, include_correct_cost: bool = False
) -> tuple[tuple[int, ...] | None, float, int]:
    """Brute force with each policy priced alone by its own backwards pass,
    in lexicographic next_ckpt order, keeping the first strictly smallest v0.

    Returns (best next_ckpt, or None when no v0 is finite; its v0; policies
    priced).
    """
    n = plan.n
    cols = _Columns(plan)
    best_value = math.inf
    best = None
    evaluated = 0
    for candidate in itertools.product(*(range(i + 1, n + 1) for i in range(n))):
        v0 = _policy_values(n, candidate, cols, include_correct_cost)[0]
        evaluated += 1
        if v0 < best_value:
            best_value = v0
            best = candidate
    return best, best_value, evaluated


def _branch_cost(plan: TaskPlan, i: int, m: int, j: int, include_correct: bool) -> float:
    cost = sum(s.t_diagnose for s in plan.steps[i:m])
    cost += sum(s.t_redo for s in plan.steps[m - 1 : j])
    if include_correct:
        cost += plan.steps[m - 1].t_correct
    return cost


def linear_policy_values(
    plan: TaskPlan, policy: Policy, include_correct: bool
) -> np.ndarray:
    """Policy values by solving the full linear state-equation system.

    Row i states: V[i] - S(i,j) V[j] - sum_m q(m) V[m-1] = confirm + error
    costs, with j the policy's checkpoint. No row-local fixed point is used;
    the self-reference sits in the matrix like any other coupling.
    """
    n = plan.n
    A = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    A[n, n] = 1.0
    for i in range(n):
        j = policy.next_ckpt[i]
        A[i, i] += 1.0
        A[i, j] -= ref_survival(plan, i, j)
        rhs = plan.steps[j - 1].t_confirm
        for m, q in ref_first_error(plan, i, j):
            rhs += q * _branch_cost(plan, i, m, j, include_correct)
            A[i, m - 1] -= q
        b[i] = rhs
    return np.linalg.solve(A, b)


def policy_moments(
    plan: TaskPlan, policy: Policy, include_correct: bool
) -> tuple[list[float], list[float]]:
    """Mean V[i] and second moment W[i] of the user time from state i under a
    fixed policy, by first-step analysis over the outcomes o of one confirm
    interval, each with probability P(o), cost c_o and next state x_o:

        V[i] = sum_o P(o) (c_o + V[x_o])
        W[i] = sum_o P(o) (c_o**2 + 2 c_o V[x_o] + W[x_o])

    The first error at step i+1 returns to state i, with probability
    1 - p_a of that step; moving its V[i] and W[i] terms to the left solves
    both in closed form. Uses none of the library's kernels.
    """
    n = plan.n
    value = [0.0] * (n + 1)
    second = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        j = policy.next_ckpt[i]
        confirm = plan.steps[j - 1].t_confirm
        surv = ref_survival(plan, i, j)
        mean = surv * (confirm + value[j])
        square = surv * (confirm * confirm + 2.0 * confirm * value[j] + second[j])
        loop_q = loop_cost = 0.0
        for m, q in ref_first_error(plan, i, j):
            cost = confirm + _branch_cost(plan, i, m, j, include_correct)
            if m == i + 1:
                loop_q, loop_cost = q, cost
            else:
                mean += q * (cost + value[m - 1])
                square += q * (cost * cost + 2.0 * cost * value[m - 1] + second[m - 1])
        p_next = plan.steps[i].p_a
        value[i] = (mean + loop_q * loop_cost) / p_next
        second[i] = (square + loop_q * (loop_cost * loop_cost + 2.0 * loop_cost * value[i])) / p_next
    return value, second


def iterate_to_fixed_point(
    plan: TaskPlan,
    include_correct: bool,
    tol: float = 1e-13,
    max_sweeps: int = 200_000,
) -> tuple[list[float], list[int]]:
    """Optimal values by repeated full table sweeps until convergence."""
    n = plan.n
    value = [0.0] * (n + 1)
    next_ckpt = [0] * n
    for _ in range(max_sweeps):
        new = [0.0] * (n + 1)
        delta = 0.0
        for i in range(n - 1, -1, -1):
            best = math.inf
            best_j = -1
            for j in range(i + 1, n + 1):
                t = plan.steps[j - 1].t_confirm
                t += ref_survival(plan, i, j) * new[j]
                for m, q in ref_first_error(plan, i, j):
                    cont = value[i] if m - 1 == i else new[m - 1]
                    t += q * (_branch_cost(plan, i, m, j, include_correct) + cont)
                if t < best:
                    best = t
                    best_j = j
            new[i] = best
            next_ckpt[i] = best_j
            delta = max(delta, abs(new[i] - value[i]))
        value = new
        if delta < tol:
            return value, next_ckpt
    raise AssertionError("fixed-point iteration did not converge")


def random_plan(
    rng: random.Random,
    n_lo: int = 2,
    n_hi: int = 6,
    p_lo: float = 0.5,
    p_hi: float = 1.0,
    cost_hi: float = 10.0,
    uniform_t_correct: bool = False,
) -> TaskPlan:
    n = rng.randint(n_lo, n_hi)
    shared_correct = rng.uniform(0.0, cost_hi)
    return TaskPlan(
        StepModel(
            p_a=rng.uniform(p_lo, p_hi),
            t_confirm=rng.uniform(0.0, cost_hi),
            t_diagnose=rng.uniform(0.0, cost_hi),
            t_correct=shared_correct if uniform_t_correct else rng.uniform(0.0, cost_hi),
            t_redo=rng.uniform(0.0, cost_hi),
        )
        for _ in range(n)
    )


def redo_then_free_steps(p_a: float, free: int = 28) -> TaskPlan:
    """A step with a redo cost, then ``free`` steps that cost nothing. The
    free states' values are 0, but the row kernel's redo sums cancel and
    round them to tiny negatives before they are clamped (-1.98e-17 at
    p_a = 0.7, down to -4.6e-16 at 0.3, with 28 free steps)."""
    return TaskPlan([StepModel(p_a, t_redo=0.1)] + [StepModel(p_a)] * free)
