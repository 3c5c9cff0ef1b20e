"""Expected-time table and optimal checkpoint extraction.

The cost of running from verified state i with the next confirmation at
state j is

    T[i, j] = t_confirm_j + S(i, j) * V[j]
              + sum over m in i+1..j of q(m) * (
                    sum of t_diagnose over i+1..m
                    + t_correct_m                  (optional, see below)
                    + sum of t_redo over m..j
                    + V[m - 1])

where S(i, j) is the interval survival probability, q(m) the first-error
probability, and V[x] = min over k of T[x, k] the optimal remaining time
from verified state x (V[N] = 0).

The m = i+1 error term returns the process to state i, so T[i, j] contains
the row's own unknown V[i]:

    T[i, j] = a(i, j) + (1 - p_next) * V[i],    p_next = p_a of step i+1.

Each candidate's self-consistent value is therefore v_j = a(i, j) / p_next,
and because 1 - p_next < 1 the map v -> min_j (a(i,j) + (1-p_next) v) is a
contraction whose unique fixed point is min_j v_j. The solver works backwards
from i = N-1, resolving each row in closed form and keeping the smallest
argmin j on ties (earliest checkpoint).

``include_correct_cost`` switches the t_correct term on. It defaults to off:
every error must be corrected exactly once whichever schedule is used, so the
term is dropped from the optimization by default, and both variants are
exposed so that claim can be checked rather than assumed.

Row i is computed in O(1) amortized per cell via prefix sums and a running
survival product, keeping the whole solve at O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    IndexOutOfRangeError,
    PlanOverflowError,
    Policy,
    TaskPlan,
    diagnose_redo_prefix_sums,
    plan_columns,
    validate_plan,
)


@dataclass(frozen=True)
class SolveResult:
    """Solved table plus the extracted policy.

    t_table[i][j] is the expected user time from verified state i with the
    next checkpoint at j, assuming optimal behaviour afterwards; cells with
    j <= i are NaN. value[i] is the row minimum (value[N] = 0) and
    policy.next_ckpt[i] the smallest j attaining it.
    """

    t_table: np.ndarray
    value: np.ndarray
    policy: Policy
    include_correct_cost: bool


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


def _row_costs(
    i: int,
    upto: int,
    p: Sequence[float],
    tc: Sequence[float],
    tcor: Sequence[float],
    td_sum: Sequence[float],
    tr_sum: Sequence[float],
    value: Sequence[float],
    include_correct_cost: bool,
) -> list[float]:
    """a(i, j) for j = i+1..upto: the cell cost minus the self term.

    Streamed left to right so the whole row costs O(upto - i): the error
    branch keeps running sums, with each error's redo tail folded in at the
    end as acc_q * TR[j]. solve() and evaluate_policy() both price rows
    through here, so a fixed policy is charged bit-identically to the
    corresponding table cells; dominance checks rely on that.
    """
    out = []
    surv = 1.0  # survival through steps i+1..j-1
    acc_q = 0.0  # total first-error mass over m <= j
    acc_err = 0.0  # j-independent part of the error branch
    base_td = td_sum[i]
    for j in range(i + 1, upto + 1):
        q = surv * (1.0 - p[j - 1])
        term = td_sum[j] - base_td - tr_sum[j - 1]
        if include_correct_cost:
            term += tcor[j - 1]
        if j > i + 1:
            term += value[j - 1]
        acc_err += q * term
        acc_q += q
        surv *= p[j - 1]
        out.append(tc[j - 1] + surv * value[j] + acc_err + acc_q * tr_sum[j])
    return out


def solve(plan: TaskPlan, include_correct_cost: bool = False) -> SolveResult:
    """Fill the full expected-time table and extract the optimal policy."""
    validate_plan(plan)
    n = plan.n
    p, tc, _, tcor, _ = plan_columns(plan)
    td_sum, tr_sum = diagnose_redo_prefix_sums(plan)

    value = [0.0] * (n + 1)
    next_ckpt = [0] * n
    table = np.full((n, n + 1), np.nan)

    for i in range(n - 1, -1, -1):
        p_next = p[i]
        a_row = _row_costs(
            i, n, p, tc, tcor, td_sum, tr_sum, value, include_correct_cost
        )
        best = math.inf
        best_j = -1
        for offset, a_ij in enumerate(a_row):
            v_j = a_ij / p_next
            if v_j < best:
                best = v_j
                best_j = i + 1 + offset
        if best_j < 0:
            raise PlanOverflowError(
                f"expected time from state {i} is not a finite float64"
            )
        value[i] = best
        next_ckpt[i] = best_j
        residual = (1.0 - p_next) * best
        for offset, a_ij in enumerate(a_row):
            table[i, i + 1 + offset] = a_ij + residual

    return SolveResult(
        t_table=table,
        value=np.array(value),
        policy=Policy(next_ckpt),
        include_correct_cost=include_correct_cost,
    )


def evaluate_policy(
    plan: TaskPlan, policy: Policy, include_correct_cost: bool = False
) -> np.ndarray:
    """Expected time-to-completion per state under a fixed policy.

    Same backwards recursion as solve() with the checkpoint pinned to
    policy.next_ckpt[i] per row; dominated by solve()'s values everywhere.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    p, tc, _, tcor, _ = plan_columns(plan)
    td_sum, tr_sum = diagnose_redo_prefix_sums(plan)
    values = _policy_values(
        plan.n, policy.next_ckpt, p, tc, tcor, td_sum, tr_sum, include_correct_cost
    )
    return np.array(values)


def _policy_values(
    n: int,
    next_ckpt: Sequence[int],
    p: Sequence[float],
    tc: Sequence[float],
    tcor: Sequence[float],
    td_sum: Sequence[float],
    tr_sum: Sequence[float],
    include_correct_cost: bool,
) -> list[float]:
    """Backwards pass for a fixed policy, list-in list-out (hot path for
    policy enumeration, so no array allocation here)."""
    value = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        j = next_ckpt[i]
        a_ij = _row_costs(
            i, j, p, tc, tcor, td_sum, tr_sum, value, include_correct_cost
        )[-1]
        value[i] = a_ij / p[i]
    return value
