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

One kernel, ``_row_costs``, prices every row: for solve(), for
evaluate_policy() (via ``_policy_values``), for brute force and for the
table.
It streams a row left to right with a running survival product, running
first-error sums and prefix sums of the diagnose and redo times, so a row
costs O(upto - i) and a solve O(N^2). It has two bodies. Rows shorter than
``ROW_CUT`` run a scalar Python loop, which has no per-call set-up. Longer
rows run a fixed sequence of whole-row numpy operations: the survival product
is ``np.multiply.accumulate`` and the two running sums are
``np.add.accumulate`` (what ``np.cumprod`` and ``np.cumsum`` run, without
their dispatch cost). Both bodies add the terms of a cell in the same order
and numpy's 1-D accumulations run in order, so they return the same floats
bit for bit, and the cut moves only the run time.

solve() keeps V and the policy only. The (N, N+1) table of T[i, j], which
takes 8 N (N+1) bytes, is priced on first access to ``SolveResult.t_table``
from the final V: row i reads only V[i+1..N], so re-pricing it reproduces the
cells of the backwards pass exactly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    PlanOverflowError,
    Policy,
    TaskPlan,
    diagnose_redo_prefix_sums,
    plan_columns,
    validate_plan,
)

# Rows at least this long take the numpy body of _row_costs. The two bodies
# cost the same, about 11 us, at a row of 28 inside solve() (the scalar loop
# about 0.35 us per cell, the numpy body about 11 us plus 17 ns per cell, on
# a 2-core x86 VM with Python 3.11 and numpy 2.4).
ROW_CUT = 28


class _Columns:
    """A plan's inputs to the row kernel: per-step lists (index step - 1) and
    prefix sums (index state) for the scalar body, and the same as float64
    arrays, built on first use, for the numpy body."""

    def __init__(self, plan: TaskPlan) -> None:
        self.p, self.tc, _, self.tcor, _ = plan_columns(plan)
        self.td_sum, self.tr_sum = diagnose_redo_prefix_sums(plan)
        # the scalar body unpacks these in one step
        self.lists = (self.p, self.tc, self.tcor, self.td_sum, self.tr_sum)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        p = np.array(self.p)
        return (p, 1.0 - p, np.array(self.tc), np.array(self.tcor),
                np.array(self.td_sum), np.array(self.tr_sum))


def _quiet(n: int) -> contextlib.AbstractContextManager:
    """numpy's floating-point warnings off while an n-step plan is priced, if
    any of its rows can take the numpy body: the scalar body overflows to inf
    and NaN silently, and the numpy body must do the same."""
    return np.errstate(all="ignore") if n >= ROW_CUT else contextlib.nullcontext()


@dataclass(frozen=True)
class SolveResult:
    """Optimal values and policy of a plan, with its table on demand.

    value[i] is the expected user time from verified state i under optimal
    behaviour (value[N] = 0) and policy.next_ckpt[i] the smallest j attaining
    it. t_table[i][j] is the expected user time from verified state i with
    the next checkpoint at j, assuming optimal behaviour afterwards; cells
    with j <= i are NaN. solve() does not build the table: the first read
    prices it from ``value`` through the same row kernel, which gives the
    cells the backwards pass saw bit for bit, and the result keeps it.
    """

    value: np.ndarray
    policy: Policy
    include_correct_cost: bool
    plan: TaskPlan = field(repr=False)

    @cached_property
    def t_table(self) -> np.ndarray:
        n = self.plan.n
        cols = _Columns(self.plan)
        value = self.value.tolist()
        table = np.full((n, n + 1), np.nan)
        # np.add below overflows on any n, not only in the numpy row body
        with np.errstate(all="ignore"):
            for i in range(n):
                a_row = _row_costs(i, n, cols, value, self.include_correct_cost)
                table[i, i + 1 :] = np.add(a_row, (1.0 - cols.p[i]) * value[i])
        return table


def _row_costs(
    i: int,
    upto: int,
    cols: _Columns,
    value: Sequence[float],
    include_correct_cost: bool,
) -> list[float] | np.ndarray:
    """a(i, j) for j = i+1..upto: the cell cost minus the self term.

    ``value`` holds V for states i+1..upto (the entries below are not read),
    as a list or a float64 array; the scalar body indexes it per cell and the
    numpy body slices it, so a list suits short rows and an array long ones.
    Each cell is ((td[j] - td[i]) - tr[j-1]) [+ t_correct_j] [+ V[j-1]] for
    the error branch, which accumulates weighted by q, and then
    ((t_confirm_j + survival * V[j]) + error sum) + (first-error mass) * tr[j],
    with each error's redo tail folded in at the end as that last product.
    solve(), evaluate_policy() and the table all price rows through here, so
    a fixed policy is charged bit-identically to the corresponding cells;
    dominance checks rely on that.
    """
    if upto - i >= ROW_CUT:
        return _long_row_costs(i, upto, cols, value, include_correct_cost)
    p, tc, tcor, td_sum, tr_sum = cols.lists
    out = []
    surv = 1.0  # survival through steps i+1..j-1
    acc_q = 0.0  # total first-error mass over m <= j
    acc_err = 0.0  # j-independent part of the error branch
    base_td = td_sum[i]
    first = i + 1
    for j in range(first, upto + 1):
        p_j = p[j - 1]
        q = surv * (1.0 - p_j)
        term = td_sum[j] - base_td - tr_sum[j - 1]
        if include_correct_cost:
            term += tcor[j - 1]
        if j > first:
            term += value[j - 1]
        acc_err += q * term
        acc_q += q
        surv *= p_j
        out.append(tc[j - 1] + surv * value[j] + acc_err + acc_q * tr_sum[j])
    return out


def _long_row_costs(
    i: int,
    upto: int,
    cols: _Columns,
    value: Sequence[float],
    include_correct_cost: bool,
) -> np.ndarray:
    """The numpy body of _row_costs: the scalar loop's operations, in its
    order, applied to whole rows (products commute exactly in IEEE
    arithmetic; only the grouping of sums matters, and it is kept)."""
    p, fail, tc, tcor, td_sum, tr_sum = cols.arrays
    v = np.asarray(value[i + 1 : upto + 1], dtype=float)  # V[j], j = i+1..upto
    surv = np.multiply.accumulate(p[i:upto])  # survival through steps i+1..j
    q = fail[i:upto].copy()  # first-error mass at j: survival through j-1 times (1 - p)
    q[1:] *= surv[:-1]
    err = td_sum[i + 1 : upto + 1] - cols.td_sum[i]
    err -= tr_sum[i:upto]
    if include_correct_cost:
        err += tcor[i:upto]
    err[1:] += v[:-1]
    err *= q
    # The scalar sums start from +0.0, so they turn a leading -0.0 into +0.0
    # and accumulate does not; the last term added below, acc_q * tr[j], is
    # never -0.0, so the cell comes out the same either way.
    acc_err = np.add.accumulate(err)
    acc_q = np.add.accumulate(q)
    acc_q *= tr_sum[i + 1 : upto + 1]
    surv *= v
    out = tc[i:upto] + surv
    out += acc_err
    out += acc_q
    return out


def _row_min(a_row: list[float] | np.ndarray, p_next: float) -> tuple[float, int]:
    """The smallest v_j = a(i, j) / p_next of a row and its offset j - i - 1.

    The earliest offset wins ties and NaN never wins; the offset is -1 when
    no candidate is finite.
    """
    if isinstance(a_row, list):
        best = math.inf
        best_offset = -1
        for offset, a_ij in enumerate(a_row):
            v_j = a_ij / p_next
            if v_j < best:
                best = v_j
                best_offset = offset
        return best, best_offset
    a_row /= p_next
    k = int(a_row.argmin())
    if math.isnan(a_row[k]):  # argmin stops at the first NaN; rank NaN as +inf
        a_row[np.isnan(a_row)] = math.inf
        k = int(a_row.argmin())
    best = float(a_row[k])
    return (best, k) if best < math.inf else (math.inf, -1)


def solve(plan: TaskPlan, include_correct_cost: bool = False) -> SolveResult:
    """Optimal values and policy by the backwards recursion, one row per state."""
    validate_plan(plan)
    n = plan.n
    cols = _Columns(plan)
    value: list[float] | np.ndarray = [0.0] * (n + 1)
    next_ckpt = [0] * n
    with _quiet(n):
        for i in range(n - 1, -1, -1):
            if n - i == ROW_CUT:  # rows are long from here on: keep V as an array
                value = np.array(value)
            best, offset = _row_min(
                _row_costs(i, n, cols, value, include_correct_cost), cols.p[i]
            )
            if offset < 0:
                raise PlanOverflowError(
                    f"expected time from state {i} is not a finite float64"
                )
            value[i] = best
            next_ckpt[i] = i + 1 + offset
    return SolveResult(
        value=np.array(value),
        policy=Policy(next_ckpt),
        include_correct_cost=include_correct_cost,
        plan=plan,
    )


def evaluate_policy(
    plan: TaskPlan, policy: Policy, include_correct_cost: bool = False
) -> np.ndarray:
    """Expected time-to-completion per state under a fixed policy.

    Same backwards recursion as solve() with the checkpoint pinned to
    policy.next_ckpt[i] per row; dominated by solve()'s values everywhere.
    Raises PlanOverflowError if a value is not a finite float64.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    with _quiet(plan.n):
        values = np.array(_policy_values(
            plan.n, policy.next_ckpt, _Columns(plan), include_correct_cost
        ))
    finite = np.isfinite(values)
    if not finite.all():
        raise PlanOverflowError(
            f"expected time from state {int(finite.argmin())} under the policy "
            "is not a finite float64"
        )
    return values


def _policy_values(
    n: int,
    next_ckpt: Sequence[int],
    cols: _Columns,
    include_correct_cost: bool,
) -> list[float]:
    """Backwards pass for a fixed policy, list-in list-out.

    Short rows read V from the list. Long rows read it from an array that
    holds V[synced..N]: each long row copies in only the states it adds
    below ``synced``, so every entry enters the array once, and a policy
    whose rows are all short never builds it.
    """
    value = [0.0] * (n + 1)
    array = None
    synced = n + 1
    p = cols.p
    for i in range(n - 1, -1, -1):
        j = next_ckpt[i]
        if j - i >= ROW_CUT:
            if array is None:
                array = np.empty(n + 1)
            array[i + 1 : synced] = value[i + 1 : synced]
            synced = i + 1
            a_ij = _row_costs(i, j, cols, array, include_correct_cost)[-1]
        else:
            a_ij = _row_costs(i, j, cols, value, include_correct_cost)[-1]
        value[i] = a_ij / p[i]
    return value
