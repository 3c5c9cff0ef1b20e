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

One kernel, ``_row_costs``, prices whole rows: for evaluate_policy() (via
``_policy_values``), for brute force and for the table.
It streams a row left to right with a running survival product, running
first-error sums and prefix sums of the diagnose and redo times, so a row
costs O(upto - i). It has two bodies. Rows shorter than ``ROW_CUT`` run a
scalar Python loop, which has no per-call set-up. Longer rows run a fixed
sequence of whole-row numpy operations: the survival product is
``np.multiply.accumulate`` and the two running sums are ``np.add.accumulate``
(what ``np.cumprod`` and ``np.cumsum`` run, without their dispatch cost).
Both bodies add the terms of a cell in the same order and numpy's 1-D
accumulations run in order, so they return the same floats bit for bit, and
the cut moves only the run time.

solve() prices each row only as far as it must. Write lb(i, J) for the last
two terms of cell J, the running error sum plus the redo tail:

    lb(i, J) = acc_err(i, J) + acc_q(i, J) * TR[J]
             = sum over m in i+1..J of q(m) * (TD(i+1..m) + t_correct_m
                                               + V[m - 1] + TR(m..J)).

Every later cell is at least as large, a(i, j) >= lb(i, J) for j > J, in
real arithmetic on the same float inputs: a(i, j) - lb(i, J) is t_confirm_j
+ S(i, j) V[j] + the error terms of m = J+1..j + acc_q(i, J) TR(J+1..j), and
each of these is >= 0, because validate_plan makes every cost finite and
>= 0, a float prefix sum of non-negative numbers never decreases, and V >= 0
(solve() checks it, and no row stops once a V is negative). So once

    lb(i, J) is finite and lb(i, J) > best_a + tau,

with best_a the a-cell of the row's current argmin, every later cell has
a(i, j) > best_a, so v_j = a(i, j) / p_next >= best (correctly rounded
division is monotone), and the row's earliest argmin stands. The row stops
at J with the minimum and argmin of the whole row bit for bit: the cells it
priced are the whole row's, since a row streams left to right, NaN never
wins and the earliest offset wins ties. A row whose best, lb or tau is not
finite never stops, so an overflow still ends in PlanOverflowError.

tau bounds the rounding in a and lb. Let u = 2**-53 and

    M = max t_confirm + max t_correct (if charged) + TD[N] + TR[N]
        + max V[i+1..N].

The first-error masses sum to at most 1, every term of a cell is at most M
in size and every partial sum at most 3M, and a survival product or a
first-error mass carries at most N + 2 roundings. Counting roundings term by
term, |a - a_exact| <= (5N + 15) u M and |lb - lb_exact| <= (4N + 9) u M;
best_a <= M, and forming best_a + tau adds at most 2 u M. In all that is
less than 7 (N + 2) 2**-52 M, and

    tau = 64 (N + 2) 2**-52 (M + 2**-1022)

leaves a factor of 9 for the rounding of M itself and for the count; the
2**-1022 covers gradual underflow, whose absolute error is at most 2**-1075
per rounding. The numpy body tests the bound at the last cell of a prefix
against best * p_next + tau, which is below best_a + tau by at most
2 u best_a, inside the same margin.

A row runs one of two ways. It streams through ``_stream_row``, a scalar
loop that takes the argmin as it goes and tests the bound at each cell that
does not improve it, unless the row before needed more than
``STREAM_CELLS`` cells or ran to state N with ``ROW_CUT`` cells or more; a
stream that reaches ``STREAM_CELLS`` cells without closing gives up.
Otherwise the numpy body prices prefixes of the row, from the cells the row
before needed plus 2 and doubling, until the bound closes or the prefix is
the whole row, so a row that runs to state N is one call as before.
``_stream_row`` keeps its own copy of the scalar cell formula, and a test
pins it to ``_row_costs``' cell by cell: folding the two loops into one made
brute force's 7-cell rows 18-37% slower and the stopped rows 1-10%.

solve() keeps V and the policy only. The (N, N+1) table of T[i, j], which
takes 8 N (N+1) bytes, is priced on first access to ``SolveResult.t_table``
from the final V: row i reads only V[i+1..N], so re-pricing it gives every
cell of the whole row, including those the backwards pass never priced.
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
# cost the same, about 11 us, at a row of 28 (the scalar loop about 0.35 us
# per cell, the numpy body about 11 us plus 17 ns per cell, measured inside
# the full-row solve() on a 2-core x86 VM with Python 3.11 and numpy 2.4).
# solve() streams every row shorter than this through its stopping loop.
ROW_CUT = 28

# solve() streams a longer row through its scalar stopping loop if the row
# before it stopped within this many cells, and the stream gives up after as
# many; the numpy body then prices the row from twice the width. A streamed
# row (about 0.3 us per cell) and a numpy prefix of the same width cost the
# same, 11-13 us, at 36-40 cells. The cut sits above that because a stream
# that gives up was paid for nothing: on 1000-step plans with p in
# [0.85, 0.999], whose rows stop after 29 cells on average and 46 at most,
# 48 solved 4-6% faster than 40 in two sets of interleaved runs (same
# machine).
STREAM_CELLS = 48

# solve() tests the bound on one whole numpy row in this many, so a run of
# rows that never stop can start stopping again. A test costs about 0.3 us,
# 1.2% of a 1000-step plan's average whole row (25 us); one row in 8 costs
# 0.15%, and leaving whole rows waits at most 7 rows.
WHOLE_ROW_TESTS = 8

# c of the stopping tolerance tau = c (N + 2) 2**-52 (M + 2**-1022); the
# module docstring derives it.
_TAU_C = 64


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
    with j <= i are NaN. solve() does not build the table, and its
    backwards pass stops most rows long before state N. The first read
    prices every row whole from ``value`` through _row_costs, whose cells
    are those the backwards pass priced where it priced them, bit for bit,
    and the result keeps the table.
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
    evaluate_policy() and the table price rows through here, and solve()
    through the same cells (its stopping loop and this numpy body), so a
    fixed policy is charged bit-identically to the corresponding cells;
    dominance checks rely on that.
    """
    if upto - i >= ROW_CUT:
        return _long_row_costs(i, upto, cols, value, include_correct_cost)[0]
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy body of _row_costs: the scalar loop's operations, in its
    order, applied to whole rows (products commute exactly in IEEE
    arithmetic; only the grouping of sums matters, and it is kept).

    Returns the cells with their two last terms, the error sum and the redo
    tail, whose sum is the lower bound solve() stops rows with."""
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
    return out, acc_err, acc_q


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
    best = float(a_row[k])
    if math.isnan(best):  # argmin stops at the first NaN; rank NaN as +inf
        a_row[np.isnan(a_row)] = math.inf
        k = int(a_row.argmin())
        best = float(a_row[k])
    return (best, k) if best < math.inf else (math.inf, -1)


def solve(plan: TaskPlan, include_correct_cost: bool = False) -> SolveResult:
    """Optimal values and policy by the backwards recursion, one row per
    state, each row priced only until its bound rules out every later cell."""
    validate_plan(plan)
    n = plan.n
    cols = _Columns(plan)
    value = [0.0] * (n + 1)
    next_ckpt = [0] * n
    array = None  # V as an array for the numpy body, from its first use on
    # tau = scale * (base + max V[i+1..N]), as the module docstring sets it
    scale = _TAU_C * (n + 2) * 2.0**-52
    base = max(cols.tc) + cols.td_sum[n] + cols.tr_sum[n] + 2.0**-1022
    if include_correct_cost:
        base += max(cols.tcor)
    v_max = 0.0
    # cells the row before priced until its bound closed; n once a row of
    # ROW_CUT cells or more has run to state N, so that the next is whole too
    need = 0
    with _quiet(n):
        for i in range(n - 1, -1, -1):
            v = value[i + 1]
            if v > v_max:
                v_max = v
            elif v < 0.0:  # the bound needs V >= 0: no row stops from here on
                v_max = math.inf
            tau = scale * (base + v_max)
            if need <= STREAM_CELLS:
                row = _stream_row(
                    i, i + STREAM_CELLS, cols, value, include_correct_cost, tau
                )
                width = 2 * STREAM_CELLS
            else:
                row = None
                width = need + 2
            if row is None:
                if array is None:
                    array = np.array(value)
                row = _chunked_row(i, n, cols, array, include_correct_cost, tau, width)
            best, offset, need = row
            if offset < 0:
                raise PlanOverflowError(
                    f"expected time from state {i} is not a finite float64"
                )
            if need >= ROW_CUT and need == n - i:
                need = n
            value[i] = best
            if array is not None:
                array[i] = best
            next_ckpt[i] = i + 1 + offset
    return SolveResult(
        value=np.array(value),
        policy=Policy(next_ckpt),
        include_correct_cost=include_correct_cost,
        plan=plan,
    )


def _stream_row(
    i: int,
    upto: int,
    cols: _Columns,
    value: Sequence[float],
    include_correct_cost: bool,
    tau: float,
) -> tuple[float, int, int] | None:
    """(best, offset, need) of row i, streamed cell by cell up to state
    ``upto`` or N, whichever comes first.

    best and offset are _row_min's over the whole row and need is the number
    of cells priced; None if the row goes on past ``upto`` and its bound has
    not closed. The cells are those of _row_costs' scalar body, bit for bit,
    and the argmin rule is _row_min's: strict <, so NaN never wins and the
    earliest offset wins ties.
    """
    p, tc, tcor, td_sum, tr_sum = cols.lists
    n = len(p)
    if upto > n:
        upto = n
    p_next = p[i]
    inf = limit = best = best_a = math.inf
    best_offset = -1
    surv = 1.0
    acc_q = 0.0
    acc_err = 0.0
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
        redo = acc_q * tr_sum[j]
        a_ij = tc[j - 1] + surv * value[j] + acc_err + redo
        if a_ij < best_a:  # else v_j >= best: division is monotone
            v_j = a_ij / p_next
            if v_j < best:
                best = v_j
                best_a = a_ij
                best_offset = j - first
                limit = a_ij + tau
        elif limit < acc_err + redo < inf:  # lb(i, j) closes the row
            return best, best_offset, j - i
    if upto < n:
        return None
    return best, best_offset, upto - i


def _chunked_row(
    i: int,
    n: int,
    cols: _Columns,
    value: np.ndarray,
    include_correct_cost: bool,
    tau: float,
    width: int,
) -> tuple[float, int, int]:
    """(best, offset, need) of row i from numpy-body prefixes of ``width``
    cells, doubling the width until the bound at a prefix's last cell closes
    the row or the prefix is the whole row. need counts the cells up to the
    first whose bound closes, or all of them; it sizes the next row."""
    p_next = cols.p[i]
    while True:
        upto = i + width
        if upto >= n:
            upto = n
        a_row, acc_err, redo = _long_row_costs(i, upto, cols, value, include_correct_cost)
        best, offset = _row_min(a_row, p_next)
        # On a whole row the bound only sizes the next row; test it on one
        # whole row in WHOLE_ROW_TESTS.
        if upto < n or not i % WHOLE_ROW_TESTS:
            limit = best * p_next + tau
            if limit < acc_err[-1] + redo[-1] < math.inf:
                closed = np.add(acc_err, redo, out=acc_err) > limit
                return best, offset, int(closed.argmax()) + 1
        if upto == n:
            return best, offset, n - i
        width *= 2


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
