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

One kernel, ``_row_costs``, prices whole rows: for brute force, for
``table_rows`` and for evaluate_policy()'s long rows (via ``_policy_values``).
Every caller reads the plan's inputs from its one column set,
``TaskPlan.columns``, which validates the plan on first use and keeps the
per-step columns, 1 - p_a and the prefix sums; ``_Columns`` adds float64
arrays of them for the numpy body. The kernel streams a row left to right
with a running survival product, running first-error sums and prefix sums
of the diagnose and redo times, so a row costs O(upto - i). It has two
bodies. Rows shorter than ``ROW_CUT`` run a scalar Python loop, which has no
per-call set-up. Longer rows run a fixed sequence of whole-row numpy
operations: the survival product is ``np.multiply.accumulate`` and the two
running sums are ``np.add.accumulate`` (what ``np.cumprod`` and
``np.cumsum`` run, without their dispatch cost).
Both bodies add the terms of a cell in the same order and numpy's 1-D
accumulations run in order, so they return the same floats bit for bit, and
the cut moves only the run time.

solve() prices each row only as far as it must. Its stop rule rests on a
lemma: if V[i+1..N] are solve()'s own whole-row minima, then

    a(i, j) >= a(i, J) - t_confirm_J    for i < J < j <= N,

in real arithmetic on the same float inputs. Confirming at J costs
t_confirm_J, and the confirmation can only help what follows.

Proof. Write S = S(i, J), Q = acc_q(i, J) and lb(i, J) for the last two
terms of cell J, the running error sum plus the redo tail:

    lb(i, J) = acc_err(i, J) + Q TR[J]
             = sum over m in i+1..J of q(m) (TD(i+1..m) + t_correct_m
                                             + V[m - 1] + TR(m..J)),

so that a(i, J) = t_confirm_J + S V[J] + lb(i, J). In cell j > J the error
terms of m <= J add up to lb(i, J) + Q TR(J+1..j). For m > J the
first-error mass is S q_J(m), with q_J(m) that of row J, and S(i, j) =
S S(J, j), so the rest of cell j, beyond t_confirm_j, is S times

    R = S(J, j) V[j] + sum over m in J+1..j of q_J(m) (TD(i+1..m)
            + t_correct_m + V[m - 1] + TR(m..j)).

Row J's cell T[J, j] = a(J, j) + (1 - p_{J+1}) V[J] is t_confirm_j plus R
with TD(J+1..m) in place of TD(i+1..m): its m = J+1 term, q_J(J+1) V[J],
is the self term. validate_plan makes every cost finite and >= 0, and a
float prefix sum of non-negative numbers never decreases, so TD(i+1..m) >=
TD(J+1..m) and R >= T[J, j] - t_confirm_j. V[J] is row J's smallest
a(J, k) / p_{J+1}, so p_{J+1} V[J] <= a(J, j) (Bellman at J), that is
T[J, j] >= V[J]. Hence, as Q TR(J+1..j) >= 0 and S <= 1,

    a(i, j) >= t_confirm_j + lb(i, J) + Q TR(J+1..j) + S (V[J] - t_confirm_j)
            >= a(i, J) - t_confirm_J + (1 - S) t_confirm_j
            >= a(i, J) - t_confirm_J.

The precondition is Bellman at every J > i. The error terms alone,
lb(i, J), bound every later cell for any V >= 0, but they close only once
S(i, J) has fallen to about 0.1: after 25-30 cells on plans with p_a in
[0.85, 0.999], whose rows have their argmin at cell 3 on average. solve()
prices rows from N-1 down, each its whole row's minimum, so every V a row
reads meets the precondition. ``_stream_row`` and ``_chunked_row`` must
never be called with any other V, except with tau = inf, which never stops
a row.

So once, at a cell J that does not improve the row's best,

    a(i, J) - t_confirm_J is finite and > best_a + tau,

with best_a the a-cell of the row's current argmin, every later cell has
a(i, j) > best_a, so v_j = a(i, j) / p_next >= best (correctly rounded
division is monotone), and the row's earliest argmin stands. A cell that
improves the best cannot close the row, as a(i, J) - t_confirm_J <= a(i, J)
< best_a. The row stops at J with the minimum and argmin of the whole row
bit for bit: the cells it priced are the whole row's, since a row streams
left to right, NaN never wins and the earliest offset wins ties. A row whose
best, a(i, J) - t_confirm_J or tau is not finite never stops, so an overflow
still ends in PlanOverflowError.

tau bounds the rounding. Let u = 2**-53 and

    M = max t_confirm + max t_correct (if charged) + TD[N] + TR[N]
        + max V[i+1..N].

S(i, j) and the first-error masses of cell j sum to 1, so a cell is at most
M; every term of a cell is at most M in size and every partial sum at most
3M, and a survival product or a first-error mass carries at most N + 2
roundings. Counting roundings term by term, |a - a_exact| <= (5N + 15) u M
for each cell. The stop test meets three such cells: a(i, j) and a(i, J),
and a(J, j) through Bellman at J, which in floats reads p_{J+1} V[J] <=
a(J, j) (1 + u), since the division and the argmin's comparisons are
monotone (a V[J] clamped up to 0 gives p_{J+1} V[J] = 0 <= a_exact(J, j));
S <= 1 scales that slack. Add u M for that division, u M for forming
a(i, J) - t_confirm_J and 2 u M for forming best_a + tau. The numpy body
tests the last cell of a prefix against best * p_next + tau, which is below
best_a + tau by at most 2 u best_a. In all that is (15N + 51) u M, and

    tau = 64 (N + 2) 2**-52 (M + 2**-1022) = 128 (N + 2) u (M + 2**-1022)

exceeds it by a factor of at least 5.8 (at N = 1; 8.5 as N grows) for the
rounding of M itself and for the count; the 2**-1022 covers gradual
underflow, whose absolute error is at most 2**-1075 per rounding.

The kernel's redo sums subtract a prefix and add it back, so on zero-cost
steps after a step with a redo cost, a value that is 0 in real arithmetic
can round to a tiny negative (-2e-17 on 28 such steps). solve(),
evaluate_policy(), table_rows() and brute force clamp a value or cell below
0 to +0.0 where they store it. The kernel's arithmetic is unchanged, so a
plan on which no result rounds below 0 keeps every bit. Every V a row reads
is then >= 0.

A row's body follows one rule. If the row before needed at most
``STREAM_CELLS`` cells, the row streams through ``_stream_row``, a scalar
loop that takes the argmin as it goes and tests the bound at each cell that
does not improve it; a stream that reaches ``STREAM_CELLS`` cells without
closing gives up. Otherwise, and after a stream gives up, the numpy body
prices prefixes of the row: first the cells the row before needed plus 2,
or 2 ``STREAM_CELLS`` after a stream, then doubling, until the bound at a
prefix's last cell closes or the prefix is the whole row. A whole row tests
the bound too, so the first row below a run of rows that never stop can
stop, and the row below it stream, again.
``_stream_row`` keeps its own copy of the scalar cell formula, and a test
pins it to ``_row_costs``' cell by cell: folding the two loops into one made
brute force's 7-cell rows 18-37% slower and the stopped rows 1-10%. Its
first cell is peeled off the loop, which then has no V[j-1] or j > first
test, and it reads 1 - p_a from the column set. ``_policy_values`` needs
only a row's last cell, so on rows shorter than ``ROW_CUT`` it runs its own
inline copy of the scalar loop, peeled the same way, which builds no list;
a test pins its values to a pass that takes every row's last cell from
``_row_costs``. Together with the column set, these made solve() and the
price of its policy 0.65-0.71x as long on 500- to 10 000-step plans.

solve() keeps V and the policy only. ``table_rows`` prices the table of
T[i, j] one whole row at a time from the final V: row i reads only
V[i+1..N], so re-pricing it gives every cell of the whole row, including
those the backwards pass never priced, and the 8 N (N+1) bytes of the whole
table are never held at once.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .core import PlanOverflowError, Policy, TaskPlan, validate_plan

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
# that gives up was paid for nothing: 48 solved 4-6% faster than 40 in two
# sets of interleaved runs (same machine) on 1000-step plans with p in
# [0.85, 0.999], while their rows stopped on the error terms alone, after 29
# cells on average and 46 at most. They now stop after 5.8 cells on average
# and 11 at most, and rows with p in [0.99, 0.9999] after 13.5 and 24, so
# none of these rows gives up a stream.
STREAM_CELLS = 48

# c of the stopping tolerance tau = c (N + 2) 2**-52 (M + 2**-1022); the
# module docstring derives it.
_TAU_C = 64


class _Columns:
    """A plan's inputs to the row kernel: the plan's own column set (per-step
    columns, index step - 1, and prefix sums, index state) for the scalar
    bodies, and the same as float64 arrays, built on first use, for the numpy
    body. Reading the column set validates the plan, once per plan."""

    def __init__(self, plan: TaskPlan) -> None:
        cols = plan.columns
        self.p, self.fail, self.tc, self.tcor = cols.p, cols.fail, cols.tc, cols.tcor
        self.td_sum, self.tr_sum = cols.td_sum, cols.tr_sum
        # the scalar bodies unpack these in one step
        self.lists = (self.p, self.fail, self.tc, self.tcor, self.td_sum, self.tr_sum)

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
    """Optimal values and policy of a plan.

    value[i] is the expected user time from verified state i under optimal
    behaviour (value[N] = 0). policy.next_ckpt[i] is the earliest j with the
    row's smallest candidate v_j = a(i, j) / p_a (module docstring), taken
    before a value below 0 is clamped to 0. So it need not be the smallest j
    attaining value[i]: where candidates round below 0, an earlier j can
    clamp to the same 0, and a T[i, j] cell, which adds (1 - p_a) V[i] to
    a(i, j), can round candidates that differ to equal cells. solve() does
    not build the table of T[i, j]; table_rows() yields it.
    """

    value: np.ndarray
    policy: Policy
    include_correct_cost: bool


def table_rows(plan: TaskPlan, result: SolveResult) -> Iterator[np.ndarray]:
    """T[i, i+1..N] for i = 0..N-1, one float64 array per row.

    T[i, j] is the expected user time from verified state i with the next
    checkpoint at j, assuming optimal behaviour afterwards. Each row is
    priced whole from ``result.value`` through _row_costs, whose cells are
    those the backwards pass priced where it priced them, bit for bit. Cells
    may overflow to inf, quietly, even where every value is finite, and a
    cell that rounds below 0 is 0, as values are (module docstring).
    """
    n = plan.n
    cols = _Columns(plan)
    value = result.value.tolist()
    for i in range(n):
        v = value if n - i < ROW_CUT else result.value
        # np.add overflows on any n, not only in the numpy row body; the
        # errstate closes before each yield, so it never holds in the caller
        with np.errstate(all="ignore"):
            row = np.add(
                _row_costs(i, n, cols, v, result.include_correct_cost),
                (1.0 - cols.p[i]) * value[i],
            )
        row[row < 0.0] = 0.0
        yield row


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
    table_rows() and evaluate_policy()'s long rows price rows through here,
    and solve() and evaluate_policy()'s short rows through the same cells
    (their own scalar loops, pinned to this one by tests, and this numpy
    body), so a fixed policy is charged bit-identically to the corresponding
    cells; dominance checks rely on that.
    """
    if upto - i >= ROW_CUT:
        return _long_row_costs(i, upto, cols, value, include_correct_cost)
    p, _, tc, tcor, td_sum, tr_sum = cols.lists
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
    no candidate is finite. ``a_row`` is left as it is: _chunked_row reads
    its cells again once its bound closes.
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
    a_row = a_row / p_next
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
    validate_plan(plan)  # builds the plan's column set, or finds it built
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
    tau = scale * (base + v_max)
    # cells the row before priced until its bound closed, or its whole
    # length; it picks this row's body and first numpy width
    need = 0
    with _quiet(n):
        for i in range(n - 1, -1, -1):
            v = value[i + 1]
            if v > v_max:
                v_max = v
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
            if best < 0.0:
                best = 0.0
            value[i] = best
            if array is not None:
                array[i] = best
            next_ckpt[i] = i + 1 + offset
    return SolveResult(
        value=np.array(value),
        policy=Policy(next_ckpt),
        include_correct_cost=include_correct_cost,
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
    earliest offset wins ties. ``value`` must hold solve()'s own V[i+1..N],
    the stop rule's precondition, unless tau is inf.

    The first cell is peeled off the loop: its survival is p_next and its
    first-error mass 1 - p_next, exactly, and it has no V[j-1] term. Its
    running sums skip the scalar body's leading 0.0 +, which can only turn
    a -0.0 into +0.0, and a cell's last term, acc_q * tr[j], is never -0.0,
    so every cell comes out the same. It cannot stop the row, whose limit
    is still inf.
    """
    p, fail, tc, tcor, td_sum, tr_sum = cols.lists
    n = len(p)
    if upto > n:
        upto = n
    p_next = p[i]
    inf = limit = best = best_a = math.inf
    best_offset = -1
    base_td = td_sum[i]
    acc_q = fail[i]
    term = td_sum[i + 1] - base_td - tr_sum[i]
    if include_correct_cost:
        term += tcor[i]
    acc_err = acc_q * term
    surv = p_next
    # v_j and tr_j carry V[j] and TR[j] of a cell into the next, whose error
    # term reads them as V[j-1] and TR[j-1]
    v_j = value[i + 1]
    tr_j = tr_sum[i + 1]
    a_ij = tc[i] + surv * v_j + acc_err + acc_q * tr_j
    if a_ij < inf:
        cand = a_ij / p_next
        if cand < inf:
            best = cand
            best_a = a_ij
            best_offset = 0
            limit = a_ij + tau
    for k in range(i + 1, upto):  # cell j = k + 1, step k + 1 at index k
        j = k + 1
        q = surv * fail[k]
        term = td_sum[j] - base_td - tr_j
        if include_correct_cost:
            term += tcor[k]
        term += v_j
        acc_err += q * term
        acc_q += q
        surv *= p[k]
        t_confirm = tc[k]
        v_j = value[j]
        tr_j = tr_sum[j]
        a_ij = t_confirm + surv * v_j + acc_err + acc_q * tr_j
        if a_ij < best_a:  # else a_ij / p_next >= best: division is monotone
            cand = a_ij / p_next
            if cand < best:
                best = cand
                best_a = a_ij
                best_offset = k - i
                limit = a_ij + tau
        elif limit < a_ij - t_confirm < inf:  # the stop lemma closes the row
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
    first whose bound closes, or all of them; it sizes the next row. As for
    _stream_row, ``value`` must hold solve()'s own V[i+1..N] unless tau is
    inf."""
    p_next = cols.p[i]
    while True:
        upto = i + width
        if upto >= n:
            upto = n
        a_row = _long_row_costs(i, upto, cols, value, include_correct_cost)
        last = a_row[-1] - cols.tc[upto - 1]
        best, offset = _row_min(a_row, p_next)
        limit = best * p_next + tau
        if limit < last < math.inf:
            closed = np.subtract(a_row, cols.arrays[2][i:upto], out=a_row) > limit
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
    cols = _Columns(plan)
    with _quiet(plan.n):
        values = np.array(_policy_values(
            plan.n, policy.next_ckpt, cols, include_correct_cost
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

    Each row prices its last cell only. A short row runs _row_costs' scalar
    loop inline, its first cell peeled off as in _stream_row, and reads V
    from the list. A long row takes _row_costs' numpy body and reads V from
    an array that holds V[synced..N]: each long row copies in only the
    states it adds below ``synced``, so every entry enters the array once,
    and a policy whose rows are all short never builds it.
    """
    value = [0.0] * (n + 1)
    array = None
    synced = n + 1
    p, fail, tc, tcor, td_sum, tr_sum = cols.lists
    for i in range(n - 1, -1, -1):
        j = next_ckpt[i]
        if j - i >= ROW_CUT:
            if array is None:
                array = np.empty(n + 1)
            array[i + 1 : synced] = value[i + 1 : synced]
            synced = i + 1
            a_ij = _row_costs(i, j, cols, array, include_correct_cost)[-1]
        else:
            base_td = td_sum[i]
            acc_q = fail[i]
            term = td_sum[i + 1] - base_td - tr_sum[i]
            if include_correct_cost:
                term += tcor[i]
            acc_err = acc_q * term
            surv = p[i]
            for k in range(i + 1, j):  # step k + 1 at index k
                q = surv * fail[k]
                term = td_sum[k + 1] - base_td - tr_sum[k]
                if include_correct_cost:
                    term += tcor[k]
                term += value[k]
                acc_err += q * term
                acc_q += q
                surv *= p[k]
            a_ij = tc[j - 1] + surv * value[j] + acc_err + acc_q * tr_sum[j]
        v = a_ij / p[i]
        value[i] = 0.0 if v < 0.0 else v
    return value
