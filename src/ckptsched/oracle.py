"""Ground-truth machinery: trace simulation, Monte Carlo, and brute force.

The simulator plays out the confirm / diagnose / correct / redo cycle
step by step under an arbitrary checkpoint policy, so its sample mean is an
estimate of the analytic expected time that shares no code with the solver's
recursion. Exhaustive policy enumeration provides the optimum over all N!
policies of a small plan without the solver's argmin: it walks the policy
tree and prices all children of a node with one call of the solver's row
kernel, so it checks the choice of checkpoints but shares the arithmetic of
each cell with the solver. Both exist to check the solver, and the solver to
check them.

Randomness: run r of master seed s reads its own disjoint window of a
counter-based uniform stream, so any single run is reproducible in isolation
and results do not depend on execution order. That is what lets Monte Carlo
advance many runs together in numpy (``_lockstep_runs``) with the same bits as
the scalar state machine (``_run_cdcr``), which traces and forced runs use.
The lockstep pool keeps only live runs: a lane whose run ends takes the next
run, or retires once none is left, and the live lanes are packed to the
front. Agent forward-execution time is never charged (cost is user
interaction time); execute events are logged with zero duration for trace
readability.

Size limits: a run's expected cycle count is the sum over steps of
(1 - p)/p under every policy, so the work a simulation asks for is bounded
before it starts (MAX_EXPECTED_DRAWS, MAX_EXPECTED_PASSES,
MAX_EXPECTED_EVENTS) and refused with SimulationBudgetError above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    InvalidPlanError,
    PlanOverflowError,
    Policy,
    TaskPlan,
    plan_columns,
    validate_plan,
)
from .solver import _Columns, _row_costs, _row_min

DEFAULT_ENUM_CAP = 8

# Hard maximum of the enumeration cap: the walk prices N! leaves in sum over
# d < N of d! kernel calls, about 0.4 s at N = 9, 2-3 s at N = 10 and ten
# times that at N = 11.
MAX_ENUM_CAP = 10

# Lane pool of the lockstep Monte Carlo: lanes x N stays near this many cells,
# so its working set is fixed whatever the run count.
_LANE_CELLS = 16384

# Simulation size limits. A run's expected cycle count has a closed form
# (_expected_cycles), so the work a call asks for is bounded before any draw:
# a Monte Carlo call's step outcomes drawn and lockstep passes, and a trace's
# events. A pass costs 20-100 us and a drawn cell tens of ns, so either Monte
# Carlo limit is about ten seconds; criterion 3's 10**6-run fig4 calls expect
# 1.2e7 draws in 2.0e3 passes. A trace event holds about 170 bytes, so the
# event limit is about 35 MiB. MAX_PASSES is a hard cap on passes (and on a
# trace's cycles) for runs far above their mean.
MAX_EXPECTED_DRAWS = 2 * 10**8
MAX_EXPECTED_PASSES = 10**5
MAX_EXPECTED_EVENTS = 2 * 10**5
MAX_PASSES = 10**6

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def _stream_base(seed: int) -> int:
    """Counter of master seed ``seed`` at which run 0's window starts."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _mix64((seed + _GOLDEN) & _MASK64)


class RunStream:
    """Uniform [0, 1) source for one simulation run.

    Implements splitmix64 as a counter-based generator: master seed s owns
    one long counter sequence, and run r reads the window starting at counter
    r * 2**32 (draws per run never approach 2**32, so windows cannot overlap).
    Pure 64-bit integer arithmetic, identical on every platform.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, run: int) -> None:
        self._state = (_stream_base(seed) + (run << 32) * _GOLDEN) & _MASK64

    def random(self) -> float:
        self._state = s = (self._state + _GOLDEN) & _MASK64
        return (_mix64(s) >> 11) * 2.0**-53


EXECUTE = "execute"
CONFIRM = "confirm"
DIAGNOSE = "diagnose"
CORRECT = "correct"
REDO = "redo"


class PlanTooLargeError(ValueError):
    """Plan exceeds the exhaustive-enumeration cap (policy count is N!)."""


class SimulationBudgetError(InvalidPlanError):
    """Simulating the plan would take more work than the stated limits."""


@dataclass(frozen=True)
class TraceEvent:
    """One logged simulator event.

    ``index`` is a step number for execute/correct/redo and a state number
    for confirm/diagnose. ``ok`` is the sampled outcome, execute events only.
    """

    kind: str
    index: int
    seconds: float
    ok: bool | None = None


@dataclass(frozen=True)
class SimTrace:
    """Event log of one full run, ending in a clean confirmation at state N."""

    events: tuple[TraceEvent, ...]
    total_user_time: float
    cycles: int


@dataclass(frozen=True)
class MonteCarloSummary:
    runs: int
    mean_time: float
    std_error: float
    ci95: tuple[float, float]
    mean_cycles: float


@dataclass(frozen=True)
class EnumerationResult:
    best_policy: Policy
    best_value: float
    evaluated: int


def _run_cdcr(
    p: Sequence[float],
    tc: Sequence[float],
    td: Sequence[float],
    tcor: Sequence[float],
    tr: Sequence[float],
    next_ckpt: Sequence[int],
    outcomes: Callable[[int, int], Sequence[bool]],
    include_correct_cost: bool,
    events: list[TraceEvent] | None,
) -> tuple[float, int]:
    """Play one run to completion; returns (total user time, cycle count).

    ``outcomes(i, j)`` yields the success flags for executing steps i+1..j.
    Terminates with probability 1 whenever every p_a > 0; raises
    SimulationBudgetError after MAX_PASSES cycles.
    """
    n = len(p)
    total = 0.0
    cycles = 0
    i = 0
    while True:
        j = next_ckpt[i]
        oks = outcomes(i, j)
        first_fail = 0
        for off in range(j - i):
            k = i + 1 + off
            ok = bool(oks[off])
            if events is not None:
                events.append(TraceEvent(EXECUTE, k, 0.0, ok))
            if first_fail == 0 and not ok:
                first_fail = k
        total += tc[j - 1]
        if events is not None:
            events.append(TraceEvent(CONFIRM, j, tc[j - 1]))
        if first_fail == 0:
            if j == n:
                return total, cycles
            i = j
        else:
            cycles += 1
            if cycles > MAX_PASSES:
                raise _pass_cap_error()
            m = first_fail
            for k in range(i + 1, m + 1):
                total += td[k - 1]
                if events is not None:
                    events.append(TraceEvent(DIAGNOSE, k, td[k - 1]))
            fix = tcor[m - 1] if include_correct_cost else 0.0
            total += fix
            if events is not None:
                events.append(TraceEvent(CORRECT, m, fix))
            for k in range(m, j + 1):
                total += tr[k - 1]
                if events is not None:
                    events.append(TraceEvent(REDO, k, tr[k - 1]))
            i = m - 1


def _sampled_outcomes(
    p: Sequence[float], stream: RunStream
) -> Callable[[int, int], Sequence[bool]]:
    """Fresh Bernoulli draw per executed step, redone steps included."""
    rand = stream.random

    def outcomes(i: int, j: int) -> Sequence[bool]:
        return [rand() < p[k] for k in range(i, j)]

    return outcomes


def _forced_outcomes(fail_step: int | None) -> Callable[[int, int], Sequence[bool]]:
    """Deterministic outcomes: ``fail_step`` fails on its first execution
    only, every other execution succeeds. None forces an error-free run."""
    attempts = {fail_step: 0}

    def outcomes(i: int, j: int) -> Sequence[bool]:
        oks = []
        for k in range(i + 1, j + 1):
            if k == fail_step:
                attempts[k] += 1
                oks.append(attempts[k] != 1)
            else:
                oks.append(True)
        return oks

    return outcomes


_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)


def _run_states(
    base: int, runs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Start counters of the given runs (an intp array of run indices >= 0):
    RunStream's, as a uint64 array, written to ``out`` if given."""
    out = np.left_shift(runs.view(np.uint64), np.uint64(32), out=out)
    out *= _U64_GOLDEN
    out += np.uint64(base)
    return out


def _draw_bits(
    states: np.ndarray, width: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Draws 1..width past each counter in ``states``, as 53-bit integers.

    ``out[r, c]`` is the b for which the (c+1)-th call of RunStream.random at
    counter ``states[r]`` returns b * 2**-53: _mix64 in wrapping uint64
    arithmetic. ``tmp`` is a work array of ``out``'s shape.
    """
    np.add(states[:, None], np.arange(1, width + 1, dtype=np.uint64) * _U64_GOLDEN, out=out)
    out ^= np.right_shift(out, np.uint64(30), out=tmp)
    out *= _U64_MIX_A
    out ^= np.right_shift(out, np.uint64(27), out=tmp)
    out *= _U64_MIX_B
    out ^= np.right_shift(out, np.uint64(31), out=tmp)
    out >>= np.uint64(11)
    return out


def _expected_cycles(p: Sequence[float]) -> float:
    """Expected cycles of one run under every policy: the sum of (1 - p)/p.

    A cycle corrects the first wrong step m of an interval. The verified
    state never moves back (a failed confirm resumes at m - 1, at or past the
    interval's start), so step m is first wrong only while the verified state
    is m - 1, and from there it is executed until it succeeds. A sum past
    float64 is inf (math.fsum would raise OverflowError instead).
    """
    return sum((1.0 - p_m) / p_m for p_m in p)


def _check_budget(p: Sequence[float], runs: int, lanes: int) -> None:
    """Raise SimulationBudgetError if ``runs`` runs on a pool of ``lanes``
    are expected to draw more than MAX_EXPECTED_DRAWS step outcomes or to
    take more than MAX_EXPECTED_PASSES passes.

    The bounds: the successful intervals of a run execute the N steps once
    each, and a failed one at most N steps, so a run draws at most
    N * (1 + cycles). It plays at most N successful intervals plus its
    cycles; each lane plays about ceil(runs / lanes) runs in turn, and the
    last of them waits for the slowest run, about ln(lanes) run lengths.
    """
    n = len(p)
    cycles = _expected_cycles(p)
    draws = runs * n * (1.0 + cycles)
    passes = (-(-runs // lanes) + math.log(lanes)) * (n + cycles)
    if draws > MAX_EXPECTED_DRAWS or passes > MAX_EXPECTED_PASSES:
        raise SimulationBudgetError(
            f"{runs} runs of a {n}-step plan with {cycles:.6g} expected cycles "
            f"per run would draw about {draws:.3g} step outcomes in "
            f"{passes:.3g} passes; the limits are {MAX_EXPECTED_DRAWS:.0e} "
            f"and {MAX_EXPECTED_PASSES:.0e}"
        )


def _pass_cap_error() -> SimulationBudgetError:
    return SimulationBudgetError(
        f"runs took more than {MAX_PASSES:.0e} confirm intervals, far above "
        "their expected number"
    )


def _lockstep_runs(
    p: Sequence[float],
    tc: Sequence[float],
    td: Sequence[float],
    tcor: Sequence[float],
    tr: Sequence[float],
    next_ckpt: Sequence[int],
    runs: int,
    seed: int,
    include_correct_cost: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Totals and cycle counts of runs 0..runs-1, as float64 arrays.

    Run r's entries are bit-identical to ``_run_cdcr`` over
    ``_sampled_outcomes(p, RunStream(seed, r))``. A pool of lanes each holds
    one run, and each pass plays one confirm interval on every live lane.
    The live lanes are the prefix [0, k) of the lane arrays. A lane whose run
    finishes writes the run's slot and takes the next run; once none is left
    it retires and the live lanes are packed to the front, so no pass works
    on an idle lane. Costs are added one at a time in the scalar order, each
    masked to the lanes that have a cost at that position. Every array a pass
    writes is a view of a buffer allocated once per call and sliced to the k
    live lanes; a pass allocates only the index lists of the lanes that
    finished and _draw_bits' step increments (at most N entries). So memory
    beyond the two outputs stays fixed whatever ``runs`` is.

    Raises SimulationBudgetError before any draw if the expected work is
    above the stated limits, and after MAX_PASSES passes.
    """
    n = len(p)
    lanes = min(runs, max(1, _LANE_CELLS // n))
    _check_budget(p, runs, lanes)
    base = _stream_base(seed)
    nxt = np.asarray(next_ckpt, dtype=np.intp)
    # A draw b * 2**-53 < p exactly when b < ceil(p * 2**53) (scaling by a
    # power of two is exact), so step outcomes compare integers. Indices
    # i + offset reach 2n - 2; the padding threshold 2**53 never fails.
    threshold = np.full(2 * n, 2**53, dtype=np.uint64)
    threshold[:n] = np.ceil(np.asarray(p) * 2.0**53)
    # Per-step costs by the index a pass reads them at, padded with zeros so
    # that every index a pass forms is in range.
    tc_at = np.zeros(n + 1)  # t_confirm of state j at j
    tc_at[1:] = tc
    tcor_at = np.zeros(n + 1)  # t_correct of step m at m - 1
    tcor_at[:n] = tcor
    td_pad = np.zeros(2 * n)
    td_pad[:n] = td
    tr_pad = np.zeros(2 * n)
    tr_pad[:n] = tr
    offsets = np.arange(n)
    lane_ids = np.arange(lanes)

    totals = np.empty(runs)
    cycle_counts = np.empty(runs)
    # One confirm interval's cells for every live lane, at most lanes x n:
    # its draws, then the diagnose or redo costs of each offset.
    bits = np.empty(lanes * n, dtype=np.uint64)
    spare = np.empty(lanes * n, dtype=np.uint64)
    index = np.empty(lanes * n, dtype=np.intp)
    fail_buf = np.empty(lanes * n, dtype=bool)
    costs_buf = np.empty(lanes * n)
    # The lanes' runs; lane l < k is live.
    run = lane_ids.copy()
    state = _run_states(base, run)
    i = np.zeros(lanes, dtype=np.intp)
    total = np.zeros(lanes)
    cycles = np.zeros(lanes)
    # Work arrays of one pass, one entry per lane.
    j_buf, width_buf, first_buf, at_buf, count_buf = (
        np.empty(lanes, dtype=np.intp) for _ in range(5)
    )
    failed_buf = np.empty(lanes, dtype=bool)
    mask_buf = np.empty(lanes, dtype=bool)
    u64_buf = np.empty(lanes, dtype=np.uint64)
    cost_buf = np.empty(lanes)

    # Every take and put below has mode="clip": its indices are always in
    # range, and the default mode="raise" would copy its output on each call.
    def add_in_order(total_k, costs, start, count):
        """total_k += costs[start + off] for each offset off < count, lane by
        lane, one offset after the other (count <= the pass's widest
        interval, so the cells fit the buffers)."""
        rows = int(count.max())
        if not rows:
            return
        shape = (rows, len(start))
        cells = rows * len(start)
        at = np.add(offsets[:rows, None], start, out=index[:cells].reshape(shape))
        row_costs = np.take(costs, at, out=costs_buf[:cells].reshape(shape), mode="clip")
        row_costs *= np.less(offsets[:rows, None], count, out=fail_buf[:cells].reshape(shape))
        for row in row_costs:
            total_k += row

    k = next_run = lanes
    passes = 0
    with np.errstate(all="ignore"):
        while k:
            passes += 1
            if passes > MAX_PASSES:
                raise _pass_cap_error()
            i_k, total_k, cycles_k = i[:k], total[:k], cycles[:k]
            cost, mask = cost_buf[:k], mask_buf[:k]
            j = np.take(nxt, i_k, out=j_buf[:k], mode="clip")
            width = np.subtract(j, i_k, out=width_buf[:k])
            w_max = int(width.max())
            shape = (k, w_max)
            cells = k * w_max
            drawn = _draw_bits(state[:k], w_max, bits[:cells].reshape(shape), spare[:cells].reshape(shape))
            steps = np.add(i_k[:, None], offsets[:w_max], out=index[:cells].reshape(shape))
            limit = np.take(threshold, steps, out=spare[:cells].reshape(shape), mode="clip")
            fail = np.greater_equal(drawn, limit, out=fail_buf[:cells].reshape(shape))
            # A lane's interval failed if its first failed draw, which may lie
            # past the interval's end or not exist (argmax 0), is inside it.
            first = np.argmax(fail, axis=1, out=first_buf[:k])
            at = np.multiply(lane_ids[:k], w_max, out=at_buf[:k])
            at += first
            failed = np.take(fail_buf, at, out=failed_buf[:k], mode="clip")
            failed &= np.less(first, width, out=mask)
            state_k = state[:k]
            state_k += np.multiply(width.view(np.uint64), _U64_GOLDEN, out=u64_buf[:k])  # width >= 1
            total_k += np.take(tc_at, j, out=cost, mode="clip")

            # A failed confirm: diagnose i+1..m, correct m, redo m..j, resume
            # at m-1. A masked-out cost is 0.0 or -0.0, and adding it leaves a
            # total >= 0 unchanged.
            count = np.add(first, 1, out=count_buf[:k])  # states diagnosed
            count *= failed
            add_in_order(total_k, td_pad, i_k, count)
            np.subtract(width, first, out=count)  # steps redone
            count *= failed
            back = np.subtract(j, count, out=i_k)  # m - 1 if failed, else j
            if include_correct_cost:
                np.take(tcor_at, back, out=cost, mode="clip")
                cost *= failed
                total_k += cost
            add_in_order(total_k, tr_pad, back, count)
            cycles_k += failed

            done = np.flatnonzero(np.equal(i_k, n, out=mask))
            if not done.size:
                continue
            d = done.size
            slots = np.take(run, done, out=count_buf[:d], mode="clip")
            np.put(totals, slots, np.take(total, done, out=cost_buf[:d], mode="clip"), mode="clip")
            np.put(cycle_counts, slots, np.take(cycles, done, out=cost_buf[:d], mode="clip"), mode="clip")
            np.put(i, done, 0, mode="clip")
            np.put(total, done, 0.0, mode="clip")
            np.put(cycles, done, 0.0, mode="clip")
            fresh = min(d, runs - next_run)
            refill = done[:fresh]
            new_runs = np.add(lane_ids[:fresh], next_run, out=count_buf[:fresh])
            np.put(run, refill, new_runs, mode="clip")
            np.put(state, refill, _run_states(base, new_runs, u64_buf[:fresh]), mode="clip")
            next_run += fresh
            if fresh < d:
                # No run is left for the other finished lanes: retire them and
                # pack the live lanes, in order, to the front.
                np.logical_not(mask, out=mask)
                np.put(mask, refill, True, mode="clip")
                keep = np.flatnonzero(mask)
                k = keep.size
                for lane_array, scratch in (
                    (run, j_buf), (i, j_buf), (state, u64_buf),
                    (total, cost_buf), (cycles, cost_buf),
                ):
                    lane_array[:k] = np.take(lane_array, keep, out=scratch[:k], mode="clip")
    return totals, cycle_counts


def _trace_from(
    plan: TaskPlan,
    policy: Policy,
    outcomes: Callable[[int, int], Sequence[bool]],
    include_correct_cost: bool,
) -> SimTrace:
    cols = plan_columns(plan)
    events: list[TraceEvent] = []
    total, cycles = _run_cdcr(
        *cols, policy.next_ckpt, outcomes, include_correct_cost, events
    )
    if not math.isfinite(total):
        raise PlanOverflowError("total user time of the run is not a finite float64")
    return SimTrace(events=tuple(events), total_user_time=total, cycles=cycles)


def simulate_run(
    plan: TaskPlan,
    policy: Policy,
    seed: int,
    include_correct_cost: bool = False,
) -> SimTrace:
    """Sample one full run and log every event.

    Identical to run index 0 of monte_carlo() with the same master seed.
    Raises SimulationBudgetError if the run is expected to log more than
    MAX_EXPECTED_EVENTS events: an interval logs at most N + 1 events, and a
    cycle at most N + 2 more, so a run logs at most (2N + 3)(1 + cycles).
    Raises PlanOverflowError if the total is not a finite float64.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    p = [s.p_a for s in plan.steps]
    events = (2 * plan.n + 3) * (1.0 + _expected_cycles(p))
    if events > MAX_EXPECTED_EVENTS:
        raise SimulationBudgetError(
            f"a trace of this {plan.n}-step plan would log about {events:.3g} "
            f"events; the limit is {MAX_EXPECTED_EVENTS:.0e}"
        )
    outcomes = _sampled_outcomes(p, RunStream(seed, 0))
    return _trace_from(plan, policy, outcomes, include_correct_cost)


def simulate_run_forced(
    plan: TaskPlan,
    policy: Policy,
    fail_step: int | None,
    include_correct_cost: bool = False,
) -> SimTrace:
    """Deterministic run in which exactly one chosen step fails once.

    Conditioning is by outcome forcing, not rejection: ``fail_step`` fails on
    its first execution and succeeds on the redo, all other steps always
    succeed. With ``fail_step=None`` the run is error-free. Raises
    PlanOverflowError if the total is not a finite float64.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    if fail_step is not None and not 1 <= fail_step <= plan.n:
        raise ValueError(f"fail_step must be in 1..{plan.n}, got {fail_step}")
    return _trace_from(plan, policy, _forced_outcomes(fail_step), include_correct_cost)


def monte_carlo(
    plan: TaskPlan,
    policy: Policy,
    runs: int,
    seed: int,
    include_correct_cost: bool = False,
) -> MonteCarloSummary:
    """Aggregate independent runs; deterministic given (plan, policy, seed).

    runs=1 reproduces simulate_run() totals exactly (same child stream).
    Raises PlanOverflowError if the mean, its standard error or the interval
    is not a finite float64, and SimulationBudgetError (see _lockstep_runs)
    if the runs would take more work than the stated limits.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    totals, cycle_counts = _lockstep_runs(
        *plan_columns(plan), policy.next_ckpt, runs, seed, include_correct_cost
    )
    with np.errstate(all="ignore"):
        mean = float(totals.mean())
        if runs > 1:
            std_error = float(totals.std(ddof=1)) / math.sqrt(runs)
        else:
            std_error = 0.0
    half = 1.96 * std_error
    ci95 = (mean - half, mean + half)
    if not all(map(math.isfinite, (mean, std_error, *ci95))):
        raise PlanOverflowError(
            "mean user time of the runs or its error is not a finite float64"
        )
    return MonteCarloSummary(
        runs=runs,
        mean_time=mean,
        std_error=std_error,
        ci95=ci95,
        mean_cycles=float(cycle_counts.mean()),
    )


def enumerate_policies(
    plan: TaskPlan,
    include_correct_cost: bool = False,
    max_n: int = DEFAULT_ENUM_CAP,
) -> EnumerationResult:
    """Evaluate every total forward policy and return the best.

    Policy count is N!, so plans above ``max_n`` raise PlanTooLargeError
    rather than silently truncating; ``max_n`` itself must lie in
    1..MAX_ENUM_CAP (ValueError otherwise). Ties resolve to the
    lexicographically smallest next_ckpt vector, and a plan on which no
    policy has a finite expected time raises PlanOverflowError.

    The policies are the leaves of a tree walked depth first from state N-1
    down to state 0: a node at state i has next_ckpt[i+1..N-1], and so
    V[i+1..N], fixed, and one full row of the kernel prices all of its
    children, V[i] = a(i, j) / p_a for each j. Cell j of a full row equals
    the last cell of the row cut at j, because the kernel streams left to
    right and cell j reads only V[i+1..j], so every leaf's V[0] is the one
    the policy's own backwards pass gives, bit for bit. The walk makes
    sum over d < N of d! kernel calls where pricing each policy alone makes
    N * N!. Every leaf is still priced and counted; nothing is pruned.
    """
    if not 1 <= max_n <= MAX_ENUM_CAP:
        raise ValueError(f"max_n must lie in 1..{MAX_ENUM_CAP}, got {max_n}")
    validate_plan(plan)
    n = plan.n
    if n > max_n:
        raise PlanTooLargeError(
            f"plan has {n} steps; enumeration capped at {max_n} "
            f"({math.factorial(n)} policies)"
        )
    cols = _Columns(plan)
    p = cols.p
    value = [0.0] * (n + 1)  # V of the current node's path, states i+1..N
    next_ckpt = [0] * n  # the path's checkpoints, states i+1..N-1
    best_value = math.inf
    best: tuple[int, ...] | None = None
    evaluated = 0

    def walk(i: int) -> None:
        nonlocal best_value, best, evaluated
        row = _row_costs(i, n, cols, value, include_correct_cost)
        if i > 0:
            for j, a_ij in enumerate(row, i + 1):
                value[i] = a_ij / p[i]
                next_ckpt[i] = j
                walk(i - 1)
            return
        # The leaves below one node differ in next_ckpt[0] only, so the
        # earliest of its smallest v0 is its lexicographically smallest best.
        # The walk varies next_ckpt[0] fastest, not next_ckpt[N-1], so an
        # equal v0 from another node is settled by comparing the vectors.
        evaluated += n
        node_value, offset = _row_min(row, p[0])
        if offset >= 0:
            candidate = (offset + 1, *next_ckpt[1:])
            if node_value < best_value or (
                node_value == best_value and candidate < best
            ):
                best_value = node_value
                best = candidate

    walk(n - 1)
    if best is None:
        raise PlanOverflowError(
            "expected time from state 0 is not a finite float64 under any policy"
        )
    return EnumerationResult(
        best_policy=Policy(best), best_value=best_value, evaluated=evaluated
    )


def format_event(event: TraceEvent) -> str:
    """One text record: kind, index, seconds (6 decimal places)."""
    kind = event.kind
    if kind == EXECUTE:
        kind = "execute-ok" if event.ok else "execute-fail"
    return f"{kind} {event.index} {event.seconds:.6f}"


def format_trace(trace: SimTrace) -> str:
    """Newline-delimited event records followed by a summary line."""
    lines = [format_event(e) for e in trace.events]
    lines.append(f"total {trace.cycles} {trace.total_user_time:.6f}")
    return "\n".join(lines) + "\n"
