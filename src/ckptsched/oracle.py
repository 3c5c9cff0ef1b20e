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
advance all runs together in numpy (``_lockstep_runs``) with the same bits as
the scalar state machine (``_run_cdcr``), which traces and forced runs use.
Agent forward-execution time is never charged (cost is user interaction time);
execute events are logged with zero duration for trace readability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    PlanOverflowError,
    Policy,
    TaskPlan,
    plan_columns,
    validate_plan,
)
from .solver import _Columns, _row_costs, _row_min

DEFAULT_ENUM_CAP = 8

# Lane pool of the lockstep Monte Carlo: lanes x N stays near this many cells,
# so its working set is fixed whatever the run count.
_LANE_CELLS = 16384

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
    Terminates with probability 1 whenever every p_a > 0.
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


def _run_states(base: int, runs: np.ndarray) -> np.ndarray:
    """Start counters of the given runs: RunStream's, as a uint64 array."""
    return np.uint64(base) + (runs.astype(np.uint64) << np.uint64(32)) * _U64_GOLDEN


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
    ``_sampled_outcomes(p, RunStream(seed, r))``. A fixed pool of lanes each
    holds one run, and each pass plays one confirm interval on every lane.
    Costs are added one at a time in the scalar order; a lane with nothing to
    add at that position adds 0.0, which leaves a total >= 0 unchanged. A
    lane whose run finishes writes the run's slot and takes the next run, or
    idles once none is left. Every array a pass touches keeps the pool's
    size, so memory beyond the two outputs stays fixed whatever ``runs`` is.
    """
    base = _stream_base(seed)
    n = len(p)
    nxt = np.asarray(next_ckpt, dtype=np.intp)
    # A draw b * 2**-53 < p exactly when b < ceil(p * 2**53) (scaling by a
    # power of two is exact), so step outcomes compare integers. Indices
    # i + offset reach 2n - 2; the padding threshold 2**53 never fails.
    threshold = np.full(2 * n, 2**53, dtype=np.uint64)
    threshold[:n] = np.ceil(np.asarray(p) * 2.0**53)
    tc_a = np.asarray(tc, dtype=float)
    td_pad = np.zeros(2 * n)
    td_pad[:n] = td
    tr_pad = np.zeros(2 * n)
    tr_pad[:n] = tr
    tcor_a = np.asarray(tcor, dtype=float)
    offsets = np.arange(n)

    totals = np.empty(runs)
    cycle_counts = np.empty(runs)
    lanes = min(runs, max(1, _LANE_CELLS // n))
    # One confirm interval's draws for every lane: at most lanes x n cells.
    bits = np.empty(lanes * n, dtype=np.uint64)
    spare = np.empty(lanes * n, dtype=np.uint64)
    index = np.empty(lanes * n, dtype=np.intp)
    fail_buf = np.empty(lanes * n, dtype=bool)
    inside_buf = np.empty(lanes * n, dtype=bool)

    lane_ids = np.arange(lanes)
    run = np.arange(lanes)  # -1 marks an idle lane
    state = _run_states(base, run)
    i = np.zeros(lanes, dtype=np.intp)
    total = np.zeros(lanes)
    cycles = np.zeros(lanes, dtype=np.intp)
    next_run = live = lanes
    while live > 0:
        j = nxt[i]
        width = j - i
        w_max = int(width.max())
        shape = (lanes, w_max)
        cells = lanes * w_max
        cols = offsets[:w_max]
        drawn = _draw_bits(state, w_max, bits[:cells].reshape(shape), spare[:cells].reshape(shape))
        steps = np.add(i[:, None], cols, out=index[:cells].reshape(shape))
        limit = np.take(threshold, steps, out=spare[:cells].reshape(shape))
        fail = np.greater_equal(drawn, limit, out=fail_buf[:cells].reshape(shape))
        fail &= np.less(cols, width[:, None], out=inside_buf[:cells].reshape(shape))
        state += width.astype(np.uint64) * _U64_GOLDEN
        total += tc_a[j - 1]

        # A failed confirm: diagnose i+1..m, correct m, redo m..j, resume at m-1.
        first = fail.argmax(axis=1)
        failed = fail[lane_ids, first]
        m = i + first + 1
        diag = np.where(failed, first + 1, 0)
        for off in range(int(diag.max())):
            total += np.where(off < diag, td_pad[i + off], 0.0)
        if include_correct_cost:
            total += np.where(failed, tcor_a[m - 1], 0.0)
        redo = np.where(failed, width - first, 0)
        for off in range(int(redo.max())):
            total += np.where(off < redo, tr_pad[m - 1 + off], 0.0)
        cycles += failed
        i = np.where(failed, m - 1, j)

        finished = ~failed & (j == n)
        done = np.flatnonzero(finished & (run >= 0))
        if done.size:
            totals[run[done]] = total[done]
            cycle_counts[run[done]] = cycles[done]
            refill = done[: runs - next_run]
            live -= done.size - refill.size
            run[done] = -1
            run[refill] = np.arange(next_run, next_run + refill.size)
            state[refill] = _run_states(base, run[refill])
            next_run += refill.size
        i[finished] = 0
        total[finished] = 0.0
        cycles[finished] = 0
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
    return SimTrace(events=tuple(events), total_user_time=total, cycles=cycles)


def simulate_run(
    plan: TaskPlan,
    policy: Policy,
    seed: int,
    include_correct_cost: bool = False,
) -> SimTrace:
    """Sample one full run and log every event.

    Identical to run index 0 of monte_carlo() with the same master seed.
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    outcomes = _sampled_outcomes([s.p_a for s in plan.steps], RunStream(seed, 0))
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
    succeed. With ``fail_step=None`` the run is error-free.
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
    """
    validate_plan(plan)
    policy.validate_for(plan.n)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    totals, cycle_counts = _lockstep_runs(
        *plan_columns(plan), policy.next_ckpt, runs, seed, include_correct_cost
    )
    mean = float(totals.mean())
    if runs > 1:
        std_error = float(totals.std(ddof=1)) / math.sqrt(runs)
    else:
        std_error = 0.0
    half = 1.96 * std_error
    return MonteCarloSummary(
        runs=runs,
        mean_time=mean,
        std_error=std_error,
        ci95=(mean - half, mean + half),
        mean_cycles=float(cycle_counts.mean()),
    )


def enumerate_policies(
    plan: TaskPlan,
    include_correct_cost: bool = False,
    max_n: int = DEFAULT_ENUM_CAP,
) -> EnumerationResult:
    """Evaluate every total forward policy and return the best.

    Policy count is N!, so plans above ``max_n`` raise PlanTooLargeError
    rather than silently truncating. Ties resolve to the lexicographically
    smallest next_ckpt vector, and a plan on which no policy has a finite
    expected time raises PlanOverflowError.

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
