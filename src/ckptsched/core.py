"""Domain types and probability kernels for confirmation-checkpoint planning.

A task is an ordered sequence of N agent actions. State k (k = 0..N) is the
point after action k has executed; state 0 is the known-good starting point
and state N must be confirmed by the user before the task counts as done.
Step k succeeds with probability ``p_a`` and carries four user/agent time
costs, one for each phase of the confirm / diagnose / correct / redo cycle
that follows a failed confirmation.

Everything here is immutable after validation and safe to share across
threads; all operations are pure functions.

A plan validates itself once: ``TaskPlan.columns`` checks every step and
holds the plan's per-step columns, 1 - p_a and the diagnose and redo prefix
sums as tuples, built on first use and kept for the plan's lifetime. The
solver, brute force and the simulators read that one set, so pricing a
plan's optimal schedule after solving it checks the plan no second time. An
invalid plan raises on every use, as nothing is kept. The checks run a few
whole-column reductions (a column's sum is finite exactly when every entry
is, barring an overflow of the sum); when any of them fails, a per-step
loop runs instead, so an error keeps its class, its message and the first
step it names.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable


class InvalidPlanError(ValueError):
    """A task plan violates a structural invariant."""


class EmptyPlanError(InvalidPlanError):
    """The plan has no steps."""


class InvalidProbabilityError(InvalidPlanError):
    """A step success probability is outside (0, 1]."""


class NegativeCostError(InvalidPlanError):
    """A step time cost is negative or non-finite."""


class PlanOverflowError(InvalidPlanError):
    """The plan's expected completion time overflows float64."""


class IndexOutOfRangeError(IndexError):
    """A state-interval query used indices outside the plan."""


class InvalidPolicyError(ValueError):
    """A checkpoint policy is missing entries or points backwards."""


@dataclass(frozen=True)
class StepModel:
    """One plan step: success probability plus its four cycle time costs.

    ``t_confirm`` is the user time to confirm correctness at the state this
    step produces; ``t_diagnose`` the time to inspect that one state while
    hunting for the first error; ``t_correct`` the time to explain the fix
    for this action; ``t_redo`` the agent time to re-execute it. All times
    are seconds.
    """

    p_a: float
    t_confirm: float = 0.0
    t_diagnose: float = 0.0
    t_correct: float = 0.0
    t_redo: float = 0.0


# collections.namedtuple, not typing.NamedTuple, whose string annotations
# cost every CLI start about 0.5 ms to compile
PlanColumns = namedtuple("PlanColumns", "p fail tc td tcor tr td_sum tr_sum")
PlanColumns.__doc__ = """A valid plan's columns, tuples of floats: p (p_a),
fail (1 - p_a), tc, td, tcor and tr (the four costs), each indexed by
step - 1, and the prefix sums td_sum and tr_sum, indexed by state: td_sum[k]
adds t_diagnose over steps 1..k from 0.0, one step at a time (likewise
tr_sum for t_redo)."""


@dataclass(frozen=True)
class TaskPlan:
    """Ordered sequence of steps; step k connects state k-1 to state k."""

    steps: tuple[StepModel, ...]

    def __init__(self, steps: Iterable[StepModel]) -> None:
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def n(self) -> int:
        """Number of steps (states run 0..n)."""
        return len(self.steps)

    @cached_property
    def columns(self) -> PlanColumns:
        """The plan's columns, checked as validate_plan checks them on first
        use and then kept (module docstring). Raises what validate_plan
        raises, on every use."""
        steps = self.steps
        try:
            cols = _split(steps)
            valid = bool(steps) and _columns_ok(cols)
        except (AttributeError, TypeError, ValueError, ArithmeticError):
            # a field that is not a float; the per-step loop settles it
            valid = False
        if not valid:
            # raises at the first bad step, unless every step is valid and
            # only the sum of the finite costs overflowed
            _check_steps(steps)
        p, tc, td, tcor, tr = cols
        return PlanColumns(
            tuple(p),
            tuple([1.0 - p_a for p_a in p]),
            tuple(tc),
            tuple(td),
            tuple(tcor),
            tuple(tr),
            tuple(accumulate(td, initial=0.0)),
            tuple(accumulate(tr, initial=0.0)),
        )

    @classmethod
    def uniform(
        cls,
        n: int,
        p_a: float,
        t_confirm: float = 0.0,
        t_diagnose: float = 0.0,
        t_correct: float = 0.0,
        t_redo: float = 0.0,
    ) -> "TaskPlan":
        """Expand one shared parameter set into n identical steps."""
        step = StepModel(p_a, t_confirm, t_diagnose, t_correct, t_redo)
        return cls([step] * n)


@dataclass(frozen=True)
class Policy:
    """Next-checkpoint map: from verified state i, confirm next at state
    ``next_ckpt[i]``.

    Must be total over i = 0..N-1 (an error can roll the process back to any
    state) and strictly forward: i < next_ckpt[i] <= N.
    """

    next_ckpt: tuple[int, ...]

    def __init__(self, next_ckpt: Iterable[int]) -> None:
        object.__setattr__(self, "next_ckpt", tuple(map(int, next_ckpt)))

    @property
    def n(self) -> int:
        return len(self.next_ckpt)

    @classmethod
    def end_only(cls, n: int) -> "Policy":
        """Single confirmation at the final state."""
        return cls([n] * n)

    @classmethod
    def every_step(cls, n: int) -> "Policy":
        """Confirmation after every action."""
        return cls(range(1, n + 1))

    def validate_for(self, n: int) -> "Policy":
        """Return self iff total for an n-step plan and strictly forward."""
        if len(self.next_ckpt) != n:
            raise InvalidPolicyError(
                f"policy covers {len(self.next_ckpt)} states, plan needs {n}"
            )
        for i, j in enumerate(self.next_ckpt):
            if not i < j <= n:
                raise InvalidPolicyError(
                    f"next_ckpt[{i}] = {j} must satisfy {i} < j <= {n}"
                )
        return self

    def success_path(self) -> tuple[int, ...]:
        """Checkpoint states visited when no error occurs, ending at N.

        Raises InvalidPolicyError unless the policy is valid for its own N.
        """
        n = self.n
        self.validate_for(n)
        path = []
        i = 0
        while i < n:
            i = self.next_ckpt[i]
            path.append(i)
        return tuple(path)


def validate_plan(plan: TaskPlan) -> TaskPlan:
    """Check all plan invariants; return the plan unchanged if they hold.

    p_a = 0 is rejected (the expected completion time would diverge), p_a = 1
    is a legal deterministic step. All four costs must be finite and >= 0.
    The checks are those of ``plan.columns``, which keeps the result.
    """
    plan.columns
    return plan


def _split(
    steps: tuple[StepModel, ...],
) -> tuple[list[float], list[float], list[float], list[float], list[float]]:
    """Per-field lists (p_a, t_confirm, t_diagnose, t_correct, t_redo)."""
    return (
        [s.p_a for s in steps],
        [s.t_confirm for s in steps],
        [s.t_diagnose for s in steps],
        [s.t_correct for s in steps],
        [s.t_redo for s in steps],
    )


def _columns_ok(cols: tuple[list[float], ...]) -> bool:
    """Whether every p_a lies in (0, 1] and every cost is finite and >= 0,
    by reductions over whole columns: a finite sum rules out inf and NaN.
    False also where only the sum of all the finite costs overflows."""
    p, tc, td, tcor, tr = cols
    costs = tc + td + tcor + tr
    return (
        math.isfinite(sum(p)) and min(p) > 0.0 and max(p) <= 1.0
        and math.isfinite(sum(costs)) and min(costs) >= 0.0
    )


def _check_steps(steps: tuple[StepModel, ...]) -> None:
    """validate_plan's checks step by step, raising at the first bad one."""
    if not steps:
        raise EmptyPlanError("plan must contain at least one step")
    for k, step in enumerate(steps, start=1):
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


def _check_interval(plan: TaskPlan, i: int, j: int, strict: bool) -> None:
    if not 0 <= i <= plan.n or not 0 <= j <= plan.n:
        raise IndexOutOfRangeError(f"state indices ({i}, {j}) outside 0..{plan.n}")
    if strict and i >= j:
        raise IndexOutOfRangeError(f"need i < j, got ({i}, {j})")
    if not strict and i > j:
        raise IndexOutOfRangeError(f"need i <= j, got ({i}, {j})")


def survival_probability(plan: TaskPlan, i: int, j: int) -> float:
    """Probability that states i+1..j all execute correctly given state i is
    correct: the product of p_a over steps i+1..j. Equals 1 when i == j."""
    _check_interval(plan, i, j, strict=False)
    out = 1.0
    for m in range(i + 1, j + 1):
        out *= plan.steps[m - 1].p_a
    return out


def first_error_distribution(
    plan: TaskPlan, i: int, j: int
) -> list[tuple[int, float]]:
    """Distribution of the first failed step within (i, j].

    Returns (m, q(m)) for each m in i+1..j where
    q(m) = (prod of p_a over i+1..m-1) * (1 - p_a at m), the probability that
    m is the first incorrect step. The q values plus
    survival_probability(plan, i, j) sum to 1.
    """
    _check_interval(plan, i, j, strict=True)
    out = []
    prefix = 1.0
    for m in range(i + 1, j + 1):
        p_m = plan.steps[m - 1].p_a
        out.append((m, prefix * (1.0 - p_m)))
        prefix *= p_m
    return out


def reachable_states(plan: TaskPlan, policy: Policy) -> frozenset[int]:
    """Verified states the process can actually occupy, starting from 0.

    From state i the process moves forward to next_ckpt[i] on success, and a
    failed confirmation rolls it back to m-1 for the first failed step m,
    which requires that step to be fallible (p_a < 1). Policies can only
    differ observably on states in this set.
    """
    policy.validate_for(plan.n)
    n = plan.n
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        j = policy.next_ckpt[i]
        for m in range(i + 1, j + 1):
            back = m - 1
            if plan.steps[m - 1].p_a < 1.0 and back not in seen:
                seen.add(back)
                frontier.append(back)
        if j < n and j not in seen:
            seen.add(j)
            frontier.append(j)
    return frozenset(seen)


def plan_columns(
    plan: TaskPlan,
) -> tuple[list[float], list[float], list[float], list[float], list[float]]:
    """Split a plan into per-field lists (p, t_confirm, t_diagnose, t_correct,
    t_redo), each indexed by step-1, without validating it. The library
    reads ``plan.columns`` instead."""
    return _split(plan.steps)


def diagnose_redo_prefix_sums(
    plan: TaskPlan,
) -> tuple[list[float], list[float]]:
    """Prefix sums TD, TR with TD[k] = sum of t_diagnose over steps 1..k (and
    likewise TR for t_redo), so interval sums become two lookups. Not
    validated; ``plan.columns`` holds the same sums as tuples."""
    steps = plan.steps
    return (
        list(accumulate([s.t_diagnose for s in steps], initial=0.0)),
        list(accumulate([s.t_redo for s in steps], initial=0.0)),
    )
