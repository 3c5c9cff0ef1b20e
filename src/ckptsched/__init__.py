"""Checkpoint scheduling for multi-step agent plans.

Given per-step success probabilities and the time costs of the
confirm / diagnose / correct / redo cycle, compute the user-confirmation
schedule that minimizes expected user time, evaluate and simulate arbitrary
schedules, and cross-check everything against brute force and Monte Carlo.
"""

from .core import (
    EmptyPlanError,
    IndexOutOfRangeError,
    InvalidPlanError,
    InvalidPolicyError,
    InvalidProbabilityError,
    NegativeCostError,
    PlanOverflowError,
    Policy,
    StepModel,
    TaskPlan,
    first_error_distribution,
    reachable_states,
    survival_probability,
    validate_plan,
)
from .oracle import (
    DEFAULT_ENUM_CAP,
    MAX_ENUM_CAP,
    EnumerationResult,
    MonteCarloSummary,
    PlanTooLargeError,
    SimTrace,
    SimulationBudgetError,
    TraceEvent,
    enumerate_policies,
    format_trace,
    monte_carlo,
    simulate_run,
    simulate_run_forced,
)
from .scenarios import (
    ComparisonReport,
    ConfigError,
    InvalidSweepValueError,
    MAX_STEPS,
    Scenario,
    builtin_scenarios,
    compare_strategies,
    error_location_experiment,
    fig4_scenario,
    get_scenario,
    load_scenario,
    save_scenario,
    sweep,
)
from .solver import SolveResult, evaluate_policy, solve

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "DEFAULT_ENUM_CAP",
    "MAX_ENUM_CAP",
    "EmptyPlanError",
    "EnumerationResult",
    "IndexOutOfRangeError",
    "InvalidPlanError",
    "InvalidPolicyError",
    "InvalidProbabilityError",
    "InvalidSweepValueError",
    "MAX_STEPS",
    "MonteCarloSummary",
    "NegativeCostError",
    "PlanOverflowError",
    "PlanTooLargeError",
    "Policy",
    "Scenario",
    "SimTrace",
    "SimulationBudgetError",
    "SolveResult",
    "StepModel",
    "TaskPlan",
    "TraceEvent",
    "builtin_scenarios",
    "compare_strategies",
    "enumerate_policies",
    "error_location_experiment",
    "evaluate_policy",
    "fig4_scenario",
    "first_error_distribution",
    "format_trace",
    "get_scenario",
    "load_scenario",
    "monte_carlo",
    "reachable_states",
    "save_scenario",
    "simulate_run",
    "simulate_run_forced",
    "solve",
    "survival_probability",
    "sweep",
    "validate_plan",
]
