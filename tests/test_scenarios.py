"""Builtin scenarios, comparisons, sweeps, forced-error runs, config I/O."""

import json
import math

import numpy as np
import pytest

from ckptsched import (
    ConfigError,
    InvalidSweepValueError,
    Scenario,
    StepModel,
    TaskPlan,
    builtin_scenarios,
    compare_strategies,
    error_location_experiment,
    fig4_scenario,
    get_scenario,
    load_scenario,
    save_scenario,
    solve,
    sweep,
)
from ckptsched import scenarios
from ckptsched.scenarios import (
    NON_REPRODUCTION_NOTE,
    comparison_summary,
    render_csv,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from oracles import iterate_to_fixed_point

# Frozen from sweep-to-convergence fixed-point iteration plus a dense linear
# solve (shopping defaults: n=12, p=.875, confirm 8, diagnose 4, redo 20,
# correction cost dropped).
SHOPPING_V_OPT = 121.89570532799033
SHOPPING_V_END = 273.87392304458524
SHOPPING_V_EVERY = 150.85714285714286


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def test_builtin_parameters():
    by_name = {s.name: s for s in builtin_scenarios()}
    assert set(by_name) == {"shopping", "image-editing", "overcooked"}

    shopping = by_name["shopping"]
    assert shopping.plan.n == 12
    assert all(s.p_a == 0.875 for s in shopping.plan.steps)
    assert all(s.t_redo == 20.0 for s in shopping.plan.steps)

    image = by_name["image-editing"]
    assert all(s.p_a == 0.91 for s in image.plan.steps)
    assert all(s.t_redo == 10.0 for s in image.plan.steps)

    cooked = by_name["overcooked"]
    assert all(s.p_a == 0.93 for s in cooked.plan.steps)
    assert all(s.t_redo == 10.0 for s in cooked.plan.steps)

    for scenario in by_name.values():
        for step in scenario.plan.steps:
            assert step.t_confirm == 8.0
            assert step.t_diagnose == 4.0
            assert step.t_correct == 10.0


def test_builtin_provenance_labels():
    for scenario in builtin_scenarios():
        assert scenario.provenance["p_a"].startswith("measured")
        assert scenario.provenance["t_redo"].startswith("measured")
        for field in ("n", "t_confirm", "t_diagnose", "t_correct"):
            assert scenario.provenance[field].startswith("assumed")


def test_builtin_overrides_are_marked():
    scenario = builtin_scenarios(n=8, t_confirm=5.0)[0]
    assert scenario.plan.n == 8
    assert all(s.t_confirm == 5.0 for s in scenario.plan.steps)
    assert scenario.provenance["n"] == "override"
    assert scenario.provenance["t_confirm"] == "override"
    assert scenario.provenance["t_diagnose"].startswith("assumed")


def test_get_scenario_names():
    assert get_scenario("fig4").plan.n == 5
    assert get_scenario("shopping").name == "shopping"
    assert get_scenario("nope") is None


def test_validate_scenario_requires_provenance():
    bare = Scenario("x", TaskPlan.uniform(2, 0.9), provenance={"p_a": "measured"})
    with pytest.raises(ConfigError, match="provenance"):
        validate_scenario(bare)


# ---------------------------------------------------------------------------
# Strategy comparison
# ---------------------------------------------------------------------------


def test_compare_fig4_expected_times():
    report = compare_strategies(fig4_scenario(), mc_runs=4000, seed=2)
    rows = {r.strategy: r for r in report.rows}
    assert set(rows) == {"optimal", "end-only", "every-step"}
    assert rows["optimal"].expected_time == pytest.approx(7.511996101774044, rel=1e-12)
    assert rows["end-only"].expected_time == pytest.approx(9.684353244631186, rel=1e-12)
    assert rows["every-step"].expected_time == pytest.approx(8.963585434173671, rel=1e-12)
    assert rows["optimal"].n_checkpoints == 2
    assert rows["end-only"].n_checkpoints == 1
    assert rows["every-step"].n_checkpoints == 5
    assert report.reduction_vs_end == pytest.approx(
        (9.684353244631186 - 7.511996101774044) / 9.684353244631186, rel=1e-9
    )
    for row in report.rows:
        assert abs(row.mc_mean - row.expected_time) <= 5 * max(
            (row.mc_ci95[1] - row.mc_ci95[0]) / (2 * 1.96), 1e-12
        )


def test_compare_deterministic_plan_has_no_reduction():
    scenario = Scenario(
        "sure",
        TaskPlan.uniform(4, 1.0, t_confirm=2.0),
        provenance={f: "example" for f in ("n", "p_a", "t_confirm", "t_diagnose",
                                           "t_correct", "t_redo")},
    )
    report = compare_strategies(scenario, mc_runs=50, seed=0)
    rows = {r.strategy: r for r in report.rows}
    assert report.reduction_vs_end == 0.0
    assert rows["optimal"].expected_time == rows["end-only"].expected_time == 2.0
    assert rows["optimal"].n_checkpoints == 1


def test_compare_shopping_matches_independent_solver():
    scenario = get_scenario("shopping")
    report = compare_strategies(scenario, mc_runs=2000, seed=5)
    rows = {r.strategy: r for r in report.rows}
    assert rows["optimal"].expected_time == pytest.approx(SHOPPING_V_OPT, rel=1e-9)
    assert rows["end-only"].expected_time == pytest.approx(SHOPPING_V_END, rel=1e-9)
    assert rows["every-step"].expected_time == pytest.approx(SHOPPING_V_EVERY, rel=1e-9)
    assert report.reduction_vs_end > 0.0


def test_shopping_reduction_confirmed_by_brute_force_at_reduced_n():
    from ckptsched import Policy, enumerate_policies, evaluate_policy

    plan = builtin_scenarios(n=6)[0].plan
    brute = enumerate_policies(plan)
    solved = solve(plan)
    assert brute.best_value == pytest.approx(solved.value[0], rel=1e-9)
    v_end = evaluate_policy(plan, Policy.end_only(6))[0]
    assert brute.best_value < v_end


def test_shopping_optimal_chain_frozen():
    plan = get_scenario("shopping").plan
    result = solve(plan)
    assert result.policy.next_ckpt == (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 12, 12)
    value, next_ckpt = iterate_to_fixed_point(plan, False)
    assert tuple(next_ckpt) == result.policy.next_ckpt
    assert np.allclose(result.value, value, rtol=1e-9)


def test_summary_carries_scope_note():
    report = compare_strategies(fig4_scenario(), mc_runs=100, seed=0)
    text = comparison_summary(report)
    assert NON_REPRODUCTION_NOTE in text
    assert "fig4" in text


def test_comparison_reports_on_random_plans():
    import random

    from oracles import random_plan

    provenance = {f: "generated" for f in ("n", "p_a", "t_confirm", "t_diagnose",
                                           "t_correct", "t_redo")}
    rng = random.Random(3)
    for idx in range(8):
        scenario = Scenario(f"rand-{idx}", random_plan(rng), provenance=provenance)
        report = compare_strategies(scenario, mc_runs=4000, seed=idx)
        assert report.reduction_vs_end >= 0.0
        for row in report.rows:
            half_width = (row.mc_ci95[1] - row.mc_ci95[0]) / 2
            se = half_width / 1.96
            assert abs(row.mc_mean - row.expected_time) <= max(5 * se, 1e-12)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_p_a_perfect_agent_endpoint():
    rows = sweep(get_scenario("shopping"), "p_a", [0.8, 0.9, 1.0])
    assert rows[-1].v_opt == rows[-1].v_end
    assert all(r.v_opt <= r.v_end + 1e-12 for r in rows)


def test_sweep_is_deterministic():
    scenario = get_scenario("image-editing")
    a = sweep(scenario, "t_redo", [5.0, 10.0, 20.0])
    b = sweep(scenario, "t_redo", [5.0, 10.0, 20.0])
    assert a == b


def test_sweep_t_confirm_checkpoint_count_non_increasing():
    rows = sweep(get_scenario("shopping"), "t_confirm", [0.5, 1, 2, 4, 8, 16, 32, 64])
    counts = [len(r.policy_summary.split(">")) for r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_sweep_n_axis_rebuilds_uniform_plan():
    rows = sweep(get_scenario("shopping"), "N", [8, 12, 16])
    assert [r.value for r in rows] == [8, 12, 16]
    assert rows[1].v_opt == pytest.approx(SHOPPING_V_OPT, rel=1e-9)
    assert all(r.v_opt > 0 for r in rows)


@pytest.mark.parametrize(
    "axis,value",
    [("p_a", 0.0), ("p_a", 1.2), ("t_confirm", -1.0), ("t_redo", math.inf),
     ("N", 0), ("N", 2.5), ("N", math.inf), ("N", -math.inf), ("N", math.nan),
     ("p_a", math.nan)],
)
def test_sweep_rejects_invalid_values(axis, value):
    with pytest.raises(InvalidSweepValueError,
                       match=None if math.isfinite(value) else "finite"):
        sweep(get_scenario("shopping"), axis, [value])


def test_sweep_checks_every_value_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a row before every value was checked")

    monkeypatch.setattr(scenarios, "solve", no_solve)
    for values in ([5, math.nan], [5, 10**400]):  # 10**400 overflows a float
        with pytest.raises(InvalidSweepValueError):
            sweep(get_scenario("shopping"), "N", values)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(InvalidSweepValueError):
        sweep(get_scenario("shopping"), "t_correct", [1.0])


# ---------------------------------------------------------------------------
# Error-location experiment
# ---------------------------------------------------------------------------


def test_error_location_shopping_frozen_values():
    rows = error_location_experiment(get_scenario("shopping"))
    by_loc = {r.location: r for r in rows}
    assert by_loc["early"].fail_step == 2
    assert by_loc["mid"].fail_step == 6
    assert by_loc["late"].fail_step == 11
    assert (by_loc["early"].optimal_time, by_loc["early"].end_only_time) == (76.0, 244.0)
    assert (by_loc["mid"].optimal_time, by_loc["mid"].end_only_time) == (76.0, 180.0)
    assert (by_loc["late"].optimal_time, by_loc["late"].end_only_time) == (100.0, 100.0)


def test_error_location_with_correction_cost_shifts_both_sides():
    rows = error_location_experiment(
        get_scenario("shopping"), include_correct_cost=True
    )
    by_loc = {r.location: r for r in rows}
    assert (by_loc["early"].optimal_time, by_loc["early"].end_only_time) == (86.0, 254.0)
    assert (by_loc["late"].optimal_time, by_loc["late"].end_only_time) == (110.0, 110.0)


def test_error_location_early_beats_end_only():
    for scenario in builtin_scenarios():
        rows = error_location_experiment(scenario, locations=("early",))
        assert rows[0].optimal_time < rows[0].end_only_time


def test_error_location_is_deterministic():
    scenario = get_scenario("overcooked")
    a = error_location_experiment(scenario)
    b = error_location_experiment(scenario)
    assert a == b


def test_error_location_unknown_location():
    with pytest.raises(ValueError):
        error_location_experiment(get_scenario("shopping"), locations=("soon",))


# ---------------------------------------------------------------------------
# Config round trips
# ---------------------------------------------------------------------------


def test_builtin_scenarios_round_trip(tmp_path):
    for scenario in list(builtin_scenarios()) + [fig4_scenario()]:
        path = tmp_path / f"{scenario.name}.json"
        save_scenario(scenario, str(path))
        assert load_scenario(str(path)) == scenario


def test_dict_round_trip_survives_json():
    scenario = fig4_scenario()
    rehydrated = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
    assert rehydrated == scenario


def test_uniform_shorthand_config():
    scenario = scenario_from_dict(
        {"name": "u", "n": 3, "p_a": 0.9, "t_confirm": 2, "t_redo": 1}
    )
    assert scenario.plan == TaskPlan.uniform(3, 0.9, t_confirm=2.0, t_redo=1.0)
    assert scenario.provenance["p_a"] == "config file"


def test_per_step_config():
    scenario = scenario_from_dict(
        {
            "name": "steps",
            "steps": [
                {"p_a": 0.5, "t_confirm": 1},
                {"p_a": 0.75, "t_diagnose": 2, "t_redo": 3},
            ],
        }
    )
    assert scenario.plan.steps == (
        StepModel(0.5, t_confirm=1.0),
        StepModel(0.75, t_diagnose=2.0, t_redo=3.0),
    )


@pytest.mark.parametrize(
    "data,fragment",
    [
        ([], "root"),
        ({"n": 2, "p_a": 0.9}, "name"),
        ({"name": "x", "n": 2, "p_a": 0.9, "bogus": 1}, "bogus"),
        ({"name": "x", "steps": [{"p_a": 0.9, "speed": 1}]}, "speed"),
        ({"name": "x", "steps": []}, "steps"),
        ({"name": "x", "steps": [{"t_confirm": 1}]}, "p_a"),
        ({"name": "x", "p_a": 0.9}, "n"),
        ({"name": "x", "n": 0, "p_a": 0.9}, "n"),
        ({"name": "x", "n": 2, "p_a": "high"}, "p_a"),
        ({"name": "x", "n": 2, "p_a": 0.9, "t_redo": True}, "t_redo"),
    ],
)
def test_malformed_configs_rejected(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        scenario_from_dict(data)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "n": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(str(path))


def test_config_with_bad_plan_rejected():
    with pytest.raises(Exception):
        scenario_from_dict({"name": "x", "n": 2, "p_a": 0.0})


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def test_render_csv_six_significant_digits():
    text = render_csv(["a", "b"], [[1.23456789, "x"], [1234567.0, 3]])
    assert text.splitlines() == ["a,b", "1.23457,x", "1.23457e+06,3"]


def test_comparison_csv_has_header():
    from ckptsched.scenarios import comparison_csv_rows

    report = compare_strategies(fig4_scenario(), mc_runs=60, seed=1)
    header, rows = comparison_csv_rows(report)
    assert header[0] == "strategy"
    assert len(rows) == 3
