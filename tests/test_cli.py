"""Command-line behavior: outputs, exit codes, determinism."""

import io
import json
import math
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckptsched import MAX_ENUM_CAP
from ckptsched.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TOO_LARGE,
    EXIT_USAGE,
    main,
)
from ckptsched.scenarios import LOCATIONS, MAX_STEPS, SWEEP_AXES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_fig4_prints_policy_and_table(capsys):
    code, out, _ = run(capsys, "solve", "fig4")
    assert code == EXIT_OK
    assert "next_ckpt: 0>2 1>3 2>5 3>5 4>5" in out
    assert "success path: 2>5" in out
    assert "V: 7.51 5.48 3.22 2.39 1.53 0.00" in out
    assert "start\\ckpt" in out
    assert "7.51*" in out  # starred row best


def test_solve_precision_flag(capsys):
    code, out, _ = run(capsys, "solve", "fig4", "--precision", "6")
    assert code == EXIT_OK
    assert "7.511996*" in out


def test_solve_with_correct_cost(capsys):
    code, out, _ = run(capsys, "solve", "fig4", "--with-correct-cost")
    assert code == EXIT_OK
    assert "include_correct_cost: true" in out
    assert "8.83" in out


def test_solve_reads_config_file(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "tiny", "n": 1, "p_a": 1.0, "t_confirm": 2}))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    assert "V: 2.00 0.00" in out


# ---------------------------------------------------------------------------
# eval / simulate / enumerate
# ---------------------------------------------------------------------------


def test_eval_end_policy(capsys):
    code, out, _ = run(capsys, "eval", "fig4", "--policy", "end")
    assert code == EXIT_OK
    assert "V_policy: 9.68435" in out


def test_eval_explicit_policy_vector(capsys):
    code, out, _ = run(capsys, "eval", "fig4", "--policy", "2,3,5,5,5")
    assert code == EXIT_OK
    assert "V_policy: 7.512" in out


def test_eval_rejects_bad_policy(capsys):
    code, _, err = run(capsys, "eval", "fig4", "--policy", "5,4,3,2,1")
    assert code == EXIT_CONFIG
    assert "next_ckpt" in err


def test_simulate_trace_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for path in (out_a, out_b):
        code, _, _ = run(capsys, "simulate", "fig4", "--policy", "optimal",
                         "--seed", "7", "--out", str(path))
        assert code == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_text()
    assert text.startswith("execute-")
    assert "confirm 5 1.000000" in text


def test_simulate_summary_mode(capsys):
    code, out, _ = run(capsys, "simulate", "fig4", "--policy", "every",
                       "--seed", "3", "--runs", "500")
    assert code == EXIT_OK
    assert "runs: 500" in out
    assert "mean_time:" in out


def test_enumerate_fig4(capsys):
    code, out, _ = run(capsys, "enumerate", "fig4")
    assert code == EXIT_OK
    assert "evaluated: 120" in out
    assert "best_policy: 0>2 1>3 2>5 3>5 4>5" in out


def test_enumerate_too_large_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "shopping")
    assert code == EXIT_TOO_LARGE
    assert "capped" in err


def test_enumerate_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CKPTSCHED_ENUM_CAP", "3")
    code, _, err = run(capsys, "enumerate", "fig4")
    assert code == EXIT_TOO_LARGE
    monkeypatch.setenv("CKPTSCHED_ENUM_CAP", "5")
    code, out, _ = run(capsys, "enumerate", "fig4")
    assert code == EXIT_OK


@pytest.mark.parametrize("cap", ["0", "-1", str(MAX_ENUM_CAP + 1), "12"])
def test_enumerate_cap_env_outside_its_range_is_config_error(capsys, monkeypatch, cap):
    """Above the stated maximum the command is refused at once, not run."""
    monkeypatch.setenv("CKPTSCHED_ENUM_CAP", cap)
    started = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "shopping")
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_CONFIG
    assert f"must lie in 1..{MAX_ENUM_CAP}" in err
    assert out == ""


def test_enumerate_cap_env_at_the_maximum(capsys, monkeypatch):
    monkeypatch.setenv("CKPTSCHED_ENUM_CAP", str(MAX_ENUM_CAP))
    code, out, _ = run(capsys, "enumerate", "fig4")
    assert code == EXIT_OK
    assert "evaluated: 120" in out


@pytest.mark.parametrize("argv", [
    pytest.param(["enumerate"], id="enumerate"),
    pytest.param(["solve"], id="solve"),
    pytest.param(["eval", "--policy", "end"], id="eval"),
    pytest.param(["simulate", "--policy", "end", "--runs", "50"], id="simulate-summary"),
    pytest.param(["simulate", "--policy", "end"], id="simulate-trace"),
    pytest.param(["compare", "--runs", "50"], id="compare"),
    pytest.param(["error-loc"], id="error-loc"),
])
def test_overflowing_config_is_config_error(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"name": "huge", "n": 3, "p_a": 0.5, "t_confirm": 1e308, "t_redo": 1e308}
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == EXIT_CONFIG
    assert "not a finite float64" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "end", "--runs", "2"],
    ["simulate", "--policy", "end"],
    ["compare", "--runs", "2"],
])
def test_simulation_over_the_work_limits_is_config_error(capsys, tmp_path, argv):
    """p_a = 1e-6 expects 2e6 cycles per run: refused at once, not run."""
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({"name": "slow", "n": 2, "p_a": 1e-6, "t_confirm": 1}))
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == EXIT_CONFIG
    assert "limit" in err
    assert out == ""
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# compare / sweep / error-loc
# ---------------------------------------------------------------------------


def test_compare_writes_csv_and_summary(capsys, tmp_path):
    path = tmp_path / "cmp.csv"
    code, out, _ = run(capsys, "compare", "fig4", "--runs", "200", "--seed", "1",
                       "--out", str(path))
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0].startswith("strategy,expected_time,mc_mean")
    assert len(lines) == 4
    assert "time saved vs end-only" in out
    assert "not reproduction targets" in out


def test_compare_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run(capsys, "compare", "shopping", "--runs", "300", "--seed", "9",
            "--out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compare_needs_two_runs(capsys):
    """One run has no spread, so its 95% interval would read zero width."""
    with pytest.raises(SystemExit) as exc:
        main(["compare", "fig4", "--runs", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "must be >= 2, got 1" in capsys.readouterr().err
    code, out, _ = run(capsys, "compare", "fig4", "--runs", "2")
    assert code == EXIT_OK
    assert "strategy,expected_time,mc_mean" in out


def test_sweep_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "shopping", "--axis", "p_a",
                     "--values", "0.8,0.9,1.0", "--out", str(path))
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "value,v_opt,v_end,v_every,policy"
    assert len(lines) == 4


def test_sweep_rejects_bad_values(capsys):
    code, _, err = run(capsys, "sweep", "shopping", "--axis", "p_a",
                       "--values", "0.5,oops")
    assert code == EXIT_CONFIG
    code, _, err = run(capsys, "sweep", "shopping", "--axis", "p_a",
                       "--values", "0.0")
    assert code == EXIT_CONFIG
    for values in ("inf", "-inf", "nan", "2,1e400"):
        code, _, err = run(capsys, "sweep", "fig4", "--axis", "N", f"--values={values}")
        assert code == EXIT_CONFIG
        assert "finite" in err


def test_error_loc_directions(capsys):
    code, out, _ = run(capsys, "error-loc", "shopping")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "location,fail_step,optimal_time,end_only_time"
    assert lines[1] == "early,2,76,244"
    assert lines[3] == "late,11,100,100"


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-scenario.json")
    assert code == EXIT_IO
    assert "no-such-scenario.json" in err


def test_bad_config_is_config_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "n": 2, "p_a": 0.9, "bogus": 1}')
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert "bogus" in err


def test_invalid_plan_is_config_error(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"name": "x", "n": 2, "p_a": 1.5}')
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert "p_a" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "fig4"])
    assert exc.value.code == 2


def test_builtin_name_collision_warns(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig4").write_text("{}")
    code, out, err = run(capsys, "solve", "fig4")
    assert code == EXIT_OK
    assert "ignored" in err


# ---------------------------------------------------------------------------
# Numeric flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["solve", "fig4", "--precision", "-1"],
    ["simulate", "fig4", "--policy", "end", "--runs", "0"],
    ["simulate", "fig4", "--policy", "end", "--runs", "-3"],
    ["simulate", "fig4", "--policy", "end", "--seed", "-1"],
    ["compare", "fig4", "--runs", "0"],
    ["compare", "fig4", "--seed", "-1"],
    ["error-loc", "shopping", "--runs", "3"],
])
def test_bad_numeric_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("locations", ["bogus", "early,bogus", "early,,mid", "Early"])
def test_unknown_error_location_is_usage_error(capsys, locations):
    with pytest.raises(SystemExit) as exc:
        main(["error-loc", "shopping", "--locations", locations])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unknown location" in err


def test_error_loc_locations_subset_keeps_order(capsys):
    code, out, _ = run(capsys, "error-loc", "shopping", "--locations", "late,early")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["late,11,100,100", "early,2,76,244"]


def test_non_utf8_config_is_config_error(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert "UTF-8" in err


@pytest.mark.parametrize("text", [
    '{"name": "x", "n": 2, "p_a": 0.9, "t_confirm": 1%s}' % ("0" * 400),
    '{"name": "x", "steps": [{"p_a": -1%s}]}' % ("0" * 400),
    '{"name": "x", "n": 2, "p_a": 0.9, "t_redo": 1%s}' % ("0" * 5000),
    "[" * 100_000,
])
def test_unreadable_number_or_nesting_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "odd.json"
    path.write_text(text)
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    {"name": "x", "n": MAX_STEPS + 1, "p_a": 0.9},
    {"name": "x", "n": 10**8, "p_a": 0.9},
    {"name": "x", "steps": [{"p_a": 0.9}] * (MAX_STEPS + 1)},
])
def test_config_over_the_step_limit_is_config_error(capsys, tmp_path, config):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert str(MAX_STEPS) in err


@pytest.mark.parametrize("values", [str(MAX_STEPS + 1), "1e12", "3,1e12"])
def test_sweep_over_the_step_limit_is_config_error(capsys, values):
    code, out, err = run(capsys, "sweep", "fig4", "--axis", "N", "--values", values)
    assert code == EXIT_CONFIG
    assert str(MAX_STEPS) in err
    assert out == ""


def test_sweep_overflow_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "shopping", "--axis", "p_a", "--values", "1e-308")
    assert code == EXIT_CONFIG
    assert "finite" in err


def _int_text(low: int, high: int):
    """An integer in [low, high] as text, or a string that is no integer or
    at most ``high`` (which bounds --runs and keeps each example fast)."""

    def at_most_high(text: str) -> bool:
        try:
            return int(text) <= high
        except ValueError:
            return True

    return st.one_of(
        st.integers(low, high).map(str),
        st.sampled_from(["", "x", "1.5", "1e3", "-0", " 7", "0x10"]),
        st.text(max_size=4).filter(at_most_high),
    )


def _sweep_value_text(axis: str):
    """A sweep value as text; on the N axis, finite values stay within +-50
    because each one builds and solves a plan of that many steps."""
    number = st.floats(-50, 50) if axis == "N" else st.floats()
    return st.one_of(number.map(repr), st.sampled_from(["inf", "1e400", "oops", ""]))


def _locations_text():
    """A --locations value: known and unknown names joined by commas, or any
    short text."""
    names = st.sampled_from(LOCATIONS + ("bogus", "", "Mid", " late"))
    return st.one_of(st.lists(names, max_size=4).map(",".join), st.text(max_size=6))


@st.composite
def _numeric_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["solve", "simulate", "compare", "sweep", "error-loc"]))
    argv = [command, draw(st.sampled_from(["fig4", "shopping"]))]
    if draw(st.booleans()):
        argv.append("--with-correct-cost")
    if command == "solve":
        argv += ["--precision", draw(_int_text(-5, 30))]
    elif command == "sweep":
        axis = draw(st.sampled_from(SWEEP_AXES))
        values = draw(st.lists(_sweep_value_text(axis), min_size=1, max_size=4))
        argv += ["--axis", axis, "--values", ",".join(values)]
    elif command == "error-loc":
        argv.append("--locations=" + draw(_locations_text()))
    else:
        if command == "simulate":
            argv += ["--policy", draw(st.sampled_from(["optimal", "end", "every"]))]
        argv += ["--runs", draw(_int_text(-5, 50)), "--seed", draw(_int_text(-5, 2**70))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_numeric_argv())
def test_numeric_flags_end_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()


_COST_FIELDS = ("t_confirm", "t_diagnose", "t_correct", "t_redo")
_P_A = st.one_of(
    st.sampled_from([5e-324, 1e-308, 1e-3, 0.5, 1.0 - 2**-53, 1.0]),
    st.floats(5e-324, 1.0),
)
_COST = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e307, 1e308, 1.7976931348623157e308]),
    st.floats(0.0, 1.7976931348623157e308),
    st.integers(0, 2**1023),
)
# values the config loader or the plan check must reject
_BAD_P_A = st.sampled_from([0.0, -0.0, 1.0 + 2**-52, -1.0, math.inf, math.nan])
_BAD_COST = st.one_of(
    st.sampled_from([-5e-324, -1.0, math.inf, -math.inf, math.nan, "1", None, True]),
    st.integers(2**1024, 10**310),
    st.integers(-(10**310), -1),
)


# uniform plans long enough for rows of both kernel bodies and for solve()'s
# numpy prefixes, and near-max costs that overflow single cells or sums
_LONG_N = st.sampled_from([27, 28, 29, 65, 130])
_NEAR_MAX = st.one_of(
    st.sampled_from([1e307, 1e308, 1.7976931348623157e308]),
    st.floats(1e300, 1.7976931348623157e308),
)


@st.composite
def _config_argv(draw) -> tuple[dict, list[str]]:
    """A config and a solve, eval, enumerate, simulate or compare command
    line for it. The config is a 1- to 6-step one, uniform or per step, with
    extreme, zero and (in about one case in four) invalid values; a uniform
    one of 27, 28, 29, 65 or 130 steps with extreme values; or an ordinary
    plan of either size with one near-max cost."""
    shape = draw(st.sampled_from(["short", "long", "near-max"]))
    if shape == "near-max":
        n = draw(st.one_of(st.integers(1, 6), _LONG_N))
        steps = [{"p_a": draw(st.floats(0.5, 1.0)),
                  **{k: draw(st.floats(0.0, 10.0)) for k in _COST_FIELDS}}
                 for _ in range(n)]
        step = draw(st.sampled_from(steps))
        step[draw(st.sampled_from(_COST_FIELDS))] = draw(_NEAR_MAX)
        config = {"name": "fuzz", "steps": steps}
    else:
        n = draw(_LONG_N if shape == "long" else st.integers(1, 6))
        steps = [{"p_a": draw(_P_A), **{k: draw(_COST) for k in _COST_FIELDS}}
                 for _ in range(n if shape == "short" else 1)]
        if draw(st.integers(0, 3)) == 0:
            step = draw(st.sampled_from(steps))
            key = draw(st.sampled_from(("p_a",) + _COST_FIELDS))
            step[key] = draw(_BAD_P_A if key == "p_a" else _BAD_COST)
        if shape == "short" and draw(st.booleans()):
            config = {"name": "fuzz", "steps": steps}
        else:
            config = {"name": "fuzz", "n": n, **steps[0]}
    argv = [draw(st.sampled_from(["solve", "eval", "enumerate", "simulate", "compare"]))]
    if argv[0] in ("eval", "simulate"):
        explicit = st.lists(st.integers(-1, 7), min_size=1, max_size=7)
        argv.append("--policy=" + draw(st.one_of(
            st.sampled_from(["optimal", "end", "every"]),
            explicit.map(lambda xs: ",".join(map(str, xs))),
        )))
    if argv[0] in ("simulate", "compare"):
        argv += ["--runs", str(draw(st.integers(1, 50))), "--seed", str(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        argv.append("--with-correct-cost")
    return config, argv


@settings(max_examples=200, deadline=None)
@given(case=_config_argv())
def test_config_files_end_in_a_documented_exit_code(case):
    config, argv = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)  # writes inf and nan as Infinity and NaN
        with redirect_stdout(io.StringIO()), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([argv[0], path, *argv[1:]])
            except SystemExit as exc:
                code = exc.code
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue()
