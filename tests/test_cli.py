import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import riccati_sl2.cli as cli_module
import riccati_sl2.expr as expr_module
import riccati_sl2.riccati as riccati_module
import riccati_sl2.transform as transform_module
from riccati_sl2 import (RiccatiEquation, csv_texts, integrate_direct,
                         integrate_group_equation, points, reconstruct_solution)
from riccati_sl2.cli import load_problem, main
from riccati_sl2.criteria import DETECTORS, classify

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _write_problem(tmp_path, name="problem.json", **over):
    doc = {
        "schema": 1,
        "coefficients": {"b0": "1", "b1": "0", "b2": "-1"},
        "t_interval": [0.0, 1.0],
        "initial_conditions": [0.0],
        "options": {"step": 0.01, "grid": 51, "tol": 1e-6},
    }
    doc.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_solve_tanh(tmp_path, capsys):
    path = _write_problem(tmp_path, t_interval=[0.0, 2.0])
    rc = main(["solve", str(path), "--output", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["no_reduction_found"] is False
    names = {r["name"]: r for r in doc["reports"]}
    assert names["RDM05"]["satisfied"] is True
    csv_lines = (tmp_path / "trajectory_0.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "t,x"
    worst = 0.0
    for line in csv_lines[1:]:
        t_str, x_str = line.split(",")
        if x_str == "inf":
            continue
        worst = max(worst, abs(float(x_str) - math.tanh(float(t_str))))
    assert worst <= 1e-6


def test_solve_criterion_flag(tmp_path, capsys):
    path = _write_problem(tmp_path, t_interval=[0.0, 1.0])
    rc = main(["solve", str(path), "--output", str(tmp_path),
               "--criterion", "Ra61"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] == "Ra61"


def test_solve_unsatisfied_criterion_rejected(tmp_path, capsys):
    path = _write_problem(tmp_path)
    rc = main(["solve", str(path), "--output", str(tmp_path),
               "--criterion", "AllenStein"])
    assert rc == 2


# b0 is -1 at the 101 detection points t = i/100, where the perturbation
# 0.5*sin(100*pi*t)^2 vanishes, and not between them: the reductions that
# the detectors find hold at those points only.
_ALIASED = dict(
    coefficients={"b0": "-1 + 0.5*sin(314.1592653589793*t)^2", "b1": "0", "b2": "1"},
    initial_conditions=[0.0, 0.5],
    options={"step": 0.001, "grid": 101, "tol": 1e-6})


def test_solve_rechecks_reductions_on_the_solve_grid(tmp_path, capsys):
    path = _write_problem(tmp_path, **_ALIASED)
    assert main(["solve", str(path), "--output", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] is None and doc["no_reduction_found"] is True
    reports = {r["name"]: r for r in doc["reports"]}
    for name in ("RDM05", "Ra61", "Zh99Basic", "RU68"):
        assert reports[name]["satisfied"] is False
        assert reports[name]["diagnostics"]["reason"].startswith("on the solve grid")
    problem = load_problem(path)
    for i, x0 in enumerate(problem.initial_conditions):
        oracle = integrate_direct(problem.equation, x0, problem.t_interval,
                                  problem.step)
        csv = (tmp_path / f"trajectory_{i}.csv").read_text().split()[1:]
        rows = [line.split(",") for line in csv]
        assert [float(t) for t, _ in rows] == oracle.ts
        assert max(abs(float(x) - p.value)
                   for (_, x), p in zip(rows, oracle.xs)) <= 1e-6


def test_solve_criterion_that_fails_on_the_solve_grid(tmp_path, capsys):
    path = _write_problem(tmp_path, **_ALIASED)
    rc = main(["solve", str(path), "--output", str(tmp_path),
               "--criterion", "RDM05"])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("criterion 'RDM05' is not satisfied: on the solve grid, reducing "
            "curve does not reproduce the target (residual 0.333") in err
    assert not list(tmp_path.glob("*.csv"))


def test_solve_falls_through_a_curve_that_fails_on_the_solve_grid(tmp_path, capsys):
    # b0 is 1 at the detection points and -1 halfway between them, where
    # the square roots of the reducing curves leave their domain.
    path = _write_problem(tmp_path, **{**_ALIASED, "coefficients": {
        "b0": "1 - 2*sin(314.1592653589793*t)^2", "b1": "0", "b2": "1"}})
    assert main(["solve", str(path), "--output", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] is None
    reason = next(r for r in doc["reports"]
                  if r["name"] == "AllenStein")["diagnostics"]["reason"]
    assert reason.startswith("on the solve grid, evaluation failed: "
                             "sqrt of negative value")


def test_verify_checks_reductions_on_the_solve_grid(tmp_path, capsys):
    path = _write_problem(tmp_path, **_ALIASED)
    assert main(["verify", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    check = checks["solve_grid[RDM05]"]
    assert check["passed"] is False and check["tolerance"] == 1e-8
    assert check["max_deviation"] == pytest.approx(1 / 3, rel=1e-3)
    # A residual that cannot be evaluated fails with the reason.
    path = _write_problem(tmp_path, **{**_ALIASED, "coefficients": {
        "b0": "1 - 2*sin(314.1592653589793*t)^2", "b1": "0", "b2": "1"}})
    assert main(["verify", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    check = checks["solve_grid[AllenStein]"]
    assert check["passed"] is False and check["max_deviation"] is None
    assert check["reason"].startswith("sqrt of negative value")


def test_failing_solve_writes_no_csv(tmp_path, capsys):
    # RDM05 reduces through the root 999 to a linear target whose closed
    # form overflows near t = 0.71 from x0 = 0; from x0 = 999, the root
    # itself, it has none to evaluate.
    path = _write_problem(
        tmp_path, coefficients={"b0": "-999", "b1": "1000", "b2": "-1"},
        initial_conditions=[999, 0.0])
    assert main(["solve", str(path), "--output", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: overflow in ")
    assert not list(tmp_path.glob("*.csv"))


def test_solve_malformed_expression(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "1 +* t", "b1": "0", "b2": "1"})
    rc = main(["solve", str(path), "--output", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "offset 3" in err and "coefficients.b0" in err


def test_solve_generic_fallback(tmp_path, capsys):
    path = _write_problem(
        tmp_path,
        coefficients={"b0": "sin(t)", "b1": "t^2", "b2": "exp(t)"},
        initial_conditions=[0.1])
    rc = main(["solve", str(path), "--output", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["no_reduction_found"] is True
    assert doc["criterion"] is None
    assert (tmp_path / "trajectory_0.csv").exists()


def test_solve_truncated_trajectory_exits_1(tmp_path, capsys):
    # b1 leaves its domain at t = 0.5: the direct integrator stops there.
    path = _write_problem(
        tmp_path, coefficients={"b0": "1", "b1": "log(0.5 - t)", "b2": "-1"},
        options={"step": 0.001})
    rc = main(["solve", str(path), "--output", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    entry = doc["trajectories"][0]
    assert entry["samples"] == 500
    assert "log of non-positive value" in entry["error"]
    assert entry["truncated_at"] == 0.499
    assert entry["chart_switches"] == 0
    lines = (tmp_path / "trajectory_0.csv").read_text().strip().split("\n")
    assert len(lines) == 501
    # The shared time column is cut to the trajectory's own times.
    traj = integrate_direct(load_problem(path).equation, 0.0, (0.0, 1.0), 0.001)
    assert (tmp_path / "trajectory_0.csv").read_text() == csv_texts([traj])[0]


def test_solve_complete_trajectory_reports_no_error(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "sin(t)", "b1": "t^2", "b2": "exp(t)"},
                          initial_conditions=[3.0])
    assert main(["solve", str(path), "--output", str(tmp_path)]) == 0
    entry = json.loads(capsys.readouterr().out)["trajectories"][0]
    assert entry["error"] is None and entry["truncated_at"] is None
    assert entry["chart_switches"] >= 1


def test_classify_constant_equation(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "1", "b1": "2", "b2": "1"})
    rc = main(["classify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    sat = [r for r in doc["reports"] if r["satisfied"]]
    assert len(sat) >= 2


def test_classify_reports_reason(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "1", "b1": "0", "b2": "1"})
    rc = main(["classify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rdm = next(r for r in doc["reports"] if r["name"] == "RDM05")
    assert rdm["satisfied"] is False
    assert "no real constant solution" in rdm["diagnostics"]["reason"]


def test_classify_with_hints(tmp_path, capsys):
    path = _write_problem(
        tmp_path,
        coefficients={"b0": "2 - t + t^2", "b1": "1 - 2*t", "b2": "1"},
        hints={"Zh99E": {"E": "t", "D": "1", "a": 1, "b": 1, "c": 1}})
    rc = main(["classify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    zh = next(r for r in doc["reports"] if r["name"] == "Zh99E")
    assert zh["satisfied"] is True
    assert zh["curve"] is not None


def test_verify_tanh_passes(tmp_path, capsys):
    path = _write_problem(tmp_path, t_interval=[0.0, 2.0],
                          initial_conditions=[0.0, 0.5, -0.5, 0.25],
                          known_solutions=["1", "-1"])
    rc = main(["verify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(c["max_deviation"] <= c["tolerance"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "cross_ratio_constancy" in names
    assert any(n.startswith("gauge_consistency") for n in names)


def test_verify_corrupted_hint_fails(tmp_path, capsys):
    path = _write_problem(
        tmp_path,
        coefficients={"b0": "2.01 - t + t^2", "b1": "1 - 2*t", "b2": "1"},
        hints={"Zh99E": {"E": "t", "D": "1", "a": 1, "b": 1, "c": 1}})
    rc = main(["classify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    zh = next(r for r in doc["reports"] if r["name"] == "Zh99E")
    assert zh["satisfied"] is False
    assert zh["diagnostics"]["max_dev"] > 1e-4
    # verify must surface the violated hint as a failing check
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    check = next(c for c in doc["checks"] if c["name"] == "criterion[Zh99E]")
    assert check["passed"] is False
    assert check["max_deviation"] > 1e-4


def test_verify_hinted_criterion_passes(tmp_path, capsys):
    path = _write_problem(
        tmp_path,
        coefficients={"b0": "2 - t + t^2", "b1": "1 - 2*t", "b2": "1"},
        hints={"Zh99E": {"E": "t", "D": "1", "a": 1, "b": 1, "c": 1}})
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    check = next(c for c in doc["checks"] if c["name"] == "criterion[Zh99E]")
    assert check["passed"] is True


def test_verify_compares_images_that_stay_beyond_the_cap(tmp_path, capsys):
    # The RDM05 root 17.9 keeps the image trajectory at |x| > 10 on the
    # whole interval; it is compared in the chart w = -1/x.
    path = _write_problem(
        tmp_path, coefficients={"b0": "8.95", "b1": "-18.4", "b2": "1"},
        options={"step": 0.001, "grid": 101})
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    check = next(c for c in doc["checks"] if c["name"] == "equivariance[RDM05]")
    assert check["max_deviation"] is not None
    assert check["max_deviation"] <= 1e-6
    assert rc == 0


def test_verify_zero_equation(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "0", "b1": "0", "b2": "0"})
    rc = main(["verify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    for check in doc["checks"]:
        assert check["max_deviation"] <= 1e-12


@pytest.mark.parametrize("over, message", [
    ({"coefficients": {"b0": "1 +", "b1": "0", "b2": "-1"}},
     "coefficients.b0: unexpected end of input (at offset 3)"),
    ({"known_solutions": ["tanh(t"]},
     "known_solutions[0]: expected ')' (at offset 6)"),
    ({"coefficients": {"b0": "1e400*t + 1", "b1": "0", "b2": "-1"}},
     "coefficients.b0: numeric literal '1e400' overflows (at offset 0)"),
    ({"hints": {"Zh99Basic": {"D": "1", "a": 1e400, "b": 1, "c": 1}}},
     "hints.Zh99Basic.a must be finite"),
    ({"coefficients": {"b0": "0", "b1": "t^" + "9" * 5000, "b2": "-1"}},
     f"coefficients.b1: exponent '{'9' * 5000}' overflows (at offset 2)"),
], ids=["coefficient", "known-solution", "overflowing-literal",
        "infinite-hint-constant", "overflowing-exponent"])
def test_parse_errors_name_the_file(tmp_path, capsys, over, message):
    path = _write_problem(tmp_path, **over)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


_HUGE = 10 ** 400  # a JSON integer past the largest float


@pytest.mark.parametrize("over, message", [
    ({"t_interval": [0, _HUGE]}, "t_interval must be [t_a, t_b] of finite numbers"),
    ({"initial_conditions": [0.5, -_HUGE]},
     'initial_conditions[1] must be a finite number or "inf"'),
    ({"options": {"step": _HUGE}}, "step must be a positive finite number"),
    ({"options": {"tol": _HUGE}}, "tol must be a positive finite number"),
    ({"hints": {"Zh99Basic": {"D": "1", "a": 1, "b": _HUGE, "c": 1}}},
     "hints.Zh99Basic.b must be finite"),
], ids=["t_interval", "initial_condition", "step", "tol", "hint-constant"])
def test_an_integer_past_the_largest_float_is_an_input_error(tmp_path, capsys,
                                                             over, message):
    path = _write_problem(tmp_path, **over)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_every_command_finishes_on_a_coefficient_50_levels_deep(tmp_path, capsys):
    # A chain of quotients, whose second derivative (RaoK's dW) is about
    # six times as high; one level more is an input error.
    deepest = "(1+t)" + "/(2+t)" * 48
    path = _write_problem(tmp_path, coefficients={"b0": "1", "b1": deepest, "b2": "1"})
    for command in ("classify", "solve", "verify"):
        assert main([command, str(path), "--output", str(tmp_path)]) in (0, 1)
        assert capsys.readouterr().err == ""
    path = _write_problem(tmp_path, coefficients={
        "b0": "1", "b1": deepest + "/(2+t)", "b2": "1"})
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: coefficients.b1: expression "
                                   "is more than 50 levels deep (at offset 293)\n")


@pytest.mark.parametrize("over, message", [
    ({"grid": 51},
     "unknown keys ['grid'] (expected some of ['schema', 'coefficients', "
     "'t_interval', 'initial_conditions', 'options', 'hints', 'known_solutions'])"),
    ({"options": {"steps": 0.01}},
     "options: unknown keys ['steps'] (expected some of ['step', 'grid', 'tol'])"),
], ids=["top-level", "options"])
def test_unknown_keys_are_input_errors(tmp_path, capsys, over, message):
    path = _write_problem(tmp_path, **over)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("schema, shown", [(99, "99"), ("x", '"x"'), (True, "true")],
                         ids=["number", "string", "true"])
def test_a_schema_other_than_1_is_an_input_error(tmp_path, capsys, schema, shown):
    path = _write_problem(tmp_path, schema=schema)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: schema must be 1, not {shown}\n")
    # A file without a schema is read as schema 1.
    doc = json.loads(path.read_text())
    del doc["schema"]
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0


@pytest.mark.parametrize("command", ["classify", "solve", "verify"])
def test_debug_log_adds_the_session_counts_to_stderr(tmp_path, capsys,
                                                     monkeypatch, command):
    path = _write_problem(tmp_path, initial_conditions=[0.0, 0.5, -0.5, 2.0])
    argv = [command, str(path), "--output", str(tmp_path)]
    monkeypatch.delenv("RICCATI_LOG", raising=False)
    rc = main(argv)
    plain = capsys.readouterr()
    monkeypatch.setenv("RICCATI_LOG", "debug")
    assert main(argv) == rc
    debug = capsys.readouterr()
    assert debug.out == plain.out
    counts = json.loads(debug.err.splitlines()[-1])
    assert list(counts) == ["expr.evaluate_grid.subtrees_computed",
                            "expr.evaluate_grid.subtrees_reused",
                            "expr.differentiate.nodes_computed",
                            "expr.differentiate.nodes_reused",
                            "expr.print.texts_computed",
                            "expr.print.texts_reused",
                            "expr.integral.cells",
                            "expr.quad.calls",
                            "expr.evaluate_grid.runs",
                            "riccati.integrate_direct.steps",
                            "riccati.integrate_direct.chart_switches",
                            "sl2.integrate_group_equation.steps",
                            "riccati.stage_samples.reused"]
    assert all(type(n) is int and n >= 0 for n in counts.values())
    assert counts["expr.evaluate_grid.runs"] > 0
    # Only verify runs the direct RK4 here: 100 steps for each initial
    # condition and for each satisfied curve's image equation, and the
    # group RK4 once.  Its group run and the last three direct runs read
    # back the first direct run's stage samples.
    runs = group = reused = 0
    if command == "verify":
        checks = json.loads(debug.out)["checks"]
        runs = 4 + sum(c["name"].startswith("equivariance[") for c in checks)
        group, reused = 1, 4
    assert counts["riccati.integrate_direct.steps"] == 100 * runs
    assert counts["sl2.integrate_group_equation.steps"] == 100 * group
    assert counts["riccati.stage_samples.reused"] == reused


def test_no_command_runs_an_outermost_grid_on_one_time(tmp_path, capsys, monkeypatch):
    # A time's values are read from the grid run that holds them, not
    # from a walk of the tree at that time alone.
    one_time = []
    run = expr_module._Grid.run

    def recording(self, roots, ts, cells=None):
        if self.session.depth == 0 and len(ts) == 1:
            one_time.append(", ".join(map(str, roots)))
        return run(self, roots, ts, cells)

    monkeypatch.setattr(expr_module._Grid, "run", recording)
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in ("classify", "solve", "verify"):
            main([command, str(path), "--output", str(tmp_path)])
    capsys.readouterr()
    assert one_time == []


def test_only_verify_builds_transformed_trees(tmp_path, capsys, monkeypatch):
    # classify and solve self-check each reduction on grid values;
    # verify builds one tree per satisfied report for its equivariance
    # RK4 and gauge checks, or one for the translation fallback.
    built = []
    transform_coefficients = transform_module.transform_coefficients

    def counting(eq, c):
        built.append(c)
        return transform_coefficients(eq, c)

    for module in list(sys.modules.values()):
        if getattr(module, "transform_coefficients", None) is transform_coefficients:
            monkeypatch.setattr(module, "transform_coefficients", counting)
    for path in sorted(PROBLEMS.glob("*.json")):
        counts = {}
        for command in ("classify", "solve", "verify"):
            built.clear()
            main([command, str(path), "--output", str(tmp_path)])
            out = capsys.readouterr().out
            if command == "classify":
                satisfied = sum(r["satisfied"] for r in json.loads(out)["reports"])
            counts[command] = len(built)
        assert counts == {
            "classify": 0, "solve": 0, "verify": max(satisfied, 1)}, path.name


def test_bad_known_solution_is_input_error(tmp_path, capsys):
    path = _write_problem(tmp_path, known_solutions=["t"])
    rc = main(["verify", str(path)])
    assert rc == 2


def test_verify_records_an_overflowing_cross_ratio_as_a_failed_check(
        tmp_path, capsys):
    # References -1e300, 1e-12 and infinity send the probe 0 to -1e312.
    path = _write_problem(
        tmp_path, coefficients={"b0": "0", "b1": "0", "b2": "0"},
        initial_conditions=[0.0, "inf"], known_solutions=["-1e300", "1e-12"])
    assert main(["verify", str(path)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][-1]
    assert check == {
        "name": "cross_ratio_constancy", "max_deviation": None,
        "tolerance": 1e-6, "passed": False,
        "reason": "the image of 0 under Mat2(a11=1.0, a12=1e+300, a21=1.0, "
                  "a22=-1e-12) overflows"}


def test_unevaluable_known_solution_is_input_error(tmp_path, capsys):
    path = _write_problem(tmp_path, known_solutions=["1", "sqrt(t - 0.5)"],
                          initial_conditions=[0.0, 0.5, -0.5])
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: known solution 'sqrt(t - 0.5)' cannot be evaluated: "
        "sqrt of negative value in 'sqrt(t - 0.5)'\n")


def test_known_solution_through_a_pole_is_accepted(tmp_path, capsys):
    # x = 1/(t - 0.5) solves x' = -x^2 through infinity; the grid hits t = 0.5.
    path = _write_problem(tmp_path, coefficients={"b0": "0", "b1": "0", "b2": "-1"},
                          initial_conditions=[0.0, 1.0, 2.0, -1.0],
                          known_solutions=["1/(t - 0.5)"])
    assert main(["verify", str(path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1]["name"] == "cross_ratio_constancy"


@pytest.mark.parametrize("known, message", [
    ("1/(t - 0.5) + 1", "error: known solution '1/(t - 0.5) + 1' fails the "
                        "equation: claimed solution has residual 1.5 at t=0\n"),
    ("1/(t - t)", "error: known solution '1/(t - t)' cannot be evaluated: "
                  "division by zero in '1/(t - t)'\n"),
])
def test_known_solution_with_a_pole_is_still_checked(tmp_path, capsys, known, message):
    path = _write_problem(tmp_path, coefficients={"b0": "0", "b1": "0", "b2": "-1"},
                          initial_conditions=[0.0, 1.0, 2.0, -1.0],
                          known_solutions=[known])
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == message


def test_missing_file():
    assert main(["classify", "/nonexistent/problem.json"]) == 2


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2


def test_unknown_hint_detector(tmp_path):
    path = _write_problem(tmp_path, hints={"Nope": {"D": "1"}})
    assert main(["classify", str(path)]) == 2


def test_solve_from_infinity(tmp_path, capsys):
    path = _write_problem(tmp_path,
                          coefficients={"b0": "1", "b1": "2", "b2": "1"},
                          initial_conditions=["inf"])
    rc = main(["solve", str(path), "--output", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "trajectory_0.csv").read_text().strip().split("\n")
    assert lines[1].split(",")[1] == "inf"
    # solutions are x = -1 + 1/(C - t); x(0) = inf forces C = 0
    t_end, x_end = lines[-1].split(",")
    assert abs(float(x_end) - (-1.0 - 1.0 / float(t_end))) <= 1e-6


def test_classify_table_row_hint_via_cli(capsys):
    rc = main(["classify", str(PROBLEMS / "table_row4.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    row = next(r for r in doc["reports"] if r["name"] == "Zh99Table4")
    assert row["satisfied"] is True
    assert row["target"]["kind"] == "one_dimensional"


def test_determinism_bundled_problems(tmp_path):
    """Byte-identical stdout and CSV output across repeated runs."""
    for problem in ("tanh.json", "autonomous.json", "generic.json",
                    "zh99e.json", "table_row4.json"):
        outputs = []
        for run in (0, 1):
            outdir = tmp_path / f"{problem}.{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "riccati_sl2", "solve",
                 str(PROBLEMS / problem), "--output", str(outdir),
                 "--step", "0.01"],
                capture_output=True, check=True)
            # Nothing on stderr, not even from weakref callbacks at exit.
            assert proc.stderr == b""
            csvs = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            outputs.append((proc.stdout, csvs))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


def test_consecutive_main_calls_carry_no_option_over(tmp_path, capsys):
    path = _write_problem(tmp_path, options={"step": 0.05, "grid": 51, "tol": 1e-6})
    plain = ["solve", str(path), "--output", str(tmp_path)]
    outputs = []
    for argv in (plain, [*plain, "--step", "0.01"], plain):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] != outputs[0]
    assert outputs[2] == outputs[0]


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency; the child interpreter finds
    # the package through the PYTHONPATH that conftest sets.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, riccati_sl2; print('scipy' in sys.modules)"],
        capture_output=True, check=True, text=True)
    assert proc.stdout == "False\n"


def test_debug_log_writes_only_the_counts_to_each_runs_stderr(tmp_path):
    # Two solve runs in one interpreter, each with its own stderr.
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from riccati_sl2.cli import main",
        "for _ in range(2):",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        assert main(sys.argv[1:]) == 0",
        "    print(json.dumps([out.getvalue(), err.getvalue()]))"])
    path = _write_problem(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", str(path), "--output", str(tmp_path)],
        capture_output=True, check=True, text=True,
        env={**os.environ, "RICCATI_LOG": "debug"})
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == 2 and proc.stderr == ""
    for out, err in runs:
        assert json.loads(out)["criterion"] == "RDM05"
        line, = err.splitlines()
        assert "expr.print.texts_reused" in json.loads(line)


def test_a_log_setting_other_than_debug_is_ignored():
    argv = [sys.executable, "-m", "riccati_sl2", "classify",
            str(PROBLEMS / "autonomous.json")]
    env = {k: v for k, v in os.environ.items() if k != "RICCATI_LOG"}
    plain = subprocess.run(argv, capture_output=True, check=True, env=env)
    other = subprocess.run(argv, capture_output=True, check=True,
                           env={**env, "RICCATI_LOG": "basic_format"})
    assert other.stdout == plain.stdout
    assert other.stderr == b""


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "riccati_sl2", "classify",
         str(PROBLEMS / "autonomous.json")],
        capture_output=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["command"] == "classify"


def test_verify_reports_domain_failures_as_checks(tmp_path, capsys, monkeypatch):
    # The detection grid misses the window |t - pi/20| < 7e-4 where b1
    # leaves its domain, so classify passes; every trajectory stops there.
    # The group RK4 fails there too, once for all four reconstructions.
    group_runs = []

    def counting(*args):
        group_runs.append(args)
        return integrate_group_equation(*args)

    monkeypatch.setattr(cli_module, "integrate_group_equation", counting)
    path = _write_problem(
        tmp_path,
        coefficients={"b0": "1", "b1": "sqrt(cos(20*t) + 0.9999)", "b2": "-1"},
        initial_conditions=[0, 0.5, -0.5, 0.2],
        options={"step": 0.001, "grid": 101})
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["passed"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert list(checks) == ["gauge_consistency[translation]"] + [
        f"reconstruction[{i}]" for i in range(4)] + ["cross_ratio_constancy"]
    assert checks["gauge_consistency[translation]"]["passed"] is True
    assert "reason" not in checks["gauge_consistency[translation]"]
    reason = "sqrt of negative value in 'sqrt(cos(20*t) + 0.99990000000000001)'"
    for name in list(checks)[1:]:
        assert checks[name]["passed"] is False
        assert checks[name]["max_deviation"] is None
        assert checks[name]["reason"] == reason
    assert len(group_runs) == 1


def test_verify_reconstructs_point_by_point_when_the_batch_fails(tmp_path, capsys):
    # x(t) = exp(2t)*x0: the image of 1e308 overflows, so the one Möbius
    # call for every initial point raises, and each point gets its own.
    path = _write_problem(tmp_path, coefficients={"b0": "0", "b1": "2", "b2": "0"},
                          initial_conditions=[0, 1e308, 0.5])
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert [(c["name"], c["passed"]) for c in doc["checks"]] == [
        ("gauge_consistency[translation]", True), ("reconstruction[0]", True),
        ("reconstruction[1]", False), ("reconstruction[2]", True)]
    group = integrate_group_equation(RiccatiEquation.of(0, 2, 0), (0.0, 1.0), 0.01)
    with pytest.raises(OverflowError) as err:
        reconstruct_solution(group, 1e308)
    assert doc["checks"][2]["reason"] == str(err.value)


def test_verify_integrates_each_initial_condition_once(tmp_path, capsys,
                                                       monkeypatch):
    calls = collections.Counter()

    def counting(eq, x0, *args):
        calls[(str(eq.b0), str(eq.b1), str(eq.b2), str(x0))] += 1
        return integrate_direct(eq, x0, *args)

    monkeypatch.setattr(cli_module, "integrate_direct", counting)
    path = _write_problem(tmp_path, initial_conditions=[0.0, 0.5, -0.5, 0.5])
    rc = main(["verify", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    satisfied = sum(c["name"].startswith("equivariance[") for c in doc["checks"])
    assert satisfied >= 2
    assert set(calls.values()) == {1}
    original = [k for k in calls if k[:3] == ("1", "0", "-1")]
    assert sorted(k[3] for k in original) == ["-0.5", "0", "0.5"]
    # Each satisfied curve's image equation is integrated once as well.
    assert len(calls) - len(original) == satisfied


def test_verify_samples_the_equation_once_for_its_rk4_runs(capsys, monkeypatch):
    # tanh.json has four initial conditions: four direct runs and the
    # group run read one stage sampling of the problem's coefficients.
    sampled = collections.Counter()
    sample = riccati_module._sample

    def counting(roots, chunks):
        sampled[tuple(map(str, roots))] += 1
        return sample(roots, chunks)

    monkeypatch.setattr(riccati_module, "_sample", counting)
    monkeypatch.setenv("RICCATI_LOG", "debug")
    path = PROBLEMS / "tanh.json"
    problem = load_problem(path)
    eq = problem.equation
    assert len(problem.initial_conditions) == 4
    main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert sampled[(str(eq.b0), str(eq.b1), str(eq.b2))] == 1
    assert json.loads(err.splitlines()[-1])["riccati.stage_samples.reused"] == 4
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert sum(n.startswith("reconstruction[") for n in names) == 4


def test_verify_lists_its_checks_in_the_same_order(tmp_path, capsys):
    # Equivariance is computed before the solve-grid residuals but listed
    # after them, as before.
    path = _write_problem(tmp_path, **_ALIASED)
    assert main(["verify", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    satisfied = ["RDM05", "Ra61", "Zh99Basic", "RU68"]
    assert [c["name"] for c in checks] == (
        [f"solve_grid[{n}]" for n in satisfied]
        + [f"equivariance[{n}]" for n in satisfied]
        + [f"gauge_consistency[{n}]" for n in satisfied]
        + ["reconstruction[0]", "reconstruction[1]"])
    assert [c["passed"] for c in checks] == [False] * 4 + [True, True, False, False] + [True] * 6


def _zh99e_with_hint(tmp_path, **change):
    doc = json.loads((PROBLEMS / "zh99e.json").read_text())
    hint = doc["hints"]["Zh99E"]
    hint.update(change)
    for key in [k for k, v in hint.items() if v is None]:
        del hint[key]
    path = tmp_path / "zh99e.json"
    path.write_text(json.dumps(doc))
    return path


def test_hint_missing_key_is_input_error(tmp_path, capsys):
    rc = main(["classify", str(_zh99e_with_hint(tmp_path, D=None))])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hints.Zh99E" in err and "['E', 'D', 'a', 'b', 'c']" in err


def test_hint_unknown_key_is_input_error(tmp_path, capsys):
    rc = main(["classify", str(_zh99e_with_hint(tmp_path, typo="t"))])
    assert rc == 2
    err = capsys.readouterr().err
    assert "typo" in err and "['E', 'D', 'a', 'b', 'c']" in err


_OPTIONS = {"step": 0.01, "grid": 51, "tol": 1e-6}


@pytest.mark.parametrize("over, field", [
    ({"initial_conditions": [True]}, "initial_conditions[0]"),
    ({"t_interval": [False, True]}, "t_interval"),
    ({"t_interval": [0.0, math.inf]}, "t_interval"),
    ({"options": {**_OPTIONS, "step": True}}, "step"),
    ({"options": {**_OPTIONS, "step": math.inf}}, "step"),
    ({"options": {**_OPTIONS, "tol": math.inf}}, "tol"),
    ({"hints": {"Zh99Basic": {"D": "1", "a": True, "b": 0.0, "c": 1.0}}},
     "hints.Zh99Basic.a"),
], ids=["ic-true", "interval-booleans", "interval-infinity", "step-true",
        "step-infinity", "tol-infinity", "hint-constant-true"])
def test_booleans_and_infinities_are_input_errors(tmp_path, capsys, over, field):
    rc = main(["classify", str(_write_problem(tmp_path, **over))])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("det", [d for d in DETECTORS if d.hint != "none"],
                         ids=lambda d: d.name)
def test_hint_with_exactly_the_row_keys_loads_and_runs(tmp_path, det):
    block = {k: "1 + 0.5*t" for k in det.function_keys}
    block.update({k: 1.0 for k in det.constant_keys})
    problem = load_problem(_write_problem(tmp_path, hints={det.name: block}))
    assert set(problem.hints[det.name]) == set(block)
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints)
    assert det.name in [r.name for r in reports]


def test_solve_unknown_criterion_lists_the_detectors(tmp_path, capsys):
    path = _write_problem(tmp_path)
    rc = main(["solve", str(path), "--output", str(tmp_path),
               "--criterion", "Nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown criterion 'Nope'" in err
    assert all(d.name in err for d in DETECTORS)


def test_solve_criterion_without_its_hint(tmp_path, capsys):
    path = _write_problem(tmp_path)
    rc = main(["solve", str(path), "--output", str(tmp_path),
               "--criterion", "Zh99Table3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hints.Zh99Table3 is missing" in err
    assert not list(tmp_path.glob("*.csv"))


# The per-pair loop over points that cli._points_dev replaced, kept as
# the reference for the array version.

def _reference_points_dev(xs_a, xs_b):
    worst = 0.0
    for a, b in zip(xs_a, xs_b):
        u = math.inf if a.is_inf else a.value
        v = math.inf if b.is_inf else b.value
        if abs(u) > 10.0 or abs(v) > 10.0:
            if abs(u) < 1.0 or abs(v) < 1.0:
                return math.inf
            u, v = -1.0 / u, -1.0 / v
        worst = max(worst, abs(u - v) / (1.0 + max(abs(u), abs(v))))
    return worst


# Trajectory values: finite or inf, rich in the chart boundaries +-1 and
# +-10 and the floats just beside them.
_EDGES = [float(np.nextafter(x, d)) for c in (1.0, 10.0) for x in (c, -c)
          for d in (-math.inf, x, math.inf)]
_VALUES = st.one_of(st.sampled_from([math.inf, 0.0, -0.0, *_EDGES]),
                    st.floats(-20.0, 20.0),
                    st.floats(allow_nan=False, allow_infinity=False))


@given(pairs=st.lists(st.tuples(_VALUES, _VALUES), max_size=12))
@example(pairs=[])
def test_points_dev_matches_the_per_pair_loop(pairs):
    a = [u for u, _ in pairs]
    b = [v for _, v in pairs]
    got = cli_module._points_dev(np.array(a), np.array(b))
    assert got == _reference_points_dev(points(a), points(b))
    assert cli_module._points_dev(np.array(b), np.array(a)) == got


# The recursive JSON printer that cli._dumps replaced, kept as the
# reference for the one-pass version.

def _reference_dumps(obj, level: int = 0) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_reference_dumps(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_dumps(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324]),
    st.floats())
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.sampled_from(['"', "\\", 'a "quoted" \\ path', "\x00\x1f\n\t\r", "é", " ",
                     "\U0001f600", ""]),
    st.text())
_JSON_DOCS = st.recursive(_JSON_LEAVES, lambda c: st.one_of(
    st.lists(c, max_size=4), st.lists(c, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), c, max_size=4)),
    max_leaves=24)


@given(doc=_JSON_DOCS)
@example(doc={})
@example(doc={"a": [], "b": {}, "c": (), "d": [[{}], {"e": ()}]})
@example(doc={"x": [-0.0, math.nan, math.inf, 1e-300, np.float64(-0.0), True, 1, "\"\\\x07é"]})
def test_dumps_is_the_recursive_printer(doc):
    assert cli_module._dumps(doc) == _reference_dumps(doc)


@pytest.mark.parametrize("doc", [{1, 2}, {"a": [1, object()]}, [np.bool_(True)],
                                 {"r": b"bytes"}])
def test_dumps_rejects_an_unsupported_type(doc):
    with pytest.raises(TypeError) as want:
        _reference_dumps(doc)
    with pytest.raises(TypeError) as got:
        cli_module._dumps(doc)
    assert str(got.value) == str(want.value)
