import collections
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import riccati_sl2.cli as cli_module
from riccati_sl2 import integrate_direct, points
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
    assert (tmp_path / "trajectory_0.csv").read_text() == traj.to_csv_text()


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
], ids=["coefficient", "known-solution", "overflowing-literal",
        "infinite-hint-constant"])
def test_parse_errors_name_the_file(tmp_path, capsys, over, message):
    path = _write_problem(tmp_path, **over)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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
    assert set(counts) == {"expr.evaluate_grid.subtrees_computed",
                           "expr.evaluate_grid.subtrees_reused",
                           "expr.differentiate.nodes_computed",
                           "expr.differentiate.nodes_reused"}
    assert all(type(n) is int and n >= 0 for n in counts.values())


def test_bad_known_solution_is_input_error(tmp_path, capsys):
    path = _write_problem(tmp_path, known_solutions=["t"])
    rc = main(["verify", str(path)])
    assert rc == 2


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


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "riccati_sl2", "classify",
         str(PROBLEMS / "autonomous.json")],
        capture_output=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["command"] == "classify"


def test_verify_reports_domain_failures_as_checks(tmp_path, capsys):
    # The detection grid misses the window |t - pi/20| < 7e-4 where b1
    # leaves its domain, so classify passes; every trajectory stops there.
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
