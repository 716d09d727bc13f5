"""Command-line front end: problem files in, classification reports and
trajectory CSVs out, plus a verify mode that cross-validates every
reduction against the direct integrator.

A problem file is JSON:

    {
      "schema": 1,
      "coefficients": {"b0": "1", "b1": "0", "b2": "-1"},
      "t_interval": [0.0, 2.0],
      "initial_conditions": [0.0, "inf"],
      "options": {"step": 0.001, "grid": 101, "tol": 1e-6},
      "hints": {"Zh99E": {"E": "t", "D": "1", "a": 1, "b": 1, "c": 1}},
      "known_solutions": ["1", "-1"]
    }

Coefficients and hint functions use the expression grammar of
:mod:`riccati_sl2.expr`; each hint holds exactly the keys of its row in
:data:`riccati_sl2.criteria.DETECTORS`.  A key not shown above, at the
top level or in ``options``, is an input error.  Output JSON is byte-stable
across runs: fixed key order and floats printed with 17 significant
digits.  Exit codes: 0 success, 1 verification/runtime failure or a
truncated trajectory, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import (CURVE_MATCH_TOL, DETECTORS, HintError, classify,
                       curve_residual, holds_on_solve_grid, max_pair_deviation,
                       read_hints, solve_via_report)
from .expr import (Expr, EvalDomainError, ParseError, QuadratureError, T,
                   evaluate_grid, parse, session)
from .projline import ExtReal, INF, cross_ratio_array, mobius_apply_array
from .riccati import RiccatiEquation, csv_texts, integrate_direct, time_grid
from .sl2 import (OneDimensionalTarget, integrate_group_equation,
                  reconstruct_solution)
from .solvers import (ResidualError, SolutionForm, sample_forms,
                      verify_particular_solution)
from .transform import CurveSL2, gauge_transform_algebra, transform_coefficients

__all__ = ["main", "load_problem", "cmd_solve", "cmd_classify", "cmd_verify",
           "Problem", "InputError"]

_DETECTORS = {d.name: d for d in DETECTORS}

# The most times a problem may ask for: points of the detection grid,
# and RK4 steps over t_interval.
_MAX_TIMES = 10 ** 6

# Trajectory comparison: pairs of points with |x| at most this compare
# in the x chart, pairs with |x| at least 1 in the chart w = -1/x.
_COMPARE_CAP = 10.0


class InputError(Exception):
    pass


@dataclass
class Problem:
    equation: RiccatiEquation
    t_interval: tuple[float, float]
    initial_conditions: list[ExtReal]
    step: float
    grid_n: int
    tol: float
    hints: dict
    known_solutions: list[Expr]

    def grid(self) -> np.ndarray:
        ta, tb = self.t_interval
        n = self.grid_n
        return ta + np.arange(n) * (tb - ta) / (n - 1)


def _number(v) -> bool:
    """A JSON number that is a finite float; booleans, which Python reads
    as integers, are not numbers here, and an integer past the largest
    float is not finite."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _check_keys(block: dict, expected: tuple[str, ...], where: str) -> None:
    unknown = [k for k in block if k not in expected]
    if unknown:
        raise InputError(f"{where}: unknown keys {unknown} "
                         f"(expected some of {list(expected)})")


def _parse_expr(text, where: str) -> Expr:
    if not isinstance(text, str):
        raise InputError(f"{where}: expected an expression string")
    try:
        return parse(text)
    except ParseError as exc:
        raise InputError(f"{where}: {exc}") from exc


def load_problem(path, overrides=None) -> Problem:
    """Read and validate a problem file; command-line overrides (step,
    grid, tol) win over the file's options block."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: problem file must be a JSON object")
    _check_keys(doc, ("schema", "coefficients", "t_interval", "initial_conditions",
                      "options", "hints", "known_solutions"), str(path))
    schema = doc.get("schema", 1)
    if type(schema) is not int or schema != 1:
        raise InputError(f"{path}: schema must be 1, not {json.dumps(schema)}")
    coeff = doc.get("coefficients")
    if not isinstance(coeff, dict):
        raise InputError(f"{path}: missing 'coefficients' object")
    exprs = {}
    for key in ("b0", "b1", "b2"):
        if key not in coeff:
            raise InputError(f"{path}: coefficients.{key} missing")
        exprs[key] = _parse_expr(coeff[key], f"{path}: coefficients.{key}")
    eq = RiccatiEquation(exprs["b0"], exprs["b1"], exprs["b2"])

    interval = doc.get("t_interval")
    if (not isinstance(interval, list) or len(interval) != 2
            or not all(_number(v) for v in interval)):
        raise InputError(f"{path}: t_interval must be [t_a, t_b] of finite numbers")
    ta, tb = float(interval[0]), float(interval[1])
    if not ta < tb:
        raise InputError(f"{path}: t_interval must be increasing")

    ics_raw = doc.get("initial_conditions")
    if not isinstance(ics_raw, list) or not ics_raw:
        raise InputError(f"{path}: initial_conditions must be a non-empty list")
    ics = []
    for i, v in enumerate(ics_raw):
        if _number(v):
            ics.append(ExtReal(float(v)))
        elif v == "inf":
            ics.append(INF)
        else:
            raise InputError(
                f"{path}: initial_conditions[{i}] must be a finite number or \"inf\"")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError(f"{path}: options must be an object")
    _check_keys(options, ("step", "grid", "tol"), f"{path}: options")

    def option(key, default):
        value = getattr(overrides, key, None)
        return options.get(key, default) if value is None else value

    step, grid_n, tol = option("step", 1e-3), option("grid", 101), option("tol", 1e-6)
    if not (_number(step) and step > 0):
        raise InputError(f"{path}: step must be a positive finite number")
    if not (isinstance(grid_n, int) and 2 <= grid_n <= _MAX_TIMES):
        raise InputError(f"{path}: grid must be an integer from 2 to {_MAX_TIMES}")
    if not (_number(tol) and tol > 0):
        raise InputError(f"{path}: tol must be a positive finite number")
    # The last time of each grid, as Problem.grid and time_grid compute
    # it, must be finite; the times before it lie between t_a and it.
    too_wide = InputError(f"{path}: t_interval must give finite grid times")
    if not math.isfinite(ta + (grid_n - 1) * (tb - ta) / (grid_n - 1)):
        raise too_wide
    steps = (tb - ta) / step
    if not steps <= _MAX_TIMES:
        raise InputError(f"{path}: step must divide t_interval into at most "
                         f"{_MAX_TIMES} steps")
    n = max(1, round(steps))
    if not math.isfinite(ta + n * ((tb - ta) / n)):
        raise too_wide

    try:
        hints = read_hints(doc.get("hints", {}))
    except HintError as exc:
        raise InputError(f"{path}: {exc}") from exc

    known_raw = doc.get("known_solutions", [])
    if not isinstance(known_raw, list):
        raise InputError(f"{path}: known_solutions must be a list")
    known = [_parse_expr(s, f"{path}: known_solutions[{i}]")
             for i, s in enumerate(known_raw)]

    return Problem(equation=eq, t_interval=(ta, tb),
                   initial_conditions=ics, step=float(step),
                   grid_n=grid_n, tol=float(tol), hints=hints,
                   known_solutions=known)


# Deterministic JSON: fixed key order (construction order) and floats
# with 17 significant digits; strings as ``json.dumps`` writes them.
_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """``obj`` as indented JSON, written in one pass over a chunk list."""
    chunks = []
    put = chunks.append

    def write(obj, pad):
        if isinstance(obj, dict):
            inner, sep = pad + "  ", "{\n"
            for k, v in obj.items():
                put(f"{sep}{inner}{_encode_str(str(k))}: ")
                write(v, inner)
                sep = ",\n"
            put(f"\n{pad}}}" if obj else "{}")
        elif isinstance(obj, (list, tuple)):
            inner, sep = pad + "  ", "[\n"
            for v in obj:
                put(sep + inner)
                write(v, inner)
                sep = ",\n"
            put(f"\n{pad}]" if obj else "[]")
        elif isinstance(obj, bool):
            put("true" if obj else "false")
        elif obj is None:
            put("null")
        elif isinstance(obj, int):
            put(str(obj))
        elif isinstance(obj, float):
            put(format(obj, ".17g") if math.isfinite(obj) else "null")
        elif isinstance(obj, str):
            put(_encode_str(obj))
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    write(obj, "")
    return "".join(chunks)


def _curve_json(curve: CurveSL2 | None):
    if curve is None:
        return None
    return {"alpha": str(curve.alpha), "beta": str(curve.beta),
            "gamma": str(curve.gamma), "delta": str(curve.delta)}


def _target_json(target):
    if target is None:
        return None
    if isinstance(target, OneDimensionalTarget):
        return {"kind": "one_dimensional",
                "c": [target.c0, target.c1, target.c2],
                "rate": str(target.rate)}
    return {"kind": "affine_solvable",
            "b0": str(target.b0), "b1": str(target.b1), "b2": str(target.b2)}


def _report_json(report):
    doc = {
        "name": report.name,
        "satisfied": report.satisfied,
        "constants": {k: float(v) for k, v in report.constants.items()},
        "functions": {k: str(v) for k, v in report.functions.items()},
        "curve": _curve_json(report.curve),
        "target": _target_json(report.target),
        "diagnostics": dict(report.diagnostics),
    }
    if report.alternates:
        doc["alternates"] = [
            {"curve": _curve_json(c), "target": _target_json(t)}
            for c, t in report.alternates]
    return doc


def _problem_json(problem: Problem):
    eq = problem.equation
    return {
        "b0": str(eq.b0), "b1": str(eq.b1), "b2": str(eq.b2),
        "t_interval": [problem.t_interval[0], problem.t_interval[1]],
        "initial_conditions": [str(x) for x in problem.initial_conditions],
        "step": problem.step, "grid": problem.grid_n, "tol": problem.tol,
    }


def _points_dev(xs_a, xs_b) -> float:
    """Max relative deviation between two sampled trajectories, float
    arrays with inf for infinity.  A pair with both |x| <= 10 compares
    in the x chart, else a pair with both |x| >= 1 in the chart w = -1/x
    (infinity is w = 0); any other pair is a mismatch (inf)."""
    u, v = np.array(xs_a, dtype=float), np.array(xs_b, dtype=float)
    far = np.maximum(abs(u), abs(v)) > _COMPARE_CAP
    if np.any(far & (np.minimum(abs(u), abs(v)) < 1.0)):
        return math.inf
    u[far], v[far] = -1.0 / u[far], -1.0 / v[far]
    return float(np.max(abs(u - v) / (1.0 + np.maximum(abs(u), abs(v))), initial=0.0))


def cmd_classify(problem: Problem, args) -> int:
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints)
    doc = {
        "schema": 1,
        "command": "classify",
        "problem": _problem_json(problem),
        "reports": [_report_json(r) for r in reports],
    }
    print(_dumps(doc))
    return 0


def cmd_solve(problem: Problem, args) -> int:
    wanted = getattr(args, "criterion", None)
    if wanted:
        if wanted not in _DETECTORS:
            raise InputError(f"unknown criterion {wanted!r} "
                             f"(expected one of {list(_DETECTORS)})")
        if _DETECTORS[wanted].hint == "required" and wanted not in problem.hints:
            raise InputError(f"criterion {wanted!r} needs a hint, and "
                             f"hints.{wanted} is missing")
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints)

    def usable(r):
        return r.satisfied and holds_on_solve_grid(
            r, problem.equation, problem.t_interval, problem.step)

    if wanted:
        chosen = next(r for r in reports if r.name == wanted)
        if not usable(chosen):
            raise InputError(f"criterion {wanted!r} is not satisfied: "
                             f"{chosen.diagnostics.get('reason', '')}")
    else:
        chosen = next((r for r in reports if usable(r)), None)
    ics = problem.initial_conditions
    if chosen is not None:
        trajs = solve_via_report(chosen, ics, problem.t_interval, problem.step)
    else:
        trajs = [integrate_direct(problem.equation, x0, problem.t_interval,
                                  problem.step) for x0 in ics]
    outdir = target = Path(getattr(args, "output", ".") or ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(csv_texts(trajs)):
            target = outdir / f"trajectory_{i}.csv"
            target.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc}") from exc
    entries = []
    truncated = False
    for i, (x0, traj) in enumerate(zip(ics, trajs)):
        fname = f"trajectory_{i}.csv"
        truncated = truncated or traj.error is not None
        entries.append({
            "initial_condition": str(x0), "file": fname,
            "samples": len(traj), "error": traj.error,
            "truncated_at": traj.ts[-1] if traj.error is not None else None,
            "chart_switches": len(traj.chart_switches)})
    doc = {
        "schema": 1,
        "command": "solve",
        "criterion": chosen.name if chosen is not None else None,
        "no_reduction_found": chosen is None,
        "trajectories": entries,
        "reports": [_report_json(r) for r in reports],
    }
    print(_dumps(doc))
    return 1 if truncated else 0


class _Truncated(Exception):
    """A check compares against a trajectory that stopped early."""


def _complete(traj):
    if traj.error is not None:
        raise _Truncated(traj.error)
    return traj


def cmd_verify(problem: Problem, args) -> int:
    eq = problem.equation
    grid = problem.grid()
    span = problem.t_interval
    step = problem.step
    ics = problem.initial_conditions
    checks = []

    def check(name, tol, compute):
        """Record a check, failed with the reason when ``compute`` raises
        and left out when it returns None."""
        try:
            dev = compute()
        except (EvalDomainError, QuadratureError, ArithmeticError, _Truncated) as exc:
            checks.append({"name": name, "max_deviation": None, "tolerance": tol,
                           "passed": False, "reason": str(exc)})
        else:
            if dev is not None:
                checks.append({"name": name, "max_deviation": dev,
                               "tolerance": tol, "passed": bool(dev <= tol)})

    for x1 in problem.known_solutions:
        try:
            verify_particular_solution(eq, x1, grid)
        except ResidualError as exc:
            raise InputError(f"known solution '{x1}' fails the equation: {exc}")
        except (EvalDomainError, QuadratureError) as exc:
            raise InputError(f"known solution '{x1}' cannot be evaluated: {exc}")

    reports = classify(eq, grid, problem.tol, problem.hints)
    satisfied = [r for r in reports if r.satisfied]

    # Hinted detectors: their printed conditions must hold as stated.
    by_name = {r.name: r for r in reports}
    for name in problem.hints:
        rep = by_name[name]
        dev = rep.diagnostics.get("max_dev")
        if dev is None:
            dev = 0.0 if rep.satisfied else math.inf
        check(f"criterion[{name}]", problem.tol, lambda: dev)

    # The direct oracle, integrated once per initial condition.
    direct = {x: integrate_direct(eq, x, span, step) for x in dict.fromkeys(ics)}

    # Each satisfied reduction on the solve grid, where solve uses it.
    solve_grid = time_grid(span, step)[0]
    for r in satisfied:
        check(f"solve_grid[{r.name}]", CURVE_MATCH_TOL,
              lambda r=r: curve_residual(r, eq, solve_grid))

    # Solution equivariance of each satisfied criterion's curve.
    base = direct[ics[0]]
    pairs = [(r.name, r.curve, transform_coefficients(eq, r.curve)) for r in satisfied]
    for name, c, tr in pairs:
        def equivariance(c=c, tr=tr):
            curve = evaluate_grid(c.entries(), base.ts)
            x0 = mobius_apply_array(*curve[:, 0], float(ics[0]))
            image = integrate_direct(tr, float(x0), span, step)
            return _points_dev(mobius_apply_array(*curve, _complete(base).values),
                               _complete(image).values)
        check(f"equivariance[{name}]", 1e-6, equivariance)

    # Gauge law versus coefficient law, on each reducing curve and the tree
    # built above (or on an elementary curve when nothing is satisfied).
    if not pairs:
        c = CurveSL2.translation(T)
        pairs = [("translation", c, transform_coefficients(eq, c))]
    for name, c, tr in pairs:
        g = gauge_transform_algebra(eq, c)
        check(f"gauge_consistency[{name}]", 1e-9, lambda: max_pair_deviation(
            ((g.b0, tr.b0), (g.b1, tr.b1), (g.b2, tr.b2)), grid))

    # Group-equation reconstruction against the direct oracle.  The group
    # RK4 runs once; its failure fails every check.  Every initial point
    # goes through one Möbius call, or, if that raises, a call of its own,
    # so that each check keeps its own failure.
    group = failure = batch = None
    try:
        group = integrate_group_equation(eq, span, step)
    except (EvalDomainError, QuadratureError, ArithmeticError) as exc:
        failure = exc
    else:
        with contextlib.suppress(ValueError, ArithmeticError):
            batch = mobius_apply_array(*group.values[:, None, :],
                                       np.array([float(x) for x in ics])[:, None])

    def reconstructed(i, xi):
        if failure is not None:
            raise failure
        return reconstruct_solution(group, xi).values if batch is None else batch[i]

    for i, xi in enumerate(ics):
        check(f"reconstruction[{i}]", 1e-6, lambda i=i, xi=xi: _points_dev(
            reconstructed(i, xi), _complete(direct[xi]).values))

    # Cross-ratio constancy, when three reference solutions are available
    # besides the probe.
    def cross_ratio_dev():
        xs = _complete(base).values
        known = [SolutionForm(k) for k in problem.known_solutions[:3]]
        refs = list(sample_forms(known, base.ts))
        refs += [_complete(direct[xi]).values for xi in ics[1:4 - len(refs)]]
        ratios = cross_ratio_array(xs, *refs)
        ratios = np.sort(ratios[np.isfinite(ratios)])
        if len(ratios) < len(xs) // 2:
            return None
        mid = ratios[len(ratios) // 2]
        return float(np.max(abs(ratios - mid)) / (1.0 + abs(mid)))

    if len(problem.known_solutions) + len(ics) - 1 >= 3:
        check("cross_ratio_constancy", 1e-6, cross_ratio_dev)

    passed = all(c["passed"] for c in checks)
    doc = {
        "schema": 1,
        "command": "verify",
        "problem": _problem_json(problem),
        "checks": checks,
        "passed": passed,
    }
    print(_dumps(doc))
    return 0 if passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccati-sl2",
        description="Solve and classify time-dependent Riccati equations "
                    "through SL(2,R)-valued curve transformations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (JSON)")
    common.add_argument("--step", type=float, default=None,
                        help="integrator step override")
    common.add_argument("--grid", type=int, default=None,
                        help="detection grid size override")
    common.add_argument("--tol", type=float, default=None,
                        help="detection tolerance override")
    common.add_argument("--output", default=".",
                        help="output directory for CSV files")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", parents=[common],
                           help="classify, reduce, and write trajectories")
    solve.add_argument("--criterion", default=None,
                       help="force a particular detector by name")
    sub.add_parser("classify", parents=[common],
                   help="run the detectors and print the report")
    sub.add_parser("verify", parents=[common],
                   help="cross-validate reductions against the direct oracle")
    return parser


_COMMANDS = {"solve": cmd_solve, "classify": cmd_classify, "verify": cmd_verify}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    debug = os.environ.get("RICCATI_LOG", "").lower() == "debug"
    # One session per command: detectors and checks share derivatives
    # and grid values.
    with session() as shared:
        try:
            problem = load_problem(args.problem, args)
            rc = _COMMANDS[args.command](problem, args)
        except (InputError, ArithmeticError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2 if isinstance(exc, InputError) else 1
    if debug:
        print(json.dumps(shared.counts()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
