"""Output checks, run outside the timed region.

``solve``: one CSV per initial condition with n+1 samples, each matching
the direct RK4 oracle for the same equation and initial condition within
1e-6 relative.  Samples where both sides are finite with |x| <= 10 are
compared as in the CLI's own verify mode.  The CLI skips the rest; here
samples where both sides have |x| >= 1 are compared in the chart
w = -1/x instead, so a trajectory that stays near infinity is still
checked, and any other pair is a mismatch.  ``verify``: exit 0 and
``"passed": true``.
``classify``: exit 0, every detector reported, and the planted detector
among the satisfied reports.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from riccati_sl2.cli import load_problem
from riccati_sl2.criteria import DETECTOR_ORDER
from riccati_sl2.projline import INF, ExtReal
from riccati_sl2.riccati import integrate_direct

SOLVE_TOL = 1e-6
COMPARE_CAP = 10.0


def _comparable(x: ExtReal) -> bool:
    return not x.is_inf and abs(x.value) <= COMPARE_CAP


def _near_infinity(x: ExtReal) -> bool:
    return x.is_inf or abs(x.value) >= 1.0


def _w(x: ExtReal) -> float:
    return 0.0 if x.is_inf else -1.0 / x.value


def _rel(u: float, v: float) -> float:
    return abs(u - v) / (1.0 + max(abs(u), abs(v)))


def points_dev(xs_a, xs_b) -> float:
    """Max relative deviation between two sampled trajectories on the
    compactified line (see the module docstring)."""
    worst = 0.0
    for a, b in zip(xs_a, xs_b):
        if _comparable(a) and _comparable(b):
            worst = max(worst, _rel(a.value, b.value))
        elif _near_infinity(a) and _near_infinity(b):
            worst = max(worst, _rel(_w(a), _w(b)))
        else:
            return math.inf
    return worst


def _read_csv(path: Path) -> list[ExtReal]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "t,x":
        raise ValueError(f"{path.name}: bad header")
    return [INF if x == "inf" else ExtReal(float(x))
            for _, x in (line.split(",") for line in lines[1:])]


def check(entry: dict, problem_path: Path, rc: int, stdout: str,
          outdir: Path) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    command = entry["command"]
    if command == "verify":
        return None if doc.get("passed") is True else "verify did not pass"
    if command == "classify":
        reports = {r["name"]: r for r in doc.get("reports", [])}
        missing = [n for n in DETECTOR_ORDER if n not in reports]
        if missing:
            return f"detectors missing from report: {missing}"
        planted = entry["planted"]
        if planted and not reports.get(planted, {}).get("satisfied"):
            return f"planted detector {planted} not satisfied"
        return None
    problem = load_problem(problem_path)
    ta, tb = problem.t_interval
    n = max(1, round((tb - ta) / problem.step))
    trajectories = doc.get("trajectories", [])
    if len(trajectories) != len(problem.initial_conditions):
        return "one trajectory per initial condition expected"
    for item, x0 in zip(trajectories, problem.initial_conditions):
        xs = _read_csv(outdir / item["file"])
        if len(xs) != n + 1:
            return f"{item['file']}: {len(xs)} samples, expected {n + 1}"
        oracle = integrate_direct(problem.equation, x0, problem.t_interval,
                                  problem.step)
        dev = points_dev(xs, oracle.xs)
        if not dev <= SOLVE_TOL:
            return f"x0={x0}: deviation {dev:.3g} from the oracle"
    return None
