"""Automatic detectors for integrability conditions of Riccati equations.

Each detector inspects an equation numerically on a grid, fits whatever
constants its condition requires, and on success reports the reducing
SL(2,R)-valued curve together with the solvable target equation that the
curve produces.  Failures are reports, not exceptions: an equation that
misses a condition yields an unsatisfied report whose diagnostics say
what failed and by how much.

Every satisfied report is self-checked: the coefficient law runs on the
grid values of the curve's entries, their derivatives and the
coefficients, building a transformed tree only where a value fails, and
must give the target's values (within 1e-8 relative), so a wrong curve
flags itself instead of silently producing a bad reduction.

Detectors whose conditions quantify over a free function (the
Zh99 E-family, the table rows, and RU68 in verification mode) take the
auxiliary functions as hints; hint-free discovery is provided only where
a canonical recovery exists.  :func:`read_hints` checks hint blocks
against the rows of :data:`DETECTORS`, and :func:`classify` runs it
before any detector.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .expr import (Expr, ONE, ZERO, Const, Div, EvalDomainError, ParseError,
                   QuadratureError, _sample, differentiate, evaluate_grid,
                   exp, integral_from, parse, sqrt)
from .projline import ext, mobius_apply_array
from .riccati import RiccatiEquation, Trajectory, time_grid
from .sl2 import OneDimensionalTarget, solve_one_dimensional_target
from .solvers import sample_forms, solve_linear
from .transform import CurveSL2, affine_action, inverse, transform_coefficients

__all__ = [
    "CriterionReport", "HintError", "constancy_fit",
    "check_rao_K", "check_rao_W0", "check_ru68", "check_allen_stein",
    "check_ko06", "check_ra61", "check_rdm05", "check_zh99_basic",
    "check_zh99_E", "check_zh99_table", "classify", "read_hints",
    "curve_residual", "holds_on_solve_grid", "solve_via_report",
    "max_pair_deviation", "Detector", "DETECTORS", "DETECTOR_ORDER",
    "DEFAULT_TOL", "CURVE_MATCH_TOL",
]

DEFAULT_TOL = 1e-6
CURVE_MATCH_TOL = 1e-8


class HintError(ValueError):
    """A hint block that does not match its row of :data:`DETECTORS`."""


@dataclass
class CriterionReport:
    """Outcome of one detector run."""

    name: str
    satisfied: bool
    constants: dict[str, float] = field(default_factory=dict)
    functions: dict[str, Expr] = field(default_factory=dict)
    curve: CurveSL2 | None = None
    target: OneDimensionalTarget | RiccatiEquation | None = None
    diagnostics: dict = field(default_factory=dict)
    alternates: list = field(default_factory=list)


def constancy_fit(f: Expr, grid) -> tuple[float, float]:
    """Fit a constant to f on the grid: value is the sample median,
    max_dev the worst deviation relative to 1 + |value|.  A grid point
    where f is not evaluable raises the first failure's error."""
    a = evaluate_grid(f, grid)
    value = statistics.median(a.tolist())
    return value, float(np.max(abs(a - value))) / (1.0 + abs(value))


def _max_rel_dev(lv, rv) -> float:
    """The worst relative deviation of max_pair_deviation, on value arrays."""
    return float((abs(lv - rv) / (1.0 + abs(lv) + abs(rv))).max())


def max_pair_deviation(pairs, grid) -> float:
    """Worst |l - r| / (1 + |l| + |r|) of the (l, r) expression pairs, in one grid walk."""
    vals = evaluate_grid([e for pair in pairs for e in pair], grid)
    return _max_rel_dev(vals[0::2], vals[1::2])


def _unsat(name: str, reason: str, **diag) -> CriterionReport:
    return CriterionReport(name=name, satisfied=False,
                           diagnostics={"reason": reason, **diag})


def _finish(report: CriterionReport, eq: RiccatiEquation, grid) -> CriterionReport:
    """Self-check a satisfied report: the curve must reproduce the target
    through the coefficient transformation law."""
    if not report.satisfied or report.curve is None or report.target is None:
        return report
    worst = report.diagnostics["curve_residual"] = curve_residual(report, eq, grid)
    if worst > CURVE_MATCH_TOL:
        report.satisfied = False
        report.diagnostics["reason"] = (
            f"reducing curve does not reproduce the target "
            f"(residual {worst:.3g} > {CURVE_MATCH_TOL:g})")
    return report


@np.errstate(all="ignore")  # the law's values at failed times are meaningless
def curve_residual(report: CriterionReport, eq: RiccatiEquation, grid) -> float:
    """Worst relative deviation on the grid between the target and the
    affine law on the values of the curve's entries, their derivatives
    and eq's coefficients, or on the law's trees where a value fails
    (see README, Numerical conventions)."""
    target = report.target
    teq = target.equation() if isinstance(target, OneDimensionalTarget) else target
    entries = report.curve.entries()
    vals, failures = next(_sample(
        (*entries, *map(differentiate, entries), eq.b0, eq.b1, eq.b2,
         teq.b0, teq.b1, teq.b2), (np.asarray(grid, dtype=float),)))
    lv, rv = np.array(affine_action(*vals[:11])), vals[11:]
    if not failures and np.isfinite(lv).all():
        return _max_rel_dev(lv, rv)
    tr = transform_coefficients(eq, report.curve)
    return max_pair_deviation(((tr.b0, teq.b0), (tr.b1, teq.b1), (tr.b2, teq.b2)), grid)


def holds_on_solve_grid(report: CriterionReport, eq: RiccatiEquation,
                        t_span, step: float) -> bool:
    """Repeat the self-check of a satisfied report on the grid of
    :func:`solve_via_report`, which uses the curve at every step, not
    only at the detection points.  A report that fails there is marked
    not satisfied, with the reason; one not satisfied is left as it is."""
    if not report.satisfied:
        return False
    probe = replace(report, diagnostics={})
    try:
        _finish(probe, eq, time_grid(t_span, step)[0])
    except (EvalDomainError, QuadratureError) as exc:
        probe.satisfied = False
        probe.diagnostics["reason"] = f"evaluation failed: {exc}"
    if not probe.satisfied:
        report.satisfied = False
        report.diagnostics["reason"] = f"on the solve grid, {probe.diagnostics['reason']}"
    return report.satisfied


def _fitted(name: str, eq: RiccatiEquation, grid, tol: float, dev: float,
            fitted: str, diagnostics: dict | None = None,
            **found) -> CriterionReport:
    """Report of a detector whose condition is that the constants named
    by ``fitted`` are constant on the grid (worst relative deviation
    ``dev``).  ``diagnostics`` holds what the detector recorded first
    (its keys keep their places); ``found`` holds the report's
    constants, functions, curve, target and alternates."""
    report = CriterionReport(
        name=name, satisfied=dev <= tol,
        diagnostics={**(diagnostics or {}), "max_dev": dev,
                     "grid_points": len(grid)}, **found)
    if not report.satisfied:
        report.diagnostics["reason"] = f"{fitted} is not constant (max_dev {dev:.3g})"
    return _finish(report, eq, grid)


def _sign_choice(name: str, eq: RiccatiEquation, grid, build, abc,
                 D: Expr, functions: dict, diagnostics: dict,
                 check_det: bool = False) -> CriterionReport:
    """Report of a Zh99 detector whose conditions hold for ``abc`` =
    (a, b, c).  They also hold for (-a, b, -c), so the curve ``build(s)``
    is taken with the first s in (1, -1) that keeps its square roots real
    on the grid; the target is D(t)(s c + b y + s a y^2).  With
    ``check_det`` a curve whose determinant is not 1 on the grid is
    flagged rather than corrected."""
    a, b, c = abc
    for s in (1.0, -1.0):
        curve = build(s)
        try:
            al, be, ga, de = evaluate_grid(curve.entries(), grid)
            break
        except (EvalDomainError, QuadratureError):
            pass
    else:
        return _unsat(name, "square-root domain failure under both sign choices")
    det_dev = 0.0
    if check_det:
        det_dev = float(abs(al * de - be * ga - 1.0).max())
        diagnostics = {"max_dev": diagnostics["max_dev"],
                       "determinant_dev": det_dev, **diagnostics}
    if s < 0:
        diagnostics["sign_flipped"] = True
    report = CriterionReport(name=name, satisfied=det_dev <= 1e-9,
                             functions=functions, curve=curve,
                             diagnostics=diagnostics)
    if report.satisfied:
        report.constants = {"a": s * a, "b": b, "c": s * c}
        report.target = OneDimensionalTarget(s * c, b, s * a, D)
    else:
        diagnostics["reason"] = (
            f"curve determinant deviates from 1 by {det_dev:.3g}; "
            "row flagged rather than corrected")
    return _finish(report, eq, grid)


def _sign(vals) -> float | None:
    """1.0 if all values are positive, -1.0 if all are negative, else None."""
    if (vals > 0.0).all():
        return 1.0
    if (vals < 0.0).all():
        return -1.0
    return None


def _positivity(name: str, label: str, vals, grid) -> CriterionReport | None:
    """None if ``vals`` (an expression, or its values on the grid) is
    strictly positive on the grid, else an unsatisfied report saying
    which precondition failed and where."""
    if isinstance(vals, Expr):
        vals = evaluate_grid(vals, grid)
    i = int(np.argmin(vals))
    if vals[i] <= 0.0:
        return _unsat(name, f"precondition {label} > 0 fails",
                      failed=label, min_value=float(vals[i]), at_t=grid[i])
    return None


def _b0_b2_values(name: str, eq: RiccatiEquation, grid, b0_first: bool):
    """(b0, b2) on the grid, or the report that b2 vanishes.  As at each
    time b0 and b2 were evaluated (b0 first or last) and b2 tested right
    after, the earliest time where b2 vanishes (where b2 / b2 divides by
    zero, in the test or in b0: the node is interned, so one object) or
    an evaluation fails decides; a failure raises."""
    b0, b2 = eq.b0, eq.b2
    test = Div(b2, b2)
    roots = (b0, b2, test) if b0_first else (b2, test, b0)
    vals, failures = next(_sample(roots, (np.asarray(grid, dtype=float),)))
    if failures:
        i = min(failures)
        if getattr(failures[i], "subexpr", None) is test:
            return _unsat(name, "b2 vanishes on the grid", at_t=grid[i])
        raise failures[i]
    return (vals[0], vals[1]) if b0_first else (vals[2], vals[0])


def check_rao_K(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Constancy of the normalized invariant built from
    W = b2^2 b0 + b1' b2 - b1 b2' (requires b2 > 0 and W > 0).  The
    reducing curve rescales by sqrt(v) (W = b2^3 v^2) and shifts by
    b1/b2, landing in the span of M0 - K*M1 + M2 at rate sqrt(W/b2)."""
    name = "RaoK"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    db1, db2 = differentiate(b1), differentiate(b2)
    W = b2 ** 2 * b0 + db1 * b2 - b1 * db2
    bad = _positivity(name, "b2", b2, grid) or _positivity(name, "W", W, grid)
    if bad:
        return bad
    dW = differentiate(W)
    K_expr = (b2 * dW - (3.0 * db2 - 2.0 * b1 * b2) * W) / (
        2.0 * sqrt(b2) * (W * sqrt(W)))
    K, dev = constancy_fit(K_expr, grid)
    v = sqrt(W / b2 ** 3)
    sv = sqrt(v)
    curve = CurveSL2(1.0 / sv, b1 / (b2 * sv), ZERO, sv)
    target = OneDimensionalTarget(1.0, -K, 1.0, sqrt(W / b2))
    return _fitted(name, eq, grid, tol, dev, "K", constants={"K": K},
                   functions={"W": W, "v": v}, curve=curve, target=target)


def check_rao_W0(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """The degenerate case W identically zero: a diagonal-plus-shear
    curve with exponential-of-quadrature entries removes b0 and b1
    entirely, leaving dy/dt = b2 * alpha^-2 * y^2 (the span of M2)."""
    name = "RaoW0"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    db1, db2 = differentiate(b1), differentiate(b2)
    b2_abs = abs(evaluate_grid(b2, grid))
    if b2_abs.min() <= 1e-12 * (1.0 + b2_abs.max()):
        return _unsat(name, "b2 vanishes on the grid")
    tv = evaluate_grid((b2 ** 2 * b0, db1 * b2, b1 * db2), grid)
    worst = float((abs(tv[0] + tv[1] - tv[2]) / (1.0 + abs(tv).sum(axis=0))).max())
    if worst > tol:
        return _unsat(name, f"W is not identically zero (max_dev {worst:.3g})",
                      max_dev=worst)
    t0 = grid[0]
    ib = integral_from(b1, t0)
    alpha = exp(0.5 * ib)
    delta = exp(-0.5 * ib)
    curve = CurveSL2(alpha, alpha * (b1 / b2), ZERO, delta)
    target = OneDimensionalTarget(0.0, 0.0, 1.0, b2 * delta ** 2)
    W = b2 ** 2 * b0 + db1 * b2 - b1 * db2
    return _fitted(name, eq, grid, tol, worst, "W", functions={"W": W},
                   curve=curve, target=target)


def check_ru68(eq: RiccatiEquation, grid, hint: dict | None = None,
               tol: float = DEFAULT_TOL) -> CriterionReport:
    """Coupled conditions v' = -k b0 + b1 v and b2 = b0/(c v^2).

    With a hint (v, c, k) both relations are verified directly.  Without
    one, the scale of v is not identifiable, so the canonical gauge
    c in {+1, -1} = sign(b0/b2) is fixed, v = sqrt(b0/(c b2)), and k is
    fitted from (b1 v - v')/b0.  The curve rescales by sqrt(v)."""
    name = "RU68"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    if hint is not None:
        mode, violated = "verification", "hinted relations violated"
        v, c, k = hint["v"], hint["c"], hint["k"]
        dev = max_pair_deviation(((differentiate(v), -k * b0 + b1 * v),
                                  (b2, b0 / (Const(c) * v ** 2))), grid)
    else:
        mode, violated = "discovery", "k is not constant"
        vals = _b0_b2_values(name, eq, grid, b0_first=True)
        if isinstance(vals, CriterionReport):
            return vals
        c = _sign(vals[0] / vals[1])
        if c is None:
            return _unsat(name, "b0/b2 changes sign or vanishes on the grid; "
                                "v cannot be recovered")
        v = sqrt(b0 / (Const(c) * b2))
        k, dev = constancy_fit((b1 * v - differentiate(v)) / b0, grid)
    if dev > tol:
        return _unsat(name, f"{violated} (max_dev {dev:.3g})",
                      max_dev=dev, mode=mode)
    sv = sqrt(v)
    return _fitted(name, eq, grid, tol, dev, "k",
                   {"grid_points": len(grid), "max_dev": dev, "mode": mode},
                   constants={"c": c, "k": k}, functions={"v": v},
                   curve=CurveSL2(1.0 / sv, ZERO, ZERO, sv),
                   target=OneDimensionalTarget(1.0, k, 1.0 / c, b0 / v))


def check_allen_stein(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Constancy of (b1 + (b2'/b2 - b0'/b0)/2) / sqrt(b0 b2) (requires
    b0 b2 > 0); the curve rescales by (b0/b2)^(1/4)."""
    name = "AllenStein"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    prod = b0 * b2
    bad = _positivity(name, "b0*b2", prod, grid)
    if bad:
        return bad
    s = 1.0 if evaluate_grid(b0, grid)[0] > 0.0 else -1.0
    db0, db2 = differentiate(b0), differentiate(b2)
    C_expr = (b1 + 0.5 * (db2 / b2 - db0 / b0)) / sqrt(prod)
    C, dev = constancy_fit(C_expr, grid)
    curve = CurveSL2(sqrt(sqrt(b2 / b0)), ZERO, ZERO, sqrt(sqrt(b0 / b2)))
    # For negative b0 (and hence negative b2) the transformed equation is
    # the printed one with rate and middle constant carrying the sign.
    target = OneDimensionalTarget(1.0, s * C, 1.0, Const(s) * sqrt(prod))
    return _fitted(name, eq, grid, tol, dev, "C", constants={"C": C},
                   curve=curve, target=target)


def check_ko06(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Family dy/dt = -(c1/F) y^2 + (c2 + F'/F) y + F with F = b0 > 0:
    fits c2 = b1 - b0'/b0 and c1 = -b2 b0; the curve rescales by
    sqrt(F).  Two alternate rescalings exist when -c1 > 0 and are
    reported alongside."""
    name = "Ko06"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    bad = _positivity(name, "b0", b0, grid)
    if bad:
        return bad
    db0 = differentiate(b0)
    c2, dev2 = constancy_fit(b1 - db0 / b0, grid)
    c1, dev1 = constancy_fit(-(b2 * b0), grid)
    dev = max(dev1, dev2)
    curve = CurveSL2(sqrt(1.0 / b0), ZERO, ZERO, sqrt(b0))
    target = OneDimensionalTarget(1.0, c2, -c1, ONE)
    alternates = []
    if -c1 > 0.0:
        mc1 = -c1
        alternates.append((
            CurveSL2(sqrt(Const(mc1) / b0), ZERO, ZERO, sqrt(b0 / Const(mc1))),
            OneDimensionalTarget(mc1, c2, 1.0, ONE)))
        alternates.append((
            CurveSL2(sqrt(sqrt(Const(mc1) / b0 ** 2)), ZERO, ZERO,
                     sqrt(sqrt(b0 ** 2 / Const(mc1)))),
            OneDimensionalTarget(math.sqrt(mc1), c2, math.sqrt(mc1), ONE)))
    return _fitted(name, eq, grid, tol, dev, "c1 or c2",
                   constants={"c1": c1, "c2": c2}, functions={"F": b0},
                   curve=curve, target=target, alternates=alternates)


def check_ra61(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Log-derivative condition d/dt log(-b0/b2) = 2 b1, equivalently
    (-b0/b2) e^{-2 int b1} equal to a positive constant; the curve is the
    diagonal exponential-of-quadrature rescaling."""
    name = "Ra61"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    vals = _b0_b2_values(name, eq, grid, b0_first=False)
    if isinstance(vals, CriterionReport):
        return vals
    bad = _positivity(name, "-b0/b2", -vals[0] / vals[1], grid)
    if bad:
        return bad
    t0 = grid[0]
    ib = integral_from(b1, t0)
    a, dev = constancy_fit((-b0 / b2) * exp(Const(-2.0) * ib), grid)
    alpha = exp(Const(-0.5) * ib)
    delta = exp(Const(0.5) * ib)
    curve = CurveSL2(alpha, ZERO, ZERO, delta)
    target = OneDimensionalTarget(-a, 0.0, 1.0, delta ** 2 * b2)
    return _fitted(name, eq, grid, tol, dev, "a", constants={"a": a},
                   curve=curve, target=target)


def check_rdm05(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Constant-solution pattern b0 + b1 y + b2 y^2 with y = r constant:
    solves the quadratic at the middle time of one grid sampling, checks
    each root on the whole grid, and reduces by the constant homography
    with k = -1/r to an inhomogeneous linear (two-dimensional) target."""
    name = "RDM05"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    vals, failures = next(_sample((b0, b1, b2), (np.asarray(grid, dtype=float),)))
    m = len(grid) // 2
    if m in failures:
        raise failures[m]
    A0, A1, A2 = vals[:, m].tolist()
    scale = abs(A0) + abs(A1) + abs(A2) + 1.0
    candidates: list[float] = []
    if abs(A2) > 1e-12 * scale:
        disc = A1 * A1 - 4.0 * A0 * A2
        if disc >= 0.0:
            rt = math.sqrt(disc)
            candidates = [(-A1 + rt) / (2.0 * A2), (-A1 - rt) / (2.0 * A2)]
    elif abs(A1) > 1e-12 * scale:
        candidates = [-A0 / A1]
    verified: list[tuple[float, float]] = []
    if candidates and failures:
        raise failures[min(failures)]
    c0, c1, c2 = vals
    for r in sorted(set(candidates), reverse=True):
        res = c0 + c1 * r + c2 * r * r
        worst = float((abs(res) / (
            1.0 + abs(c0) + abs(c1 * r) + abs(c2 * r * r))).max())
        if worst <= tol:
            verified.append((r, worst))
    chosen = next(((r, w) for r, w in verified if abs(r) > 1e-12), None)
    if chosen is None:
        if verified:
            return _unsat(name, "constant solution is zero: the equation has "
                                "b0 = 0 and is a Bernoulli case, not this pattern")
        return _unsat(name, "no real constant solution")
    r, worst = chosen
    k = -1.0 / r
    curve = CurveSL2.of(0.0, r, k, 1.0)
    target_eq = RiccatiEquation(b1 * Const(1.0 / k) - b0,
                                b1 - Const(2.0 * k) * b0, ZERO)
    return _fitted(name, eq, grid, tol, worst, "r", constants={"k": k, "r": r},
                   curve=curve, target=target_eq)


def check_zh99_basic(eq: RiccatiEquation, grid, hint: dict | None = None,
                     tol: float = DEFAULT_TOL) -> CriterionReport:
    """Conditions b2 b0 = a c D^2 and b2'/b2 + b1 = D'/D + b D for a
    function D and constants a, b, c; the curve is the diagonal
    rescaling by sqrt(a D / b2), the target D(t)(c + b y + a y^2).

    Discovery fixes the rescaling gauge |a| = 1, a c = sign(b0 b2),
    D = sign(b2) sqrt|b0 b2| and fits b; (a, c) -> (-a, -c) leaves the
    conditions invariant and is used to keep square roots real."""
    name = "Zh99Basic"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    db2 = differentiate(b2)
    if hint is not None:
        mode, violated = "verification", "hinted conditions violated"
        D, a, b, c = hint["D"], hint["a"], hint["b"], hint["c"]
        dD = differentiate(D)
        dev = max_pair_deviation(((b2 * b0, Const(a * c) * D ** 2),
                                  (db2 / b2 + b1, dD / D + Const(b) * D)), grid)
    else:
        mode, violated = "discovery", "b is not constant"
        c = _sign(evaluate_grid(b0 * b2, grid))
        if c is None:
            return _unsat(name, "b0*b2 changes sign or vanishes on the grid")
        s2 = 1.0 if evaluate_grid(b2, grid)[0] > 0.0 else -1.0
        a = 1.0
        D = Const(s2) * sqrt(Const(c) * (b0 * b2))
        dD = differentiate(D)
        b, dev = constancy_fit((db2 / b2 + b1 - dD / D) / D, grid)
    if dev > tol:
        return _unsat(name, f"{violated} (max_dev {dev:.3g})",
                      max_dev=dev, mode=mode)

    def build(s):
        return CurveSL2(sqrt(b2 / (Const(s * a) * D)), ZERO, ZERO,
                        sqrt(Const(s * a) * D / b2))

    return _sign_choice(name, eq, grid, build, (a, b, c), D, {"D": D},
                        {"grid_points": len(grid), "mode": mode, "max_dev": dev})


def _l_operator(eq: RiccatiEquation, E: Expr) -> Expr:
    """L[E] = -E' + b2 E^2 + b1 E + b0."""
    return -differentiate(E) + eq.b2 * E ** 2 + eq.b1 * E + eq.b0


def check_zh99_E(eq: RiccatiEquation, grid, hint: dict,
                 tol: float = DEFAULT_TOL) -> CriterionReport:
    """E-shifted conditions b2 L[E] = a c D^2 and
    b2'/b2 + b1 + 2 E b2 = D'/D + b D.  The hint must supply E, D and
    the constants; there is no canonical discovery for E.  The curve is
    the shear-by-E followed by the diagonal rescaling."""
    name = "Zh99E"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    E, D, a, b, c = (hint[k] for k in ("E", "D", "a", "b", "c"))
    L = _l_operator(eq, E)
    dD = differentiate(D)
    db2 = differentiate(b2)
    dev = max_pair_deviation(((b2 * L, Const(a * c) * D ** 2),
                              (db2 / b2 + b1 + 2.0 * E * b2,
                               dD / D + Const(b) * D)), grid)
    if dev > tol:
        return _unsat(name, f"conditions violated (max_dev {dev:.3g})",
                      max_dev=dev)

    def build(s):
        al = sqrt(b2 / (Const(s * a) * D))
        return CurveSL2(al, -(al * E), ZERO, sqrt(Const(s * a) * D / b2))

    return _sign_choice(name, eq, grid, build, (a, b, c), D,
                        {"E": E, "D": D, "L[E]": L},
                        {"max_dev": dev, "grid_points": len(grid)})


def check_zh99_table(eq: RiccatiEquation, grid, row: int, hint: dict,
                     tol: float = DEFAULT_TOL) -> CriterionReport:
    """One row of the table of shear/inversion-type conditions.

    The hint supplies the row's auxiliary functions (D; E for rows 2-6;
    A and B for rows 5-6) and the constants a, b, c.  The row's two
    conditions are verified, the printed curve is built (with the
    a -> -a, c -> -c symmetry applied when needed to keep square roots
    real), its determinant is asserted to be 1 on the grid, and the
    target D(t)(c + b y + a y^2) is emitted."""
    if row not in (1, 2, 3, 4, 5, 6):
        raise ValueError("row must be 1..6")
    name = f"Zh99Table{row}"
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    functions = {k: hint[k] for k in _table_keys(row)}
    D, E, Afun, Bfun = (functions.get(k) for k in ("D", "E", "A", "B"))
    a, b, c = hint["a"], hint["b"], hint["c"]
    dD = differentiate(D)
    uBA = Bfun / Afun if row >= 5 else None

    if row == 1:
        cond1 = (b2 * b0, Const(a * c) * D ** 2)
        cond2 = (differentiate(b0) / b0 - b1, dD / D - Const(b) * D)
    else:
        L = _l_operator(eq, E)
        functions["L[E]"] = L
        dL = differentiate(L)
        if row in (2, 4):
            cond1 = (b2 * L, Const(a * c) * D ** 2)
            rhs2 = dD / D + Const(b) * D if row == 2 else dD / D - Const(b) * D
            cond2 = (dL / L - b1 - 2.0 * E * b2, rhs2)
        elif row == 3:
            cond1 = (b2 * L, Const(a * c) * D ** 2)
            cond2 = (differentiate(b2) / b2 + b1 + 2.0 * E * b2,
                     dD / D - Const(b) * D)
        else:
            L2 = _l_operator(eq, Afun / Bfun + E)
            functions["L2[E]"] = L2
            dL2 = differentiate(L2)
            cond1 = (uBA ** 2 * (L * L2), Const(a * c) * D ** 2)
            if row == 5:
                cond2 = (dL / L - 2.0 * uBA * L - b1 - 2.0 * E * b2,
                         dD / D + Const(b) * D)
            else:
                uAB = Afun / Bfun
                cond2 = (dL2 / L2 - 2.0 * differentiate(uAB) / uAB
                         + 2.0 * uBA * L + b1 + 2.0 * E * b2,
                         dD / D - Const(b) * D)
    dev = max_pair_deviation((cond1, cond2), grid)
    if dev > tol:
        return _unsat(name, f"conditions violated (max_dev {dev:.3g})",
                      max_dev=dev)

    def build(s):
        aD = Const(s * a) * D
        cD = Const(s * c) * D
        if row == 1:
            return CurveSL2(sqrt(cD / b0), ZERO, ZERO, sqrt(b0 / cD))
        if row == 2:
            g = sqrt(aD / L)
            return CurveSL2(ZERO, sqrt(L / aD), -g, E * g)
        if row == 3:
            g = sqrt(b2 / cD)
            return CurveSL2(ZERO, sqrt(cD / b2), -g, E * g)
        if row == 4:
            al = sqrt(cD / L)
            return CurveSL2(al, -(E * al), ZERO, sqrt(L / cD))
        if row == 5:
            S = sqrt(L / aD)
            g = sqrt(aD / L)
            return CurveSL2(-(S * uBA), S * (1.0 + E * uBA), -g, g * E)
        R = sqrt(cD / L2)
        V = sqrt(L2 / cD)
        return CurveSL2(-R, R * ((1.0 + uBA * E) * (Afun / Bfun)),
                        -(uBA * V), uBA * E * V)

    return _sign_choice(name, eq, grid, build, (a, b, c), D, functions,
                        {"max_dev": dev, "grid_points": len(grid)},
                        check_det=True)


@dataclass(frozen=True)
class Detector:
    """One row of the detector table.  ``hint`` is "none", "optional" or
    "required"; a hint holds exactly the function keys (expressions) and
    the constant keys (numbers), as :func:`read_hints` checks.
    ``run(eq, grid, hint, tol)``."""

    name: str
    hint: str
    function_keys: tuple[str, ...]
    constant_keys: tuple[str, ...]
    run: Callable[..., CriterionReport]


def _table_keys(row: int) -> tuple[str, ...]:
    """The functions a table row's hint supplies."""
    return ("D",) if row == 1 else ("D", "E") if row <= 4 else ("D", "E", "A", "B")


def _table_row(row: int) -> Detector:
    return Detector(f"Zh99Table{row}", "required", _table_keys(row), ("a", "b", "c"),
                    lambda eq, g, h, tol: check_zh99_table(eq, g, row, h, tol))


# In classification order: cheapest and most general first (the
# constant-solution search subsumes several families).  Rows call the
# detectors by their module-level names, so a wrapper put there sees it.
DETECTORS = (
    Detector("RDM05", "none", (), (), lambda eq, g, h, tol: check_rdm05(eq, g, tol)),
    Detector("Ra61", "none", (), (), lambda eq, g, h, tol: check_ra61(eq, g, tol)),
    Detector("AllenStein", "none", (), (),
             lambda eq, g, h, tol: check_allen_stein(eq, g, tol)),
    Detector("RaoW0", "none", (), (), lambda eq, g, h, tol: check_rao_W0(eq, g, tol)),
    Detector("RaoK", "none", (), (), lambda eq, g, h, tol: check_rao_K(eq, g, tol)),
    Detector("Ko06", "none", (), (), lambda eq, g, h, tol: check_ko06(eq, g, tol)),
    Detector("Zh99Basic", "optional", ("D",), ("a", "b", "c"),
             lambda eq, g, h, tol: check_zh99_basic(eq, g, h, tol)),
    Detector("RU68", "optional", ("v",), ("c", "k"),
             lambda eq, g, h, tol: check_ru68(eq, g, h, tol)),
    Detector("Zh99E", "required", ("E", "D"), ("a", "b", "c"),
             lambda eq, g, h, tol: check_zh99_E(eq, g, h, tol)),
    *(_table_row(row) for row in range(1, 7)),
)
# The detectors that run on every equation.
DETECTOR_ORDER = tuple(d.name for d in DETECTORS if d.hint != "required")
_HINTED = {d.name: d for d in DETECTORS if d.hint != "none"}


def read_hints(hints) -> dict[str, dict]:
    """Check hint blocks against their rows of :data:`DETECTORS` and
    return them with expression text parsed and constants as floats.

    Each name must be a detector that takes a hint, and its block must
    hold exactly the row's keys: function keys an :class:`Expr` or
    expression text, constant keys a finite number (not a boolean).  Raises
    :class:`HintError` naming the offending block and what it expects."""
    if not isinstance(hints, dict):
        raise HintError("hints must be an object")
    checked = {}
    for name, block in hints.items():
        det = _HINTED.get(name)
        if det is None:
            raise HintError(f"hints.{name}: unknown detector "
                            f"(expected one of {sorted(_HINTED)})")
        if not isinstance(block, dict):
            raise HintError(f"hints.{name} must be an object")
        keys = det.function_keys + det.constant_keys
        if set(block) != set(keys):
            raise HintError(f"hints.{name} must have exactly the keys "
                            f"{list(keys)}, not {list(block)}")
        checked[name] = parsed = {}
        for key, value in block.items():
            where = f"hints.{name}.{key}"
            if key in det.constant_keys:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise HintError(f"{where} must be a number")
                if not -sys.float_info.max <= value <= sys.float_info.max:
                    raise HintError(f"{where} must be finite")
                value = float(value)
            elif isinstance(value, str):
                try:
                    value = parse(value)
                except ParseError as exc:
                    raise HintError(f"{where}: {exc}") from exc
            elif not isinstance(value, Expr):
                raise HintError(f"{where}: expected an expression string")
            parsed[key] = value
    return checked


def classify(eq: RiccatiEquation, grid, tol: float = DEFAULT_TOL,
             hints: dict | None = None) -> list[CriterionReport]:
    """Run the detectors of the table in order, skipping those that
    require a hint when none is supplied.  Returns all reports,
    satisfied or not; detection failures are reports, never exceptions.
    Hints are checked first by :func:`read_hints`, which raises
    :class:`HintError`."""
    hints = read_hints({} if hints is None else hints)
    reports = []
    for det in DETECTORS:
        if det.hint == "required" and det.name not in hints:
            continue
        try:
            reports.append(det.run(eq, grid, hints.get(det.name), tol))
        except (EvalDomainError, QuadratureError) as exc:
            reports.append(_unsat(det.name, f"evaluation failed: {exc}"))
    return reports


def solve_via_report(report: CriterionReport, x0s, t_span,
                     step: float = 1e-3) -> list[Trajectory]:
    """Solve the equation a satisfied report reduces, from each initial
    point of ``x0s``: map the point with the reducing curve, solve the
    solvable target, and pull the solution back through the inverse
    curve.  One trajectory per point.

    The points go through each step together, as arrays: the curve at
    t_a (read off the inverse curve, sampled first), the target's group
    solution or linear closed forms (sampled by :func:`sample_forms`),
    and the inverse curve.  If that fails, the points are solved one at
    a time, so the error is the first failing point's first."""
    if not report.satisfied or report.curve is None or report.target is None:
        raise ValueError("report is not a satisfied reduction")
    ts = time_grid(t_span, step)[0]
    if len(x0s) == 0:
        return []
    curve, target = report.curve, report.target
    try:
        back = evaluate_grid(inverse(curve).entries(), ts)
        de, mbe, mga, al = back[:, :1]  # (delta, -beta, -gamma, alpha) at t_a
        y0s = mobius_apply_array(al, -mbe, -mga, de, [float(ext(x0)) for x0 in x0s])
        if isinstance(target, OneDimensionalTarget):
            group = solve_one_dimensional_target(target, t_span, step).values
            ys = mobius_apply_array(*group[:, None, :], y0s[:, None])
        else:
            forms = [solve_linear(target, y0, ts) for y0 in y0s]
            ys = np.array(list(sample_forms(forms, ts)))
        xs = mobius_apply_array(*back[:, None, :], ys)
    except (ValueError, ArithmeticError):
        if len(x0s) < 2:
            raise
        return [solve_via_report(report, [x0], t_span, step)[0] for x0 in x0s]
    return [Trajectory(list(ts), x) for x in xs]
