"""Riccati equations as data, and a chart-switching fixed-step RK4
integrator on the compactified line.

The integrator is the ground-truth oracle for everything else in the
package: fixed step, deterministic, and complete through blow-up.  When
|x| grows past 1 it switches to the chart w = -1/x, in which the
equation is again a Riccati equation (coefficients (b2, -b1, b0) read as
dw/dt = b0*w^2 - b1*w + b2), and switches back when |w| > 1.  A sample
with |w| <= 1e-12 is recorded as the point at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import _SESSION, Expr, _sample, as_expr, evaluate_grid
from .projline import ExtReal, ext, points

__all__ = ["RiccatiEquation", "Trajectory", "rhs", "time_grid",
           "integrate_direct", "csv_texts"]

# |w| at or below this in the inverse chart is recorded as infinity.
_BLOWUP_TOL = 1e-12


@dataclass(frozen=True)
class RiccatiEquation:
    """Coefficient triple of dx/dt = b0(t) + b1(t)*x + b2(t)*x^2."""

    b0: Expr
    b1: Expr
    b2: Expr

    @classmethod
    def of(cls, b0, b1, b2) -> "RiccatiEquation":
        """Build from expressions or plain numbers."""
        return cls(as_expr(b0), as_expr(b1), as_expr(b2))

    def coefficients_at(self, t: float) -> tuple[float, float, float]:
        return tuple(evaluate_grid((self.b0, self.b1, self.b2), [t])[:, 0].tolist())


def rhs(eq: RiccatiEquation, t: float, x: float) -> float:
    """Right-hand side b0(t) + b1(t)*x + b2(t)*x^2 at a finite point."""
    b0, b1, b2 = eq.coefficients_at(t)
    return b0 + x * (b1 + x * b2)


@dataclass(eq=False, frozen=True)
class Trajectory:
    """Sampled solution curve on the compactified line, compared by
    identity.  ``ts`` is strictly increasing; ``values`` is a 1-D float
    array, one sample per time, inf for the point at infinity (never NaN
    or -inf), and ``xs`` reads it as points on first use.
    ``chart_switches`` records (t, from_chart, to_chart) events and
    ``error`` is set when integration was truncated by a coefficient
    domain error."""

    ts: list[float]
    values: np.ndarray
    chart_switches: list[tuple[float, str, str]] = field(default_factory=list)
    error: str | None = None

    @cached_property
    def xs(self) -> list[ExtReal]:
        return points(self.values)

    def __len__(self) -> int:
        return len(self.ts)


def csv_texts(trajs: list[Trajectory]) -> list[str]:
    """The CSV text ``t,x`` of each trajectory, printed with 17 digits.
    Each row's time is formatted once, into a template for one ``%``
    format of its values, shared by all the trajectories whose times
    begin those of the longest, as the trajectories of one solve do (a
    truncated one runs on a prefix)."""
    longest = max(trajs, key=len).ts if trajs else []
    shared = [f"{t:.17g},%.17g\n" for t in longest]
    texts = []
    for traj in trajs:
        rows = (shared[:len(traj)] if traj.ts == longest[:len(traj)]
                else [f"{t:.17g},%.17g\n" for t in traj.ts])
        texts.append("t,x\n" + "".join(rows) % tuple(traj.values.tolist()))
    return texts


def _emit(chart: str, u: float) -> float:
    if chart == "x":
        return u
    if abs(u) <= _BLOWUP_TOL:
        return math.inf
    return -1.0 / u


def time_grid(t_span, step: float) -> tuple[list[float], float]:
    """The fixed-step grid over t_span = (t_a, t_b): the times
    t_a + i*h for i = 0..n and the step h = (t_b - t_a)/n, with n the
    nearest whole number of steps of the requested size (at least 1)."""
    ta, tb = float(t_span[0]), float(t_span[1])
    if step <= 0.0:
        raise ValueError("step must be positive")
    if tb <= ta:
        raise ValueError("t_span must be increasing")
    n = max(1, round((tb - ta) / step))
    h = (tb - ta) / n
    return [ta + i * h for i in range(n + 1)], h


# RK4 steps per block of sampled stage times, so that memory does not
# grow with the length of the interval.
_BLOCK_STEPS = 512


def _stage_samples(coeffs, t_span, step: float):
    """The time grid and step h of :func:`time_grid`, and for each block
    of m steps from grid[k], a tuple of: one list per coefficient of its
    values at grid[k], grid[k] + h/2, grid[k+1], ..., grid[k+m]; the
    number of steps whose stages all evaluate; and the error that stops
    the next step, or None."""
    grid, h = time_grid(t_span, step)

    def times():
        for k in range(0, len(grid) - 1, _BLOCK_STEPS):
            t = np.array(grid[k:k + _BLOCK_STEPS + 1])
            out = np.empty(2 * len(t) - 1)
            out[0::2], out[1::2] = t, t[:-1] + 0.5 * h
            yield out

    def blocks():
        for vals, failures in _sample(coeffs, times()):
            # Step j reads samples 2j, 2j + 1 and 2j + 2.
            first = min(failures, default=vals.shape[1] + 1)
            yield (*vals.tolist(), max(0, (first - 1) // 2), failures.get(first))

    return grid, h, blocks()


def integrate_direct(eq: RiccatiEquation, x0, t_span, step: float = 1e-3) -> Trajectory:
    """Integrate the equation from x(t_a) = x0 over t_span = (t_a, t_b)
    with classical fixed-step RK4, continuing through blow-up via the
    w = -1/x chart.  A coefficient that fails to evaluate at a stage
    time truncates the trajectory before that step."""
    grid, h, blocks = _stage_samples((eq.b0, eq.b1, eq.b2), t_span, step)

    x0 = ext(x0)
    if x0.is_inf:
        chart, u = "w", 0.0
    elif abs(x0.value) > 1.0:
        chart, u = "w", -1.0 / x0.value
    else:
        chart, u = "x", x0.value

    xs = [_emit(chart, u)]
    switches: list[tuple[float, str, str]] = []
    error = None
    h2, h6 = 0.5 * h, h / 6.0
    for b0, b1, b2, steps, failure in blocks:
        first, end, minus_b1 = len(xs), 2 * steps, None
        # Each pass runs the block's steps in one chart, up to a step
        # that leaves |u| <= 1 (beyond 1, NaN or inf).
        while (i := 2 * (len(xs) - first)) < end:
            in_x = chart == "x"
            if not in_x and minus_b1 is None:
                minus_b1 = [-v for v in b1]
            # The w chart's equation has coefficients (b2, -b1, b0).
            p, q, r = (b0, b1, b2) if in_x else (b2, minus_b1, b0)
            for p0, p1, p2, q0, q1, q2, r0, r1, r2 in zip(
                    p[i:end:2], p[i + 1:end:2], p[i + 2:end + 1:2],
                    q[i:end:2], q[i + 1:end:2], q[i + 2:end + 1:2],
                    r[i:end:2], r[i + 1:end:2], r[i + 2:end + 1:2]):
                k1 = p0 + u * (q0 + u * r0)
                v = u + h2 * k1
                k2 = p1 + v * (q1 + v * r1)
                v = u + h2 * k2
                k3 = p1 + v * (q1 + v * r1)
                v = u + h * k3
                k4 = p2 + v * (q2 + v * r2)
                u = u + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                if not abs(u) <= 1.0:
                    break
                xs.append(u if in_x else -1.0 / u if abs(u) > _BLOWUP_TOL else math.inf)
            else:
                break
            t_next = grid[len(xs)]
            if not math.isfinite(u):
                error = f"state became non-finite at t={t_next:.6g}"
                break
            new_chart = "w" if in_x else "x"
            switches.append((t_next, chart, new_chart))
            chart, u = new_chart, -1.0 / u
            xs.append(_emit(chart, u))
        if error is not None or failure is not None:
            error = error or str(failure)
            break
    s = _SESSION.get()
    if s is not None:
        s.rk4_steps += len(xs) - 1
        s.chart_switches += len(switches)
    return Trajectory(grid[:len(xs)], np.array(xs), chart_switches=switches, error=error)
