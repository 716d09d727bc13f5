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

from .expr import Expr, _sample, as_expr, evaluate_grid
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
    step: float
    chart_switches: list[tuple[float, str, str]] = field(default_factory=list)
    error: str | None = None

    @cached_property
    def xs(self) -> list[ExtReal]:
        return points(self.values)

    def __len__(self) -> int:
        return len(self.ts)

    def to_csv_text(self) -> str:
        return csv_texts([self])[0]


def csv_texts(trajs: list[Trajectory]) -> list[str]:
    """The CSV text ``t,x`` of each trajectory, printed with 17 digits.
    The times are formatted once for all the trajectories whose times
    begin those of the longest, as the trajectories of one solve do (a
    truncated one runs on a prefix)."""
    longest = max(trajs, key=len).ts if trajs else []
    shared = [format(t, ".17g") for t in longest]
    texts = []
    for traj in trajs:
        times = (shared if traj.ts == longest[:len(traj)]
                 else [format(t, ".17g") for t in traj.ts])
        lines = ["t,x"]
        for t, x in zip(times, traj.values.tolist()):
            lines.append(f"{t},{x:.17g}")
        texts.append("\n".join(lines) + "\n")
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


def _stage_samples(coeffs, grid: list[float], h: float):
    """Yields, for each block of m steps from grid[k], one list per
    coefficient of its values at grid[k], grid[k] + h/2, grid[k+1], ...,
    grid[k+m]; the number of steps whose stages all evaluate; and the
    error that stops the next step, or None."""
    blocks = (np.array(grid[k:k + _BLOCK_STEPS + 1])
              for k in range(0, len(grid) - 1, _BLOCK_STEPS))
    times = (np.insert(t, np.arange(1, len(t)), t[:-1] + 0.5 * h) for t in blocks)
    for vals, failures in _sample(coeffs, times):
        # Step j reads samples 2j, 2j + 1 and 2j + 2.
        first = min(failures, default=vals.shape[1] + 1)
        yield (*vals.tolist(), max(0, (first - 1) // 2), failures.get(first))


def integrate_direct(eq: RiccatiEquation, x0, t_span, step: float = 1e-3) -> Trajectory:
    """Integrate the equation from x(t_a) = x0 over t_span = (t_a, t_b)
    with classical fixed-step RK4, continuing through blow-up via the
    w = -1/x chart.  A coefficient that fails to evaluate at a stage
    time truncates the trajectory before that step."""
    grid, h = time_grid(t_span, step)

    x0 = ext(x0)
    if x0.is_inf:
        chart, u = "w", 0.0
    elif abs(x0.value) > 1.0:
        chart, u = "w", -1.0 / x0.value
    else:
        chart, u = "x", x0.value

    ts = [grid[0]]
    xs = [_emit(chart, u)]
    switches: list[tuple[float, str, str]] = []
    error = None
    for b0, b1, b2, steps, failure in _stage_samples((eq.b0, eq.b1, eq.b2), grid, h):
        # The w chart's equation has coefficients (b2, -b1, b0).
        charts = {"x": (b0, b1, b2), "w": (b2, [-v for v in b1], b0)}
        p, q, r = charts[chart]
        for i in range(0, 2 * steps, 2):
            k1 = p[i] + u * (q[i] + u * r[i])
            v = u + 0.5 * h * k1
            k2 = p[i + 1] + v * (q[i + 1] + v * r[i + 1])
            v = u + 0.5 * h * k2
            k3 = p[i + 1] + v * (q[i + 1] + v * r[i + 1])
            v = u + h * k3
            k4 = p[i + 2] + v * (q[i + 2] + v * r[i + 2])
            u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t_next = grid[len(ts)]
            if not math.isfinite(u):
                error = f"state became non-finite at t={t_next:.6g}"
                break
            if abs(u) > 1.0:
                new_chart = "w" if chart == "x" else "x"
                switches.append((t_next, chart, new_chart))
                u = -1.0 / u
                chart, (p, q, r) = new_chart, charts[new_chart]
            ts.append(t_next)
            xs.append(_emit(chart, u))
        if error is not None or failure is not None:
            error = error or str(failure)
            break
    return Trajectory(ts, np.array(xs), step=h, chart_switches=switches, error=error)
