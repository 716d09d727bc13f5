"""Classical quadrature solvers for Riccati equations.

Everything here produces closed forms built over the expression grammar
(with deferred integrals where a quadrature is called for), so results
can be evaluated anywhere on the problem interval and differentiated
exactly.  Poles of a closed form are reported as the point at infinity,
matching the compactified-line semantics of the direct integrator.

Solvers that require a particular solution verify it numerically before
using it (residual within 1e-8 relative on the supplied grid) instead of
trusting the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (Expr, T, ZERO, Const, EvalDomainError, Integral,
                   QuadratureError, as_expr, cos, differentiate, evaluate,
                   evaluate_grid, exp, integral_from, sin, substitute)
from .projline import ExtReal, ext, points
from .riccati import RiccatiEquation

__all__ = [
    "SolutionForm", "sample_forms", "ResidualError", "PreconditionError",
    "verify_particular_solution",
    "solve_linear", "solve_bernoulli", "reduce_with_known_solution",
    "solve_with_two_solutions", "superpose_three", "solve_autonomous",
    "solve_separable",
]

_RESIDUAL_TOL = 1e-8


class PreconditionError(ValueError):
    pass


class ResidualError(ValueError):
    """A claimed particular solution fails the equation."""

    def __init__(self, max_residual: float, at_t: float):
        super().__init__(
            f"claimed solution has residual {max_residual:.3g} at t={at_t:.6g}")
        self.max_residual = max_residual
        self.at_t = at_t


@dataclass
class SolutionForm:
    """A solved Riccati initial-value problem: a closed-form expression
    in t (possibly containing deferred integrals), or None for the
    constant solution at infinity, which has no finite formula.
    """

    expression: Expr | None

    def at(self, t: float) -> ExtReal:
        """The solution at t, as a one-point :meth:`sample`."""
        return self.sample([t])[0]

    def sample(self, ts) -> list[ExtReal]:
        """The solution on the compactified line at every time of the
        non-decreasing ``ts``, in one grid evaluation; division poles map
        to infinity."""
        return points(next(sample_forms([self], ts)))


def sample_forms(forms, ts):
    """Yield, form by form, the values of each solution form at every
    time of the non-decreasing ``ts``, as floats with inf for the point
    at infinity (a division pole, or a form with no formula).

    Several forms are evaluated together in one grid run, so the
    subtrees they share, such as equal deferred integrals, are computed
    once.  If that run fails at any time, each form is evaluated alone
    instead, so a failure in one form never reaches another; a form that
    fails raises its first error when its turn comes."""
    exprs = [f.expression for f in forms if f.expression is not None]
    rows = None
    if len(exprs) > 1:
        try:
            rows = iter(evaluate_grid(exprs, ts))
        except (EvalDomainError, QuadratureError):
            pass
    for f in forms:
        if f.expression is None:
            yield np.full(len(ts), math.inf)
        elif rows is not None:
            yield next(rows)
        else:
            yield evaluate_grid(f.expression, ts, poles=True)


def verify_particular_solution(eq: RiccatiEquation, x1: Expr, grid) -> None:
    """Raise ResidualError unless x1' = b0 + b1 x1 + b2 x1^2 holds within
    1e-8 relative at every grid time but the poles, where x1 is infinite;
    the error names the first worst time.  A formula with a pole at every
    grid time raises its evaluation error."""
    roots = (x1, eq.b0, eq.b1, eq.b2, differentiate(x1))
    values = evaluate_grid(roots, grid, poles=True)
    finite = np.isfinite(values[0])
    if not finite.any():
        evaluate_grid(roots, grid)  # raises the error at the first pole
    x, b0, b1, b2, dx = values[:, finite]
    r = b0 + x * (b1 + x * b2)
    res = abs(dx - r) / (1.0 + abs(r))
    i = int(res.argmax())
    if res[i] > _RESIDUAL_TOL:
        raise ResidualError(float(res[i]), float(np.asarray(grid)[finite][i]))


def solve_linear(eq: RiccatiEquation, x0, grid) -> SolutionForm:
    """Two-quadrature closed form for b2 identically zero:
    x(t) = e^{I1(t)} (x0 + int b0 e^{-I1}), I1 the running integral of b1,
    both anchored at the first grid point."""
    if abs(evaluate_grid(eq.b2, grid)).max() > 1e-12:
        raise PreconditionError("b2 is not identically zero on the grid")
    x0 = ext(x0)
    if x0.is_inf:
        return SolutionForm(None)
    t0 = grid[0]
    i1 = integral_from(eq.b1, t0)
    inner = eq.b0 * exp(-i1)
    x = exp(i1) * (Const(x0.value) + integral_from(inner, t0))
    return SolutionForm(x)


def solve_bernoulli(eq: RiccatiEquation, x0, grid) -> SolutionForm:
    """b0 identically zero: w = -1/x satisfies the linear equation
    dw/dt = -b1 w + b2; poles of x = -1/w are reported as infinity."""
    if abs(evaluate_grid(eq.b0, grid)).max() > 1e-12:
        raise PreconditionError("b0 is not identically zero on the grid")
    x0 = ext(x0)
    if not x0.is_inf and x0.value == 0.0:
        return SolutionForm(ZERO)
    w0 = 0.0 if x0.is_inf else -1.0 / x0.value
    linear = RiccatiEquation(eq.b2, -eq.b1, ZERO)
    w = solve_linear(linear, w0, grid)
    return SolutionForm(Const(-1.0) / w.expression)


def reduce_with_known_solution(eq: RiccatiEquation, x1: Expr, x0, grid) -> SolutionForm:
    """One known solution: x = x1 - 1/u, with u given by two quadratures
    over the coefficient b1 + 2*b2*x1."""
    x1 = as_expr(x1)
    verify_particular_solution(eq, x1, grid)
    t0 = grid[0]
    x1_0 = evaluate(x1, t0)
    x0 = ext(x0)
    if not x0.is_inf and x0.value == x1_0:
        return SolutionForm(x1)
    u0 = 0.0 if x0.is_inf else 1.0 / (x1_0 - x0.value)
    g = eq.b1 + 2.0 * eq.b2 * x1
    ig = integral_from(g, t0)
    u = exp(-ig) * (Const(u0) + integral_from(eq.b2 * exp(ig), t0))
    return SolutionForm(x1 - Const(1.0) / u)


def solve_with_two_solutions(eq: RiccatiEquation, x1: Expr, x2: Expr,
                             x0, grid) -> SolutionForm:
    """Two known solutions: single quadrature through
    z(t) = z0 exp(int b2 (x1 - x2)), x = (x1 - z*x2)/(1 - z)."""
    x1 = as_expr(x1)
    x2 = as_expr(x2)
    verify_particular_solution(eq, x1, grid)
    verify_particular_solution(eq, x2, grid)
    if abs(evaluate_grid(x1 - x2, grid)).max() <= 1e-9:
        raise PreconditionError("the two known solutions coincide on the grid")
    t0 = grid[0]
    x1_0, x2_0 = evaluate_grid((x1, x2), [t0])[:, 0].tolist()
    x0 = ext(x0)
    if x0.is_inf:
        z0 = 1.0
    elif x0.value == x2_0:
        return SolutionForm(x2)
    else:
        z0 = (x0.value - x1_0) / (x0.value - x2_0)
    z = Const(z0) * exp(integral_from(eq.b2 * (x1 - x2), t0))
    x = (x1 - z * x2) / (Const(1.0) - z)
    return SolutionForm(x)


def superpose_three(x1: Expr, x2: Expr, x3: Expr, k: float, grid) -> Expr:
    """General solution from three particular solutions and a constant:
    the x with cross ratio (x, x1; x2, x3) equal to k.  k = 0 gives x1,
    k = 1 gives x3, k = infinity gives x2.  No quadrature involved."""
    x1, x2, x3 = as_expr(x1), as_expr(x2), as_expr(x3)
    for aa, bb, names in ((x1, x2, "x1, x2"), (x1, x3, "x1, x3"), (x2, x3, "x2, x3")):
        if abs(evaluate_grid(aa - bb, grid)).max() <= 1e-9:
            raise PreconditionError(f"solutions {names} coincide on the grid")
    if math.isinf(k):
        return x2
    m = Const(float(k)) * (x3 - x1) / (x3 - x2)
    return (x1 - m * x2) / (Const(1.0) - m)


def solve_autonomous(c0: float, c1: float, c2: float, x0) -> SolutionForm:
    """Constant coefficients, closed form by the discriminant
    c1^2 - 4*c0*c2: two real roots give an exponential cross-ratio form,
    a double root the rational form, a negative discriminant the
    tangent form with periodic crossings through infinity."""
    c0, c1, c2 = float(c0), float(c1), float(c2)
    x0 = ext(x0)
    if c2 == 0.0:
        # Affine flow; infinity is a fixed point.
        if x0.is_inf:
            return SolutionForm(None)
        if c1 == 0.0:
            return SolutionForm(Const(x0.value) + Const(c0) * T)
        xeq = -c0 / c1
        x = Const(xeq) + Const(x0.value - xeq) * exp(Const(c1) * T)
        return SolutionForm(x)
    disc = c1 * c1 - 4.0 * c0 * c2
    scale = c1 * c1 + abs(4.0 * c0 * c2)
    if abs(disc) <= 1e-14 * scale or disc == 0.0:
        r = -c1 / (2.0 * c2)
        if x0.is_inf:
            x = Const(r) + Const(-1.0) / (Const(c2) * T)
            return SolutionForm(x)
        x = Const(r) + Const(x0.value - r) / (
            Const(1.0) - Const(c2 * (x0.value - r)) * T)
        return SolutionForm(x)
    if disc > 0.0:
        rt = math.sqrt(disc)
        r1 = (-c1 + rt) / (2.0 * c2)
        r2 = (-c1 - rt) / (2.0 * c2)
        if x0.is_inf:
            z0 = 1.0
        elif x0.value == r2:
            return SolutionForm(Const(r2))
        else:
            z0 = (x0.value - r1) / (x0.value - r2)
        z = Const(z0) * exp(Const(rt) * T)
        x = (Const(r1) - z * Const(r2)) / (Const(1.0) - z)
        return SolutionForm(x)
    # disc < 0: no real equilibria; solution sweeps the whole
    # compactified line with period pi/k.
    p = -c1 / (2.0 * c2)
    k = math.sqrt(-disc) / 2.0
    sigma = k / c2
    phi0 = math.pi / 2.0 if x0.is_inf else math.atan((x0.value - p) / sigma)
    arg = Const(k) * T + Const(phi0)
    x = Const(p) + Const(sigma) * sin(arg) / cos(arg)
    return SolutionForm(x)


def solve_separable(phi: Expr, c0: float, c1: float, c2: float, x0) -> SolutionForm:
    """dx/dt = phi(t)*(c0 + c1 x + c2 x^2): the autonomous closed form
    composed with the new time tau(t) = integral of phi from 0 to t.
    Valid for either sign of phi; tau need not be monotone."""
    phi = as_expr(phi)
    base = solve_autonomous(c0, c1, c2, x0)
    if base.expression is None:
        return SolutionForm(None)
    tau = Integral(phi)
    return SolutionForm(substitute(base.expression, tau))
