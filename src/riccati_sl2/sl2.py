"""Lie-algebra/Lie-group layer for Riccati equations.

A :class:`RiccatiEquation` is its own algebra curve, the traceless-matrix curve

    a(t) = b0(t)*M0 + b1(t)*M1 + b2(t)*M2 = [[b1/2, b0], [-b2, -b1/2]],

and the matrix initial-value problem dA/dt = a(t) A, A(t_a) = I is
integrated on SL(2,R).  Applying the homography of A(t) to the initial
point then reproduces the Riccati solution, which is the basis of every
reduction in this package.  An affine (linear) target is a Riccati
equation too; a one-dimensional one, :class:`OneDimensionalTarget`.

Sign convention: the curve enters with a plus sign, a(t) = +sum of
b_alpha*M_alpha.  With the basis above and the Möbius action used here,
this is the choice under which the reconstruction solves the original
equation (b = (1,0,0) gives A = [[1,t],[0,1]] and x(t) = x0 + t, which
solves dx/dt = 1), and it makes the gauge law on algebra curves exactly
consistent with the coefficient transformation law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import _SESSION, Expr, Integral, as_expr, evaluate_grid
from .projline import Mat2, ext, mobius_apply_array
from .riccati import RiccatiEquation, Trajectory, _stage_samples, time_grid

__all__ = [
    "GroupTrajectory", "OneDimensionalTarget", "integrate_group_equation",
    "reconstruct_solution", "solve_one_dimensional_target",
    "expm_traceless", "algebra_matrix",
]


def algebra_matrix(b0, b1, b2) -> Mat2:
    """The traceless matrix b0*M0 + b1*M1 + b2*M2 = [[b1/2, b0], [-b2, -b1/2]],
    of numbers or of expressions."""
    return Mat2(0.5 * b1, b0, -b2, -0.5 * b1)


@dataclass(eq=False, frozen=True)
class GroupTrajectory:
    """Sampled curve in SL(2,R) starting at the identity, compared by
    identity.  ``values`` holds the rows a11, a12, a21, a22 over the
    samples; ``mats`` reads them as matrices on first use."""

    ts: list[float]
    values: np.ndarray

    @cached_property
    def mats(self) -> list[Mat2]:
        return [Mat2(*A) for A in self.values.T.tolist()]

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class OneDimensionalTarget:
    """One-dimensional solvable target: the span of
    c0*M0 + c1*M1 + c2*M2, traversed at rate phi(t)."""

    c0: float
    c1: float
    c2: float
    rate: Expr

    def __post_init__(self):
        if self.c0 == 0.0 and self.c1 == 0.0 and self.c2 == 0.0:
            raise ValueError("direction vector must be nonzero")
        object.__setattr__(self, "rate", as_expr(self.rate))

    def direction(self) -> Mat2:
        return algebra_matrix(self.c0, self.c1, self.c2)

    def equation(self) -> RiccatiEquation:
        """The target written back as a Riccati equation
        dy/dt = phi(t)*(c0 + c1*y + c2*y^2)."""
        r = self.rate
        return RiccatiEquation(r * self.c0, r * self.c1, r * self.c2)


def integrate_group_equation(eq: RiccatiEquation, t_span, step: float = 1e-3) -> GroupTrajectory:
    """Solve dA/dt = a(t) A, A(t_a) = I, for the equation's algebra curve
    a(t) by RK4 on the four entries.

    After each step A is rescaled by 1/sqrt(det A); the RK4 update
    drifts from unit determinant only at truncation order, so the square
    root stays positive and the projection keeps |det A - 1| at roundoff.
    A coefficient that fails to evaluate at a stage time raises its error.
    """
    grid, h, blocks = _stage_samples((eq.b0, eq.b1, eq.b2), t_span, step)
    h2, h6 = 0.5 * h, h / 6.0
    a0, a1, a2, a3 = 1.0, 0.0, 0.0, 1.0  # A, row-major
    rows = [(a0, a1, a2, a3)]
    for b0, b1, b2, steps, failure in blocks:
        # Stages k1..k4 (p, q, r, s) of a(t) X, a = [[m, b0], [n, -m]] with
        # m = b1/2 and n = -b2, one column of X, (x0, x2) or (x1, x3), a line.
        # Step j reads the samples 2j, 2j + 1 and 2j + 2 (suffixes 0, 1, 2).
        end, m, n = 2 * steps, [0.5 * v for v in b1], [-v for v in b2]
        for m0, m1, m2, c0, c1, c2, n0, n1, n2 in zip(
                m[0:end:2], m[1:end:2], m[2:end + 1:2],
                b0[0:end:2], b0[1:end:2], b0[2:end + 1:2],
                n[0:end:2], n[1:end:2], n[2:end + 1:2]):
            p0, p2 = m0 * a0 + c0 * a2, n0 * a0 - m0 * a2
            p1, p3 = m0 * a1 + c0 * a3, n0 * a1 - m0 * a3
            x0, x2 = a0 + h2 * p0, a2 + h2 * p2
            x1, x3 = a1 + h2 * p1, a3 + h2 * p3
            q0, q2 = m1 * x0 + c1 * x2, n1 * x0 - m1 * x2
            q1, q3 = m1 * x1 + c1 * x3, n1 * x1 - m1 * x3
            x0, x2 = a0 + h2 * q0, a2 + h2 * q2
            x1, x3 = a1 + h2 * q1, a3 + h2 * q3
            r0, r2 = m1 * x0 + c1 * x2, n1 * x0 - m1 * x2
            r1, r3 = m1 * x1 + c1 * x3, n1 * x1 - m1 * x3
            x0, x2 = a0 + h * r0, a2 + h * r2
            x1, x3 = a1 + h * r1, a3 + h * r3
            s0, s2 = m2 * x0 + c2 * x2, n2 * x0 - m2 * x2
            s1, s3 = m2 * x1 + c2 * x3, n2 * x1 - m2 * x3
            a0 += h6 * (p0 + 2.0 * (q0 + r0) + s0)
            a1 += h6 * (p1 + 2.0 * (q1 + r1) + s1)
            a2 += h6 * (p2 + 2.0 * (q2 + r2) + s2)
            a3 += h6 * (p3 + 2.0 * (q3 + r3) + s3)
            d = a0 * a3 - a1 * a2
            if not 0.0 < d < math.inf:
                raise ArithmeticError(
                    f"determinant collapsed to {d:.3g} at t={grid[len(rows)]:.6g}; "
                    "reduce the step")
            root = math.sqrt(d)
            a0, a2 = a0 / root, a2 / root
            a1, a3 = a1 / root, a3 / root
            rows.append((a0, a1, a2, a3))
        if failure is not None:
            raise failure
    s = _SESSION.get()
    if s is not None:
        s.group_steps += len(rows) - 1
    return GroupTrajectory(grid, np.array(rows).T)


def reconstruct_solution(G: GroupTrajectory, x0) -> Trajectory:
    """Pointwise Möbius application of the group trajectory to x0."""
    if len(G) == 0:
        raise ValueError("empty group trajectory")
    return Trajectory(list(G.ts), mobius_apply_array(*G.values, ext(x0)))


def expm_traceless(N: Mat2, tau: float = 1.0) -> Mat2:
    """Closed-form exponential of tau*N for traceless N.

    By Cayley-Hamilton N^2 = -det(N)*I, so with u = -det(N)*tau^2 the
    exponential is f(u)*I + g(u)*tau*N where f, g are the even/odd series
    (cosh/cos and sinh/sin branches depending on the sign of u).
    """
    return Mat2(*_expm_entries(N.det(), N.a11, N.a12, N.a21, N.a22, tau))


def _expm_entries(d, n11, n12, n21, n22, tau):
    """The four entries of :func:`expm_traceless` for N of determinant d."""
    u = -d * tau * tau
    if abs(u) < 1e-8:
        # Series keeps full accuracy through the branch point u = 0.
        f = 1.0 + u / 2.0 + u * u / 24.0
        g = 1.0 + u / 6.0 + u * u / 120.0
    elif u > 0.0:
        mu = math.sqrt(u)
        f = math.cosh(mu)
        g = math.sinh(mu) / mu
    else:
        om = math.sqrt(-u)
        f = math.cos(om)
        g = math.sin(om) / om
    gt = g * tau
    return f + gt * n11, gt * n12, gt * n21, f + gt * n22


def solve_one_dimensional_target(target: OneDimensionalTarget, t_span,
                                 step: float = 1e-3) -> GroupTrajectory:
    """Closed-form group solution A(t) = exp(tau(t) * N) for a
    one-dimensional target, N the direction matrix and tau the running
    integral of the rate (numeric quadrature, anchored at t_a)."""
    if not isinstance(target, OneDimensionalTarget):
        raise TypeError("expected a one-dimensional target")
    ts = time_grid(t_span, step)[0]
    N = target.direction()
    d = N.det()
    tau = evaluate_grid(Integral(target.rate), ts)
    return GroupTrajectory(ts, np.array(
        [_expm_entries(d, N.a11, N.a12, N.a21, N.a22, v)
         for v in (tau - tau[0]).tolist()]).T)
