"""Lie-algebra/Lie-group layer for Riccati equations.

A :class:`RiccatiEquation` is its own algebra curve, the traceless-matrix curve

    a(t) = b0(t)*M0 + b1(t)*M1 + b2(t)*M2 = [[b1/2, b0], [-b2, -b1/2]],

and the matrix initial-value problem dA/dt = a(t) A, A(t_a) = I is
integrated on SL(2,R).  Applying the homography of A(t) to the initial
point then reproduces the Riccati solution, which is the basis of every
reduction in this package.  An affine (linear or Bernoulli) target is
a Riccati equation too; a one-dimensional one, :class:`OneDimensionalTarget`.

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

from .expr import Expr, Integral, as_expr, evaluate_grid
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


def _amul(b0: float, b1: float, b2: float, A: tuple) -> tuple:
    """a A for a = [[b1/2, b0], [-b2, -b1/2]] and A a row-major 4-tuple."""
    m = 0.5 * b1
    return (m * A[0] + b0 * A[2], m * A[1] + b0 * A[3],
            -b2 * A[0] - m * A[2], -b2 * A[1] - m * A[3])


def _axpy(A: tuple, s: float, K: tuple) -> tuple:
    return (A[0] + s * K[0], A[1] + s * K[1], A[2] + s * K[2], A[3] + s * K[3])


def integrate_group_equation(eq: RiccatiEquation, t_span, step: float = 1e-3) -> GroupTrajectory:
    """Solve dA/dt = a(t) A, A(t_a) = I, for the equation's algebra curve
    a(t) by RK4 on the four entries.

    After each step A is rescaled by 1/sqrt(det A); the RK4 update
    drifts from unit determinant only at truncation order, so the square
    root stays positive and the projection keeps |det A - 1| at roundoff.
    A coefficient that fails to evaluate at a stage time raises its error.
    """
    grid, h = time_grid(t_span, step)
    A = (1.0, 0.0, 0.0, 1.0)
    rows = [A]
    for b0, b1, b2, steps, failure in _stage_samples((eq.b0, eq.b1, eq.b2), grid, h):
        for i in range(0, 2 * steps, 2):
            k1 = _amul(b0[i], b1[i], b2[i], A)
            k2 = _amul(b0[i + 1], b1[i + 1], b2[i + 1], _axpy(A, 0.5 * h, k1))
            k3 = _amul(b0[i + 1], b1[i + 1], b2[i + 1], _axpy(A, 0.5 * h, k2))
            k4 = _amul(b0[i + 2], b1[i + 2], b2[i + 2], _axpy(A, h, k3))
            A = tuple(x + (h / 6.0) * (p + 2.0 * (q + r) + s)
                      for x, p, q, r, s in zip(A, k1, k2, k3, k4))
            d = A[0] * A[3] - A[1] * A[2]
            if not math.isfinite(d) or d <= 0.0:
                raise ArithmeticError(
                    f"determinant collapsed to {d:.3g} at t={grid[len(rows)]:.6g}; "
                    "reduce the step")
            root = math.sqrt(d)
            A = tuple(x / root for x in A)
            rows.append(A)
        if failure is not None:
            raise failure
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
    d = N.det()
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
    return Mat2(f + gt * N.a11, gt * N.a12, gt * N.a21, f + gt * N.a22)


def solve_one_dimensional_target(target: OneDimensionalTarget, t_span,
                                 step: float = 1e-3) -> GroupTrajectory:
    """Closed-form group solution A(t) = exp(tau(t) * N) for a
    one-dimensional target, N the direction matrix and tau the running
    integral of the rate (numeric quadrature, anchored at t_a)."""
    if not isinstance(target, OneDimensionalTarget):
        raise TypeError("expected a one-dimensional target")
    ts = time_grid(t_span, step)[0]
    N = target.direction()
    tau = evaluate_grid(Integral(target.rate), ts)
    mats = (expm_traceless(N, v) for v in (tau - tau[0]).tolist())
    return GroupTrajectory(
        ts, np.array([(A.a11, A.a12, A.a21, A.a22) for A in mats]).T)
