"""The group of SL(2,R)-valued curves and its actions.

A curve with entries (alpha, beta, gamma, delta) and unit determinant
acts on solutions pointwise by the homography
x'(t) = (alpha(t)*x(t) + beta(t)) / (gamma(t)*x(t) + delta(t)),
and on Riccati equations by the affine action

    b2' = delta^2*b2 - delta*gamma*b1 + gamma^2*b0
          + gamma*delta' - delta*gamma'
    b1' = -2*beta*delta*b2 + (alpha*delta + beta*gamma)*b1
          - 2*alpha*gamma*b0
          + delta*alpha' - alpha*delta' + beta*gamma' - gamma*beta'
    b0' = beta^2*b2 - alpha*beta*b1 + alpha^2*b0
          + alpha*beta' - beta*alpha'

(primes on curve entries are t-derivatives; :func:`affine_action` takes
expressions or their values).  On the matrix side it is the gauge law
a'(t) = A(t) a(t) A(t)^-1 + dA/dt(t) A(t)^-1, and under the sign
convention of :mod:`riccati_sl2.sl2` the two are identical.

Curve entries are symbolic expressions by construction, so every
derivative term in the affine action is exact; numerically sampled
curves are not representable here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (Expr, ZERO, ONE, Const, EvalDomainError, as_expr,
                   differentiate, evaluate_grid, sqrt)
from .projline import ExtReal, Mat2, mobius_apply, ext
from .riccati import RiccatiEquation
from .sl2 import algebra_matrix

__all__ = [
    "CurveSL2", "theta_apply", "affine_action", "transform_coefficients",
    "gauge_transform_algebra", "compose", "inverse",
    "normalize_negative_determinant", "NormalizationError",
]


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class CurveSL2:
    """Smooth SL(2,R)-valued curve with symbolic entries."""

    alpha: Expr
    beta: Expr
    gamma: Expr
    delta: Expr

    @classmethod
    def of(cls, alpha, beta, gamma, delta) -> "CurveSL2":
        return cls(as_expr(alpha), as_expr(beta), as_expr(gamma), as_expr(delta))

    @classmethod
    def identity(cls) -> "CurveSL2":
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def translation(cls, c) -> "CurveSL2":
        """x -> x + c(t)."""
        return cls(ONE, as_expr(c), ZERO, ONE)

    @classmethod
    def scaling(cls, lam) -> "CurveSL2":
        """x -> lam(t)*x for positive lam."""
        lam = as_expr(lam)
        return cls(sqrt(lam), ZERO, ZERO, ONE / sqrt(lam))

    @classmethod
    def inversion(cls) -> "CurveSL2":
        """x -> -1/x."""
        return cls(ZERO, ONE, Const(-1.0), ZERO)

    def matrix_at(self, t: float) -> Mat2:
        return Mat2(*evaluate_grid(self.entries(), [t])[:, 0].tolist())

    def matrix(self) -> Mat2:
        """The curve as a matrix of expressions."""
        return Mat2(*self.entries())

    def entries(self) -> tuple[Expr, Expr, Expr, Expr]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def theta_apply(c: CurveSL2, t: float, x) -> ExtReal:
    """Apply the curve's homography at time t to a point of the
    compactified line."""
    return mobius_apply(c.matrix_at(t), ext(x))


def affine_action(al, be, ga, de, dal, dbe, dga, dde, b0, b1, b2):
    """The new (b0, b1, b2) of the module's affine action, by ``+``, ``-``
    and ``*`` alone: on expressions, or on arrays of their values."""
    return (be * be * b2 - al * be * b1 + al * al * b0 + al * dbe - be * dal,
            -2.0 * be * de * b2 + (al * de + be * ga) * b1 - 2.0 * al * ga * b0
            + de * dal - al * dde + be * dga - ga * dbe,
            de * de * b2 - de * ga * b1 + ga * ga * b0 + ga * dde - de * dga)


def transform_coefficients(eq: RiccatiEquation, c: CurveSL2) -> RiccatiEquation:
    """The affine action of the curve on the coefficient triple, with
    all derivative terms taken symbolically."""
    return RiccatiEquation(*affine_action(
        *c.entries(), *map(differentiate, c.entries()), eq.b0, eq.b1, eq.b2))


def gauge_transform_algebra(eq: RiccatiEquation, c: CurveSL2) -> RiccatiEquation:
    """Gauge transformation a' = A a A^-1 + dA/dt A^-1 of the equation's
    algebra curve a, expanded symbolically in the M-basis."""
    A, A_inv = c.matrix(), inverse(c).matrix()
    dA = Mat2(*(differentiate(e) for e in c.entries()))
    p = A @ algebra_matrix(eq.b0, eq.b1, eq.b2) @ A_inv + dA @ A_inv
    # Read coefficients back off the basis: b0' = p12, b2' = -p21,
    # b1'/2 = p11 = -p22 (tracelessness holds up to det == 1, so the
    # difference is used for robustness).
    return RiccatiEquation(p.a12, p.a11 - p.a22, -p.a21)


def compose(c2: CurveSL2, c1: CurveSL2) -> CurveSL2:
    """Pointwise matrix product c2(t) * c1(t)."""
    m = c2.matrix() @ c1.matrix()
    return CurveSL2(m.a11, m.a12, m.a21, m.a22)


def inverse(c: CurveSL2) -> CurveSL2:
    """Pointwise inverse, valid for unit-determinant curves."""
    return CurveSL2(c.delta, -c.beta, -c.gamma, c.alpha)


def normalize_negative_determinant(entries, grid) -> tuple[bool, CurveSL2]:
    """Factor a homography with negative determinant through the flip
    y -> -y.

    ``entries`` is a 4-tuple (alpha, beta, gamma, delta) of expressions.
    If the determinant is identically negative on the grid the map
    factors as h = c o flip, where c(y) = h(-y) has entries
    (-alpha, beta, -gamma, delta) rescaled by the positive square root
    of its determinant so that det(c) = +1; the flag True is returned
    together with c.  A positive determinant needs no flip: the entries
    are rescaled to unit determinant and the flag is False.  A
    determinant that changes sign (or vanishes) on the grid is an error.
    """
    al, be, ga, de = (as_expr(e) for e in entries)
    det = Mat2(al, be, ga, de).det()
    try:
        vals = evaluate_grid(det, grid)
    except EvalDomainError as exc:
        raise NormalizationError(f"determinant not evaluable on grid: {exc}") from exc
    if (vals < 0.0).all():
        s = sqrt(-det)
        return True, CurveSL2(-al / s, be / s, -ga / s, de / s)
    if (vals > 0.0).all():
        if abs(vals - 1.0).max() <= 1e-9:
            return False, CurveSL2(al, be, ga, de)
        s = sqrt(det)
        return False, CurveSL2(al / s, be / s, ga / s, de / s)
    raise NormalizationError(
        "determinant changes sign or vanishes on the grid; "
        "the homography does not normalize")
