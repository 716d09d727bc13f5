"""The one-point compactification of the real line and the Möbius
action of 2x2 real matrices on it.

The point at infinity is a first-class value (never a large float):
Riccati flows are complete on the compactified line, and solutions are
continued through blow-up by switching charts rather than stopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExtReal", "INF", "ext", "points", "Mat2", "M0", "M1", "M2",
    "mobius_apply", "mobius_apply_array", "cross_ratio",
    "SingularMatrixError", "CoincidentPointsError",
]

# A Möbius denominator this close to zero (relative to its operands)
# counts as the pole; floating point never hits a pole exactly.
_POLE_TOL = 1e-13


class SingularMatrixError(ValueError):
    pass


class CoincidentPointsError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ExtReal:
    """A point of the compactified real line: a finite real or infinity
    (encoded as ``value is None``)."""

    value: float | None = None

    def __post_init__(self):
        if self.value is not None:
            v = float(self.value)
            if math.isnan(v):
                raise ValueError("NaN is not a point of the compactified line")
            if math.isinf(v):
                raise ValueError("use ExtReal() / INF for the point at infinity")
            object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __float__(self) -> float:
        """The value, or inf for the point at infinity."""
        return math.inf if self.value is None else self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else format(self.value, ".17g")


INF = ExtReal()


def points(xs) -> list[ExtReal]:
    """The floats ``xs``, with inf for the point at infinity, as points."""
    return [INF if math.isinf(v) else ExtReal(v) for v in np.asarray(xs).tolist()]


def ext(x) -> ExtReal:
    """Coerce a float, the string ``"inf"``, or an ExtReal to ExtReal."""
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, str):
        if x.strip() == "inf":
            return INF
        return ExtReal(float(x))
    if isinstance(x, (int, float)):
        if math.isinf(x):
            return INF
        return ExtReal(float(x))
    raise TypeError(f"cannot interpret {x!r} as a point of the compactified line")


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix, row-major.  The entries are real numbers, or
    expressions for the symbolic products of :mod:`riccati_sl2.transform`
    (``+``, ``@`` and :meth:`det` expand entry by entry)."""

    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0.0:
            raise SingularMatrixError("matrix is singular")
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)


# The standard traceless basis used throughout: M0 generates translations
# of the line, M1 scalings, M2 the inversion-type flow.
M0 = Mat2(0.0, 1.0, 0.0, 0.0)
M1 = Mat2(0.5, 0.0, 0.0, -0.5)
M2 = Mat2(0.0, 0.0, -1.0, 0.0)


def mobius_apply(A: Mat2, x: ExtReal) -> ExtReal:
    """Apply the homography (a11*x + a12)/(a21*x + a22) on the
    compactified line: infinity maps to a11/a21, the pole -a22/a21 maps
    to infinity, and when a21 == 0 infinity is fixed."""
    det = A.det()
    scale = (abs(A.a11) + abs(A.a12)) * (abs(A.a21) + abs(A.a22)) + 1.0
    if abs(det) <= 1e-14 * scale:
        raise SingularMatrixError(f"matrix {A} is singular (det={det:.3g})")
    if x.is_inf:
        if A.a21 == 0.0 or abs(A.a21) <= _POLE_TOL * (abs(A.a11) + abs(A.a22)):
            return INF
        return ExtReal(A.a11 / A.a21)
    v = x.value
    num = A.a11 * v + A.a12
    den = A.a21 * v + A.a22
    if abs(den) <= _POLE_TOL * (1.0 + abs(A.a21 * v) + abs(A.a22)):
        return INF
    return ExtReal(num / den)


def mobius_apply_array(a11, a12, a21, a22, xs) -> np.ndarray:
    """:func:`mobius_apply` element by element over arrays of matrix
    entries and points, broadcast together, with inf standing for the
    point at infinity in ``xs`` and in the result.  Each element takes
    the same float operations in the same order, so the results are the
    same bits.  At the first element where :func:`mobius_apply` raises
    (a singular matrix, or an image that overflows), raises that error."""
    a11, a12, a21, a22, xs = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a11, a12, a21, a22, xs)))
    at_inf = np.isinf(xs)
    v = np.where(at_inf, 0.0, xs)
    with np.errstate(all="ignore"):
        det = a11 * a22 - a12 * a21
        scale = (abs(a11) + abs(a12)) * (abs(a21) + abs(a22)) + 1.0
        fixed = (a21 == 0.0) | (abs(a21) <= _POLE_TOL * (abs(a11) + abs(a22)))
        den = a21 * v + a22
        pole = abs(den) <= _POLE_TOL * (1.0 + abs(a21 * v) + abs(a22))
        to_inf = np.where(at_inf, fixed, pole)
        out = np.where(to_inf, math.inf,
                       np.where(at_inf, a11 / a21, (a11 * v + a12) / den))
    bad = np.flatnonzero((abs(det) <= 1e-14 * scale) | ~(to_inf | np.isfinite(out)))
    if bad.size:
        i = np.unravel_index(bad[0], out.shape)
        A = Mat2(*(float(a[i]) for a in (a11, a12, a21, a22)))
        mobius_apply(A, ext(float(xs[i])))  # raises the error there
    return out


def _normalizing_matrix(x1: ExtReal, x2: ExtReal, x3: ExtReal) -> Mat2:
    # The homography sending x1 -> 0, x2 -> infinity, x3 -> 1.
    if x1.is_inf:
        return Mat2(0.0, x3.value - x2.value, 1.0, -x2.value)
    if x2.is_inf:
        return Mat2(1.0, -x1.value, 0.0, x3.value - x1.value)
    if x3.is_inf:
        return Mat2(1.0, -x1.value, 1.0, -x2.value)
    return Mat2(
        x3.value - x2.value, -x1.value * (x3.value - x2.value),
        x3.value - x1.value, -x2.value * (x3.value - x1.value),
    )


def cross_ratio(x: ExtReal, x1: ExtReal, x2: ExtReal, x3: ExtReal) -> ExtReal:
    """Cross ratio ((x - x1)/(x - x2)) : ((x3 - x1)/(x3 - x2)) with the
    standard limiting conventions when one argument is infinity.

    The reference points must be pairwise distinct.  The result is 0 at
    x = x1, 1 at x = x3 and infinity at x = x2.
    """
    if x1 == x2 or x1 == x3 or x2 == x3:
        raise CoincidentPointsError("reference points must be pairwise distinct")
    try:
        return mobius_apply(_normalizing_matrix(x1, x2, x3), x)
    except SingularMatrixError as exc:
        raise CoincidentPointsError(
            "reference points are numerically coincident") from exc
