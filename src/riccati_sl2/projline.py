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
    "mobius_apply", "mobius_apply_array", "cross_ratio", "cross_ratio_array",
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

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)


# The standard traceless basis used throughout: M0 generates translations
# of the line, M1 scalings, M2 the inversion-type flow.
M0 = Mat2(0.0, 1.0, 0.0, 0.0)
M1 = Mat2(0.5, 0.0, 0.0, -0.5)
M2 = Mat2(0.0, 0.0, -1.0, 0.0)


def mobius_apply(A: Mat2, x: ExtReal) -> ExtReal:
    """The homography (a11*x + a12)/(a21*x + a22) at one point: a
    one-point call of :func:`mobius_apply_array`."""
    return ext(float(mobius_apply_array(A.a11, A.a12, A.a21, A.a22, float(x))))


def mobius_apply_array(a11, a12, a21, a22, xs, *, undefined=None) -> np.ndarray:
    """The homography (a11*x + a12)/(a21*x + a22) on the compactified
    line, element by element over arrays of matrix entries and points
    broadcast together, with inf standing for the point at infinity in
    ``xs`` and in the result: infinity maps to a11/a21, the pole
    -a22/a21 maps to infinity, and when a21 == 0 infinity is fixed.

    At the first element whose matrix is singular or whose image
    overflows, raises SingularMatrixError or OverflowError.  The elements
    marked in the boolean array ``undefined``, and then also those whose
    matrix is singular, give NaN instead."""
    a11, a12, a21, a22, xs = (np.asarray(v, dtype=float)
                              for v in (a11, a12, a21, a22, xs))
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
    singular = abs(det) <= 1e-14 * scale
    failed = singular | ~(to_inf | np.isfinite(out))
    if undefined is not None:
        undefined = undefined | singular
        out = np.where(undefined, math.nan, out)
        failed = failed & ~undefined
    if failed.any():
        i = np.unravel_index(failed.argmax(), failed.shape)
        *entries, x, at_singular = (float(np.broadcast_to(a, failed.shape)[i])
                                    for a in (a11, a12, a21, a22, xs, singular))
        A = Mat2(*entries)
        if at_singular:
            raise SingularMatrixError(f"matrix {A} is singular (det={A.det():.3g})")
        raise OverflowError(f"the image of {ext(x)} under {A} overflows")
    return out


def cross_ratio(x: ExtReal, x1: ExtReal, x2: ExtReal, x3: ExtReal) -> ExtReal:
    """The cross ratio at one point: a one-point call of
    :func:`cross_ratio_array`, raising CoincidentPointsError where that
    gives NaN."""
    cr = float(cross_ratio_array(*(float(p) for p in (x, x1, x2, x3))))
    if math.isnan(cr):
        raise CoincidentPointsError(
            "reference points coincide, exactly or numerically")
    return ext(cr)


def cross_ratio_array(x, x1, x2, x3) -> np.ndarray:
    """Cross ratio ((x - x1)/(x - x2)) : ((x3 - x1)/(x3 - x2)) element by
    element over arrays broadcast together, inf standing for the point at
    infinity: the image of x under the homography sending x1 -> 0,
    x2 -> infinity, x3 -> 1, which gives the limiting values when one
    argument is infinity.  NaN where the references coincide, exactly or
    numerically (that homography is singular); raises OverflowError where
    an image overflows."""
    x, x1, x2, x3 = (np.asarray(v, dtype=float) for v in (x, x1, x2, x3))
    inf1, inf2, inf3 = np.isinf(x1), np.isinf(x2), np.isinf(x3)
    with np.errstate(all="ignore"):
        d32, d31 = x3 - x2, x3 - x1
        # One infinite reference at most, or the references coincide.
        a11 = np.where(inf1, 0.0, np.where(inf2 | inf3, 1.0, d32))
        a12 = np.where(inf1, d32, np.where(inf2 | inf3, -x1, -x1 * d32))
        a21 = np.where(inf1 | inf3, 1.0, np.where(inf2, 0.0, d31))
        a22 = np.where(inf1 | inf3, -x2, np.where(inf2, d31, -x2 * d31))
    return mobius_apply_array(a11, a12, a21, a22, x, undefined=(
        (x1 == x2) | (x1 == x3) | (x2 == x3)))
