import random

import pytest

from riccati_sl2 import (CoincidentPointsError, ExtReal, INF, M0, M1, M2,
                         Mat2, SingularMatrixError, cross_ratio, ext,
                         mobius_apply)


def test_extreal_rejects_nan():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))


def test_ext_coercions():
    assert ext("inf") is INF
    assert ext(3) == ExtReal(3.0)
    assert ext(float("inf")).is_inf


def test_basis_matrices():
    assert (M0.a11, M0.a12, M0.a21, M0.a22) == (0.0, 1.0, 0.0, 0.0)
    assert (M1.a11, M1.a22) == (0.5, -0.5)
    assert (M2.a21, M2.a11) == (-1.0, 0.0)
    for m in (M0, M1, M2):
        assert m.a11 + m.a22 == 0.0


def test_mobius_identity():
    ident = Mat2.identity()
    for x in (ExtReal(0.0), ExtReal(-3.5), INF):
        assert mobius_apply(ident, x) == x


def test_mobius_infinity_to_ratio():
    A = Mat2(2.0, 1.0, 1.0, 1.0)
    assert mobius_apply(A, INF) == ExtReal(2.0)


def test_mobius_pole_to_infinity():
    A = Mat2(2.0, 1.0, 1.0, 1.0)
    assert mobius_apply(A, ExtReal(-1.0)).is_inf


def test_mobius_gamma_zero_fixes_infinity():
    A = Mat2(2.0, 3.0, 0.0, 0.5)
    assert mobius_apply(A, INF).is_inf


def test_mobius_singular_rejected():
    with pytest.raises(SingularMatrixError):
        mobius_apply(Mat2(1.0, 2.0, 2.0, 4.0), ExtReal(1.0))


def _random_unimodular(rng):
    a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-2.0, 2.0)
    d = (1.0 + b * c) / a
    return Mat2(a, b, c, d)


def test_action_property():
    # Phi(A*B, x) == Phi(A, Phi(B, x)) for random unit-determinant pairs.
    rng = random.Random(4321)
    for _ in range(200):
        A = _random_unimodular(rng)
        B = _random_unimodular(rng)
        x = INF if rng.random() < 0.1 else ExtReal(rng.uniform(-3.0, 3.0))
        lhs = mobius_apply(A @ B, x)
        rhs = mobius_apply(A, mobius_apply(B, x))
        if lhs.is_inf or rhs.is_inf:
            # Pole cases: both charts must agree on where infinity is.
            big = 1e9
            if not (lhs.is_inf and rhs.is_inf):
                finite = rhs if lhs.is_inf else lhs
                assert abs(finite.value) > big
            continue
        if max(abs(lhs.value), abs(rhs.value)) > 1e8:
            continue
        assert abs(lhs.value - rhs.value) <= 1e-12 * (1.0 + abs(lhs.value))


def test_cross_ratio_degenerate_positions():
    x1, x2, x3 = ExtReal(1.0), ExtReal(-1.0), ExtReal(0.0)
    assert cross_ratio(x1, x1, x2, x3) == ExtReal(0.0)
    assert cross_ratio(x3, x1, x2, x3) == ExtReal(1.0)
    assert cross_ratio(x2, x1, x2, x3).is_inf


def test_cross_ratio_value():
    got = cross_ratio(ExtReal(5.0), ExtReal(1.0), ExtReal(-1.0), ExtReal(0.0))
    assert got.value == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_cross_ratio_infinity_arguments():
    # One infinite argument is handled by the limiting value.
    x, x1, x2, x3 = ExtReal(2.0), ExtReal(1.0), ExtReal(-1.0), ExtReal(0.0)
    assert cross_ratio(INF, x1, x2, x3).value == pytest.approx(
        (0.0 - (-1.0)) / (0.0 - 1.0) * 1.0, abs=1e-15)  # (x3-x2)/(x3-x1)
    assert cross_ratio(x, INF, x2, x3).value == pytest.approx(
        (x3.value - x2.value) / (x.value - x2.value), abs=1e-15)
    assert cross_ratio(x, x1, INF, x3).value == pytest.approx(
        (x.value - 1.0) / (x3.value - 1.0), abs=1e-15)
    assert cross_ratio(x, x1, x2, INF).value == pytest.approx(
        (x.value - 1.0) / (x.value + 1.0), abs=1e-15)


def test_cross_ratio_coincident_rejected():
    with pytest.raises(CoincidentPointsError):
        cross_ratio(ExtReal(0.0), ExtReal(1.0), ExtReal(1.0), ExtReal(2.0))
    with pytest.raises(CoincidentPointsError):
        cross_ratio(ExtReal(0.0), INF, INF, ExtReal(2.0))


def test_cross_ratio_mobius_invariance():
    rng = random.Random(98765)
    for _ in range(100):
        A = _random_unimodular(rng)
        pts = []
        while len(pts) < 4:
            p = rng.uniform(-3.0, 3.0)
            if all(abs(p - q) > 0.05 for q in pts):
                pts.append(p)
        x, x1, x2, x3 = (ExtReal(p) for p in pts)
        base = cross_ratio(x, x1, x2, x3)
        image = cross_ratio(mobius_apply(A, x), mobius_apply(A, x1),
                            mobius_apply(A, x2), mobius_apply(A, x3))
        if base.is_inf or image.is_inf:
            continue
        if max(abs(base.value), abs(image.value)) > 1e6:
            continue
        assert abs(base.value - image.value) <= 1e-9 * (1.0 + abs(base.value))


def test_serialization_uses_inf_string():
    assert str(INF) == "inf"
    assert str(ExtReal(1.5)) == "1.5"
