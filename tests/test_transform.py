import math
import random

import pytest

from conftest import (bundled_problems, grid, max_traj_dev, random_curve,
                      random_equation)

from riccati_sl2 import (Const, CurveSL2, ExtReal, INF, Mat2,
                         NormalizationError, ONE, RiccatiEquation, T, ZERO,
                         compose, evaluate, evaluate_grid, exp,
                         gauge_transform_algebra, integrate_direct, inverse,
                         mobius_apply, normalize_negative_determinant, parse,
                         theta_apply, transform_coefficients)

GRID = grid(0.0, 1.0, 101)


def _eq_dev(e1: RiccatiEquation, e2: RiccatiEquation, ts=GRID) -> float:
    worst = 0.0
    for t in ts:
        for lhs, rhs in ((e1.b0, e2.b0), (e1.b1, e2.b1), (e1.b2, e2.b2)):
            lv, rv = evaluate(lhs, t), evaluate(rhs, t)
            worst = max(worst, abs(lv - rv) / (1.0 + abs(lv) + abs(rv)))
    return worst


def test_theta_identity():
    c = CurveSL2.identity()
    assert theta_apply(c, 0.3, ExtReal(5.0)) == ExtReal(5.0)
    assert theta_apply(c, 0.3, INF).is_inf


def test_theta_scaling():
    c = CurveSL2.scaling(Const(4.0))
    assert theta_apply(c, 0.0, ExtReal(3.0)).value == pytest.approx(12.0)


def test_theta_translation():
    c = CurveSL2.translation(T)
    assert theta_apply(c, 2.0, ExtReal(5.0)).value == pytest.approx(7.0)


def test_transform_identity_keeps_coefficients():
    eq = RiccatiEquation.of(parse("sin(t)"), parse("t"), parse("exp(t)"))
    assert _eq_dev(transform_coefficients(eq, CurveSL2.identity()), eq) == 0.0


def test_transform_translation_matches_substitution():
    c_expr = parse("t^2")
    eq = RiccatiEquation.of(parse("sin(t)"), parse("t"), parse("exp(t)"))
    got = transform_coefficients(eq, CurveSL2.translation(c_expr))
    dc = parse("2*t")
    want = RiccatiEquation(
        eq.b0 - c_expr * eq.b1 + c_expr ** 2 * eq.b2 + dc,
        eq.b1 - 2.0 * c_expr * eq.b2,
        eq.b2)
    assert _eq_dev(got, want) <= 1e-15


def test_transform_constant_scaling():
    lam = 4.0
    eq = RiccatiEquation.of(parse("sin(t)"), parse("t"), parse("exp(t)"))
    got = transform_coefficients(eq, CurveSL2.scaling(Const(lam)))
    want = RiccatiEquation(lam * eq.b0, eq.b1, eq.b2 * Const(1.0 / lam))
    assert _eq_dev(got, want) <= 1e-15


def test_gauge_identity_and_translation():
    eq = RiccatiEquation.of(parse("sin(t)"), parse("t"), parse("exp(t)"))
    assert _eq_dev(gauge_transform_algebra(eq, CurveSL2.identity()), eq) == 0.0
    c = CurveSL2.translation(parse("t^2"))
    got = gauge_transform_algebra(eq, c)
    want = transform_coefficients(eq, c)
    assert _eq_dev(got, want) <= 1e-12


def test_gauge_of_zero_curve_is_derivative_term():
    zero = RiccatiEquation(ZERO, ZERO, ZERO)
    c = CurveSL2.translation(T)
    got = gauge_transform_algebra(zero, c)
    # derivative term for a translation is the constant shear direction
    assert evaluate(got.b0, 0.5) == pytest.approx(1.0)
    assert evaluate(got.b1, 0.5) == 0.0
    assert evaluate(got.b2, 0.5) == 0.0


def test_compose_and_inverse():
    c = CurveSL2.translation(T)
    ident = compose(c, inverse(c))
    m = ident.matrix_at(0.7)
    assert max(abs(m.a11 - 1.0), abs(m.a12), abs(m.a21), abs(m.a22 - 1.0)) <= 1e-12
    two = compose(CurveSL2.translation(T), CurveSL2.translation(parse("t^2")))
    assert evaluate(two.beta, 0.5) == pytest.approx(0.75)


def test_matrix_products_print_unchanged():
    # The symbolic 2x2 products expand in a fixed operand order; these
    # are the trees they build.
    c = compose(CurveSL2.scaling(exp(T)), CurveSL2.translation(T ** 2))
    assert [str(e) for e in c.entries()] == [
        "sqrt(exp(t))", "sqrt(exp(t))*t^2", "0", "1/sqrt(exp(t))"]
    assert str(c.matrix().det()) == "sqrt(exp(t))*(1/sqrt(exp(t)))"
    g = gauge_transform_algebra(
        RiccatiEquation(parse("sin(t)"), parse("t"), parse("1 + t^2")), c)
    assert str(g.b0) == (
        "(sqrt(exp(t))*(0.5*t) + sqrt(exp(t))*t^2*-(1 + t^2))*-sqrt(exp(t))*t^2"
        " + (sqrt(exp(t))*sin(t) + sqrt(exp(t))*t^2*(-0.5*t))*sqrt(exp(t))"
        " + (exp(t)/(2*sqrt(exp(t)))*-sqrt(exp(t))*t^2"
        " + (exp(t)/(2*sqrt(exp(t)))*t^2 + sqrt(exp(t))*(2*t))*sqrt(exp(t)))")
    assert str(g.b1) == (
        "(sqrt(exp(t))*(0.5*t) + sqrt(exp(t))*t^2*-(1 + t^2))*(1/sqrt(exp(t)))"
        " + exp(t)/(2*sqrt(exp(t)))*(1/sqrt(exp(t)))"
        " - (1/sqrt(exp(t))*-(1 + t^2)*-sqrt(exp(t))*t^2"
        " + 1/sqrt(exp(t))*(-0.5*t)*sqrt(exp(t))"
        " + -exp(t)/(2*sqrt(exp(t)))/sqrt(exp(t))^2*sqrt(exp(t)))")
    assert str(g.b2) == "-1/sqrt(exp(t))*-(1 + t^2)*(1/sqrt(exp(t)))"


def test_inverse_entries():
    assert inverse(CurveSL2.identity()).matrix_at(0.0) == Mat2.identity()
    c = inverse(CurveSL2.translation(T))
    assert evaluate(c.beta, 2.0) == -2.0
    s = inverse(CurveSL2.scaling(Const(4.0)))
    assert evaluate(s.alpha, 0.0) == pytest.approx(0.5)
    assert evaluate(s.delta, 0.0) == pytest.approx(2.0)


def test_affine_action_property():
    rng = random.Random(31415)
    for _ in range(5):
        eq = random_equation(rng)
        c1 = random_curve(rng)
        c2 = random_curve(rng)
        seq = transform_coefficients(transform_coefficients(eq, c1), c2)
        prod = transform_coefficients(eq, compose(c2, c1))
        assert _eq_dev(seq, prod) <= 1e-9


def test_gauge_coefficient_consistency_random():
    rng = random.Random(2718)
    for _ in range(5):
        eq = random_equation(rng)
        c = random_curve(rng)
        g1 = gauge_transform_algebra(eq, c)
        g2 = transform_coefficients(eq, c)
        assert _eq_dev(g1, g2) <= 1e-9


def test_solution_equivariance():
    rng = random.Random(1618)
    for _ in range(3):
        eq = random_equation(rng)
        c = random_curve(rng)
        x0 = ExtReal(rng.uniform(-0.5, 0.5))
        base = integrate_direct(eq, x0, (0.0, 1.0), 1e-3)
        eq2 = transform_coefficients(eq, c)
        image = integrate_direct(eq2, theta_apply(c, 0.0, x0), (0.0, 1.0), 1e-3)
        mapped = [theta_apply(c, t, x) for t, x in zip(base.ts, base.xs)]
        assert max_traj_dev(mapped, image.xs, min_frac=0.3) <= 1e-6


def test_unit_determinant_invariant():
    rng = random.Random(4242)
    for _ in range(5):
        c = random_curve(rng)
        assert abs(evaluate_grid(c.matrix().det(), GRID) - 1.0).max() <= 1e-9


def test_normalize_negative_determinant_flip_only():
    pre_flip, c = normalize_negative_determinant(
        (Const(-1.0), ZERO, ZERO, ONE), GRID)
    assert pre_flip
    m = c.matrix_at(0.5)
    assert max(abs(m.a11 - 1.0), abs(m.a12), abs(m.a21), abs(m.a22 - 1.0)) <= 1e-12


def test_normalize_negative_determinant_scaling():
    lam = parse("1 + t^2")
    pre_flip, c = normalize_negative_determinant((-lam, ZERO, ZERO, ONE), GRID)
    assert pre_flip
    for t in (0.25, 0.75):
        assert evaluate(c.alpha, t) == pytest.approx(math.sqrt(1 + t * t))
        assert evaluate(c.delta, t) == pytest.approx(1.0 / math.sqrt(1 + t * t))
        # factorization h = c o flip reproduces the original map
        for y in (0.7, -1.3):
            h = mobius_apply(Mat2(-(1 + t * t), 0.0, 0.0, 1.0), ExtReal(y))
            via = mobius_apply(c.matrix_at(t), ExtReal(-y))
            assert abs(h.value - via.value) <= 1e-12


def test_normalize_negative_determinant_inversion():
    pre_flip, c = normalize_negative_determinant((ZERO, ONE, ONE, ZERO), GRID)
    assert pre_flip
    # y' = 1/y factors through the flip as y' = -1/y''
    got = mobius_apply(c.matrix_at(0.3), ExtReal(2.0))
    assert got.value == pytest.approx(-0.5)


def test_normalize_positive_determinant_passthrough():
    pre_flip, c = normalize_negative_determinant((ONE, ZERO, ZERO, ONE), GRID)
    assert not pre_flip
    assert evaluate(c.alpha, 0.1) == 1.0


def test_normalize_sign_change_rejected():
    with pytest.raises(NormalizationError):
        normalize_negative_determinant((T, ZERO, ZERO, Const(1.0)),
                                       grid(-1.0, 1.0, 21))


def _ref_flip(entries, grid_):
    """Per-point reference for the flag of normalize_negative_determinant:
    True, False, or None when the sign changes."""
    al, be, ga, de = entries
    vals = [evaluate(al * de - be * ga, t) for t in grid_]
    if all(v < 0.0 for v in vals):
        return True
    if all(v > 0.0 for v in vals):
        return False
    return None


def test_normalize_flag_matches_per_point_loop():
    flags = []
    for problem in bundled_problems():
        eq = problem.equation
        for entries in ((eq.b0, eq.b1, eq.b2, ONE), (eq.b2, eq.b1, eq.b0, -eq.b1)):
            want = _ref_flip(entries, problem.grid())
            flags.append(want)
            if want is None:
                with pytest.raises(NormalizationError):
                    normalize_negative_determinant(entries, problem.grid())
            else:
                flag, _ = normalize_negative_determinant(entries, problem.grid())
                assert flag is want
    assert {True, False, None} <= set(flags)
