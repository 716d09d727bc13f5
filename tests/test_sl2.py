import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (PLAIN_TREES, RK4_EXAMPLES, max_traj_dev, random_equation,
                      reference_stage_samples, rk4_cases)

from riccati_sl2 import (INF, EvalDomainError, GroupTrajectory, Integral, Mat2,
                         ONE, OneDimensionalTarget, RiccatiEquation, ZERO,
                         algebra_matrix, evaluate_grid, expm_traceless,
                         integrate_direct,
                         integrate_group_equation, parse, reconstruct_solution,
                         solve_one_dimensional_target, time_grid)


def _entry_dev(A: Mat2, B: Mat2) -> float:
    return max(abs(A.a11 - B.a11), abs(A.a12 - B.a12),
               abs(A.a21 - B.a21), abs(A.a22 - B.a22))


def test_algebra_curve_matrix_form():
    eq = RiccatiEquation.of(1, 2, 3)
    m = algebra_matrix(*eq.coefficients_at(0.0))
    assert (m.a11, m.a12, m.a21, m.a22) == (1.0, 1.0, -3.0, -1.0)
    assert m.a11 + m.a22 == 0.0


def test_zero_curve_stays_identity():
    a = RiccatiEquation(ZERO, ZERO, ZERO)
    G = integrate_group_equation(a, (0.0, 1.0), 1e-2)
    assert all(_entry_dev(m, Mat2.identity()) == 0.0 for m in G.mats)


def test_constant_m1_diagonal_exponential():
    a = RiccatiEquation(ZERO, ONE, ZERO)
    G = integrate_group_equation(a, (0.0, 2.0), 1e-3)
    for t, m in zip(G.ts, G.mats):
        ref = Mat2(math.exp(t / 2.0), 0.0, 0.0, math.exp(-t / 2.0))
        assert _entry_dev(m, ref) <= 1e-8


def test_constant_m0_shear_and_sign_convention():
    # b = (1,0,0) must reconstruct x(t) = x0 + t (solves dx/dt = 1).
    a = RiccatiEquation(ONE, ZERO, ZERO)
    G = integrate_group_equation(a, (0.0, 2.0), 1e-3)
    assert _entry_dev(G.mats[-1], Mat2(1.0, 2.0, 0.0, 1.0)) <= 1e-9
    traj = reconstruct_solution(G, 3.0)
    oracle = integrate_direct(RiccatiEquation.of(1, 0, 0), 3.0, (0.0, 2.0), 1e-3)
    assert max_traj_dev(traj.xs, oracle.xs) <= 1e-9


def test_reconstruction_m1_exponential():
    a = RiccatiEquation(ZERO, ONE, ZERO)
    G = integrate_group_equation(a, (0.0, 1.0), 1e-3)
    traj = reconstruct_solution(G, 3.0)
    oracle = integrate_direct(RiccatiEquation.of(0, 1, 0), 3.0, (0.0, 1.0), 1e-3)
    assert max_traj_dev(traj.xs, oracle.xs) <= 1e-7


def test_reconstruction_m2_through_infinity():
    # exp(t*M2) = [[1,0],[-t,1]]; x = 1/(1-t) crosses infinity at t = 1.
    a = RiccatiEquation(ZERO, ZERO, ONE)
    G = integrate_group_equation(a, (0.0, 2.0), 1e-3)
    traj = reconstruct_solution(G, 1.0)
    crossing = [i for i, x in enumerate(traj.xs) if x.is_inf
                or (i > 0 and not traj.xs[i - 1].is_inf and not x.is_inf
                    and abs(x.value) > 5 and abs(traj.xs[i - 1].value) > 5
                    and (x.value > 0) != (traj.xs[i - 1].value > 0))]
    assert crossing and abs(traj.ts[min(crossing)] - 1.0) <= 2e-3
    assert abs(traj.xs[-1].value - (-1.0)) <= 1e-7


def test_unit_determinant_maintained():
    rng = random.Random(5150)
    for _ in range(5):
        eq = random_equation(rng)
        G = integrate_group_equation(eq, (0.0, 1.0), 1e-3)
        assert max(abs(m.det() - 1.0) for m in G.mats) <= 1e-9


def test_unit_determinant_renormalized_at_coarse_step():
    # 200 RK4 steps of a rotation: without the 1/sqrt(det A) rescale the
    # determinant drifts by about 4e-8; with it, it stays at roundoff.
    a = RiccatiEquation.of(1, 0, 1)
    G = integrate_group_equation(a, (0.0, 10.0), 0.05)
    assert max(abs(m.det() - 1.0) for m in G.mats) <= 1e-12


def test_pipeline_matches_direct_oracle():
    rng = random.Random(777)
    for _ in range(5):
        eq = random_equation(rng)
        x0 = rng.uniform(-0.8, 0.8)
        G = integrate_group_equation(eq, (0.0, 1.0), 1e-3)
        rec = reconstruct_solution(G, x0)
        direct = integrate_direct(eq, x0, (0.0, 1.0), 1e-3)
        assert max_traj_dev(rec.xs, direct.xs) <= 1e-6


def test_crossings_within_one_step():
    # dx/dt = x^2 from 1 blows up at t=1; both routes must cross together.
    eq = RiccatiEquation.of(0, 0, 1)
    G = integrate_group_equation(eq, (0.0, 2.0), 1e-3)
    rec = reconstruct_solution(G, 1.0)
    direct = integrate_direct(eq, 1.0, (0.0, 2.0), 1e-3)

    def crossing_index(xs):
        for i in range(1, len(xs)):
            if xs[i].is_inf or xs[i - 1].is_inf:
                return i
            if (abs(xs[i].value) > 5 and abs(xs[i - 1].value) > 5
                    and (xs[i].value > 0) != (xs[i - 1].value > 0)):
                return i
        return None

    ia, ib = crossing_index(rec.xs), crossing_index(direct.xs)
    assert ia is not None and ib is not None
    assert abs(ia - ib) <= 1


# The group RK4 as an index loop on 4-tuples, kept as the reference for
# the zipped straight-line loop: the same float operations in the same
# order.

def _amul(b0, b1, b2, A):
    m = 0.5 * b1
    return (m * A[0] + b0 * A[2], m * A[1] + b0 * A[3],
            -b2 * A[0] - m * A[2], -b2 * A[1] - m * A[3])


def _axpy(A, s, K):
    return (A[0] + s * K[0], A[1] + s * K[1], A[2] + s * K[2], A[3] + s * K[3])


def _reference_integrate_group(eq, t_span, step):
    grid, h = time_grid(t_span, step)
    A = (1.0, 0.0, 0.0, 1.0)
    rows = [A]
    for b0, b1, b2, steps, failure in reference_stage_samples(
            (eq.b0, eq.b1, eq.b2), grid, h):
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
    return grid, np.array(rows).T


def _group_outcome(integrate, eq, t_span, step):
    try:
        return integrate(eq, t_span, step)
    except (ArithmeticError, EvalDomainError) as exc:
        return type(exc), str(exc)


_GROUP_CASES = [
    (RiccatiEquation(parse("exp(-t)*cos(3*t)"), parse("sin(2*t) - 0.5"),
                     parse("1 + t^2/4")), (0.0, 2.0), 1e-3),
    (RiccatiEquation(parse("integral(cos(t))"), parse("-t"), parse("exp(t)")),
     (0.5, 1.5), 1e-2),
    (RiccatiEquation.of(1, 0, 1), (0.0, 10.0), 0.05),
    (RiccatiEquation.of(0, 0, 0), (0.0, 1.0), 0.1),
    # A stage overflows: the determinant is not finite.
    (RiccatiEquation.of(0, 1e300, 0), (0.0, 1.0), 0.1),
    # b1 fails to evaluate from t = 0.5 on.
    (RiccatiEquation(parse("1"), parse("log(0.5 - t)"), parse("-1")), (0.0, 1.0), 1e-3),
] + [(random_equation(random.Random(seed)), (0.0, 1.0), 1e-3) for seed in range(4)]


@pytest.mark.parametrize("eq, t_span, step", _GROUP_CASES)
def test_group_rk4_is_the_tuple_loop_bit_for_bit(eq, t_span, step):
    _assert_group_is_the_reference(eq, t_span, step)


@settings(max_examples=60)
@given(case=rk4_cases())
@example(case=RK4_EXAMPLES[0])
@example(case=RK4_EXAMPLES[1])
@example(case=RK4_EXAMPLES[2])
@example(case=RK4_EXAMPLES[3])
@example(case=RK4_EXAMPLES[4])
def test_group_rk4_is_the_tuple_loop_on_generated_equations(case):
    _assert_group_is_the_reference(*case)


def _assert_group_is_the_reference(eq, t_span, step):
    want = _group_outcome(_reference_integrate_group, eq, t_span, step)
    got = _group_outcome(integrate_group_equation, eq, t_span, step)
    if isinstance(got, GroupTrajectory):
        assert got.ts == want[0]
        assert got.values.tobytes() == want[1].tobytes()
    else:
        assert got == want


def test_expm_traceless_branches():
    # nilpotent: M0
    m = expm_traceless(Mat2(0.0, 1.0, 0.0, 0.0), 1.5)
    assert _entry_dev(m, Mat2(1.0, 1.5, 0.0, 1.0)) == 0.0
    # hyperbolic: M1 (det < 0)
    m = expm_traceless(Mat2(0.5, 0.0, 0.0, -0.5), 2.0)
    assert _entry_dev(m, Mat2(math.e, 0.0, 0.0, 1.0 / math.e)) <= 1e-12
    # trigonometric: M0 + M2 (det = 1)
    m = expm_traceless(Mat2(0.0, 1.0, -1.0, 0.0), math.pi / 2.0)
    assert _entry_dev(m, Mat2(0.0, 1.0, -1.0, 0.0)) <= 1e-12


# The one-dimensional group solution as one Mat2 exponential per sample,
# kept as the reference for the straight-line floats: the same branches
# and float operations in the same order.

def _reference_expm(N, tau):
    d = N.det()
    u = -d * tau * tau
    if abs(u) < 1e-8:
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


def _reference_one_dimensional(target, t_span, step):
    ts = time_grid(t_span, step)[0]
    N = target.direction()
    tau = evaluate_grid(Integral(target.rate), ts)
    mats = [_reference_expm(N, v) for v in (tau - tau[0]).tolist()]
    return ts, np.array([(A.a11, A.a12, A.a21, A.a22) for A in mats]).T


# Directions for each branch: nilpotent and near-nilpotent (the series),
# det < 0 (cosh) and det > 0 (cos); then any nonzero direction.
_DIRECTIONS = st.sampled_from([(1.0, 0.0, 0.0), (1e-5, 0.0, 1e-5), (0.0, 1.0, 0.0),
                               (1.0, 3.0, 1.0), (1.0, -0.5, 1.0), (2.0, 0.0, 5.0)]
                              ) | st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(any)


@settings(max_examples=40)
@given(direction=_DIRECTIONS, rate=PLAIN_TREES, ta=st.floats(-1.0, 1.0),
       steps=st.sampled_from([1, 50, 700]))
def test_one_dimensional_target_is_the_mat2_loop_bit_for_bit(direction, rate, ta, steps):
    target = OneDimensionalTarget(*direction, rate)
    t_span = (ta, ta + steps * 1e-3)
    ts, want = _reference_one_dimensional(target, t_span, 1e-3)
    got = solve_one_dimensional_target(target, t_span, 1e-3)
    assert got.ts == ts
    assert got.values.tobytes() == want.tobytes()


@given(direction=_DIRECTIONS, tau=st.floats(-50.0, 50.0) | st.floats(-1e-4, 1e-4))
def test_expm_traceless_is_the_mat2_reference_bit_for_bit(direction, tau):
    N = algebra_matrix(*direction)
    assert expm_traceless(N, tau) == _reference_expm(N, tau)


def test_one_dimensional_target_nilpotent():
    target = OneDimensionalTarget(1.0, 0.0, 0.0, ONE)
    G = solve_one_dimensional_target(target, (0.0, 2.0), 0.5)
    assert _entry_dev(G.mats[-1], Mat2(1.0, 2.0, 0.0, 1.0)) <= 1e-12


def test_one_dimensional_target_matches_group_integration():
    target = OneDimensionalTarget(1.0, -0.5, 1.0, ONE)
    G1 = solve_one_dimensional_target(target, (0.0, 2.0), 1e-3)
    teq = target.equation()
    G2 = integrate_group_equation(teq, (0.0, 2.0), 1e-3)
    assert max(_entry_dev(a, b) for a, b in zip(G1.mats, G2.mats)) <= 1e-8


def test_one_dimensional_rotation_closed_form():
    target = OneDimensionalTarget(1.0, 0.0, 1.0, ONE)
    G = solve_one_dimensional_target(target, (0.0, math.pi / 2.0), 1e-3)
    assert _entry_dev(G.mats[-1], Mat2(0.0, 1.0, -1.0, 0.0)) <= 1e-9
    G2 = integrate_group_equation(
        target.equation(), (0.0, math.pi / 2.0), 1e-3)
    assert max(_entry_dev(a, b) for a, b in zip(G.mats, G2.mats)) <= 1e-9


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        OneDimensionalTarget(0.0, 0.0, 0.0, ONE)


def test_reconstruct_from_infinity():
    a = RiccatiEquation(ZERO, ZERO, ONE)
    G = integrate_group_equation(a, (0.0, 0.5), 1e-2)
    traj = reconstruct_solution(G, INF)
    assert traj.xs[0].is_inf
    # Phi([[1,0],[-t,1]], inf) = 1/(-t) = -1/t
    assert abs(traj.xs[-1].value - (-2.0)) <= 1e-9
