import math
import random

import pytest

from conftest import bundled_problems, grid, max_traj_dev, random_poly

from riccati_sl2 import (Const, EvalDomainError, INF, ONE, PreconditionError,
                         ResidualError, RiccatiEquation, SolutionForm, T,
                         cross_ratio,
                         differentiate, evaluate, integrate_direct,
                         parse, reduce_with_known_solution, rhs,
                         solve_autonomous, solve_bernoulli, solve_linear,
                         solve_separable, solve_with_two_solutions,
                         superpose_three, tanh)
from riccati_sl2.solvers import sample_forms, verify_particular_solution

GRID = grid(0.0, 1.0, 101)


def _form_vs_oracle(form, eq, x0, span, tol, step=1e-3):
    oracle = integrate_direct(eq, x0, span, step)
    sampled = [form.at(t) for t in oracle.ts]
    return max_traj_dev(sampled, oracle.xs)


def test_linear_trivial():
    form = solve_linear(RiccatiEquation.of(1, 0, 0), 0.0, GRID)
    assert form.at(1.0).value == pytest.approx(1.0, abs=1e-12)


def test_linear_exponential():
    form = solve_linear(RiccatiEquation.of(0, 1, 0), 2.0, GRID)
    assert form.at(1.0).value == pytest.approx(2.0 * math.e, abs=1e-10)


def test_linear_two_quadratures():
    # b0 = t, b1 = 1, x0 = 0: x = e^t - t - 1.
    eq = RiccatiEquation.of(T, 1, 0)
    form = solve_linear(eq, 0.0, GRID)
    assert abs(form.at(1.0).value - (math.e - 2.0)) <= 1e-8
    assert _form_vs_oracle(form, eq, 0.0, (0.0, 1.0), 1e-8) <= 1e-8


def test_linear_rejects_nonzero_b2():
    with pytest.raises(PreconditionError):
        solve_linear(RiccatiEquation.of(0, 0, 1), 0.0, GRID)


def test_linear_infinity_fixed_point():
    form = solve_linear(RiccatiEquation.of(1, 1, 0), INF, GRID)
    assert form.at(0.5).is_inf


def test_bernoulli_zero_initial_condition():
    form = solve_bernoulli(RiccatiEquation.of(0, 1, 1), 0.0, GRID)
    assert form.at(0.7).value == 0.0


def test_bernoulli_pole_reported_as_infinity():
    form = solve_bernoulli(RiccatiEquation.of(0, 0, 1), 1.0, grid(0, 2, 101))
    assert form.at(0.5).value == pytest.approx(2.0, abs=1e-10)
    assert form.at(1.0).is_inf
    assert form.at(1.5).value == pytest.approx(-2.0, abs=1e-10)


def test_bernoulli_vs_oracle():
    eq = RiccatiEquation.of(0, 1, 1)
    form = solve_bernoulli(eq, 1.0, grid(0.0, 0.5, 51))
    assert _form_vs_oracle(form, eq, 1.0, (0.0, 0.5), 1e-7) <= 1e-7


def test_known_solution_tanh():
    eq = RiccatiEquation.of(1, 0, -1)
    form = reduce_with_known_solution(eq, ONE, 0.0, GRID)
    assert max(abs(form.at(t).value - math.tanh(t)) for t in GRID) <= 1e-8


def test_known_solution_fixed_point():
    eq = RiccatiEquation.of(1, 0, -1)
    form = reduce_with_known_solution(eq, ONE, 1.0, GRID)
    assert all(form.at(t).value == 1.0 for t in (0.0, 0.5, 1.0))


def test_known_solution_zero_for_bernoulli_structure():
    eq = RiccatiEquation.of(0, 1, 1)
    gridd = grid(0.0, 0.4, 41)
    form = reduce_with_known_solution(eq, Const(0.0), 1.0, gridd)
    assert _form_vs_oracle(form, eq, 1.0, (0.0, 0.4), 1e-7) <= 1e-7


def test_known_solution_residual_rejected():
    eq = RiccatiEquation.of(1, 0, -1)
    with pytest.raises(ResidualError) as err:
        reduce_with_known_solution(eq, Const(0.5), 0.0, GRID)
    assert err.value.max_residual > 1e-8


def test_two_solutions_tanh():
    eq = RiccatiEquation.of(1, 0, -1)
    form = solve_with_two_solutions(eq, ONE, Const(-1.0), 0.0, GRID)
    assert max(abs(form.at(t).value - math.tanh(t)) for t in GRID) <= 1e-9


def test_two_solutions_degenerate_initial_conditions():
    eq = RiccatiEquation.of(1, 0, -1)
    assert solve_with_two_solutions(eq, ONE, Const(-1.0), 1.0, GRID).at(0.5).value == 1.0
    assert solve_with_two_solutions(eq, ONE, Const(-1.0), -1.0, GRID).at(0.5).value == -1.0


def test_two_solutions_coincident_rejected():
    eq = RiccatiEquation.of(1, 0, -1)
    with pytest.raises(PreconditionError):
        solve_with_two_solutions(eq, ONE, ONE, 0.0, GRID)


def _planted_two_solutions(rng):
    """Equation built around two chosen solutions: pick x1, x2 and b2,
    then b1 and b0 follow from requiring both to solve the equation."""
    x1 = random_poly(rng, degree=1, scale=0.5)
    d = 1.0 + 0.25 * T ** 2  # strictly positive separation
    x2 = x1 + d
    b2 = random_poly(rng, degree=1, scale=0.5)
    b1 = (differentiate(x1) - differentiate(x2)) / (x1 - x2) - b2 * (x1 + x2)
    b0 = differentiate(x1) - b1 * x1 - b2 * x1 ** 2
    return RiccatiEquation(b0, b1, b2), x1, x2


def test_two_solutions_planted_vs_oracle():
    rng = random.Random(8888)
    for _ in range(3):
        eq, x1, x2 = _planted_two_solutions(rng)
        x0 = evaluate(x1, 0.0) + 0.3 * (evaluate(x2, 0.0) - evaluate(x1, 0.0))
        form = solve_with_two_solutions(eq, x1, x2, x0, GRID)
        assert _form_vs_oracle(form, eq, x0, (0.0, 1.0), 1e-6) <= 1e-6


def test_consistency_one_vs_two_solutions():
    rng = random.Random(1212)
    eq, x1, x2 = _planted_two_solutions(rng)
    x0 = evaluate(x1, 0.0) + 0.4 * (evaluate(x2, 0.0) - evaluate(x1, 0.0))
    f1 = reduce_with_known_solution(eq, x1, x0, GRID)
    f2 = solve_with_two_solutions(eq, x1, x2, x0, GRID)
    assert max(abs(f1.at(t).value - f2.at(t).value) for t in GRID) <= 1e-7


def test_superpose_degenerate_constants():
    x1, x2, x3 = ONE, Const(-1.0), tanh(T)
    assert superpose_three(x1, x2, x3, 0.0, GRID) is x1
    got = superpose_three(x1, x2, x3, 1.0, GRID)
    assert all(abs(evaluate(got, t) - math.tanh(t)) <= 1e-12 for t in (0.3, 0.9))
    assert superpose_three(x1, x2, x3, math.inf, GRID) is x2


def test_superpose_fourth_solution_residual():
    eq = RiccatiEquation.of(1, 0, -1)
    x4 = superpose_three(ONE, Const(-1.0), tanh(T), -1.0, grid(0.0, 2.0, 101))
    dx4 = differentiate(x4)
    worst = 0.0
    checked = 0
    for t in grid(0.05, 2.0, 79):  # k=-1 solution passes through inf at t=0
        v = evaluate(x4, t)
        if abs(v) > 10.0:
            continue
        checked += 1
        worst = max(worst, abs(evaluate(dx4, t) - rhs(eq, t, v)))
    assert checked > 50
    assert worst <= 1e-7


def test_superpose_coincident_rejected():
    with pytest.raises(PreconditionError):
        superpose_three(ONE, ONE, tanh(T), 0.5, GRID)


def test_autonomous_double_root():
    form = solve_autonomous(0.0, 0.0, 1.0, 1.0)
    assert form.at(0.5).value == pytest.approx(2.0)
    assert form.at(1.0).is_inf
    assert form.at(2.0).value == pytest.approx(-1.0)


def test_autonomous_two_roots_tanh():
    form = solve_autonomous(1.0, 0.0, -1.0, 0.0)
    assert max(abs(form.at(t).value - math.tanh(t)) for t in GRID) <= 1e-12


def test_autonomous_tangent_case():
    form = solve_autonomous(1.0, 0.0, 1.0, 0.0)
    for t in (0.3, 1.0, 1.4):
        assert form.at(t).value == pytest.approx(math.tan(t), rel=1e-12)
    eq = RiccatiEquation.of(1, 0, 1)
    assert _form_vs_oracle(form, eq, 0.0, (0.0, 3.0), 1e-6) <= 1e-6


def test_autonomous_linear_delegation():
    form = solve_autonomous(2.0, 0.0, 0.0, 1.0)
    assert form.at(0.5).value == pytest.approx(2.0)
    form = solve_autonomous(1.0, -1.0, 0.0, 3.0)
    assert form.at(1.0).value == pytest.approx(1.0 + 2.0 / math.e)
    assert solve_autonomous(1.0, 2.0, 0.0, INF).at(0.5).is_inf


def test_autonomous_from_infinity():
    form = solve_autonomous(0.0, 0.0, 1.0, INF)
    assert form.at(0.5).value == pytest.approx(-2.0)


def test_separable_identity_time_change():
    f1 = solve_separable(ONE, 1.0, 0.0, -1.0, 0.0)
    f2 = solve_autonomous(1.0, 0.0, -1.0, 0.0)
    assert all(f1.at(t).value == pytest.approx(f2.at(t).value) for t in GRID)


def test_separable_quadratic_time():
    form = solve_separable(parse("2*t"), 0.0, 0.0, 1.0, 1.0)
    assert form.at(0.5).value == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-10)
    assert form.at(1.0).is_inf


def test_separable_oscillating_time():
    form = solve_separable(parse("cos(t)"), 1.0, 0.0, -1.0, 0.0)
    eq = RiccatiEquation.of(parse("cos(t)"), 0, parse("-cos(t)"))
    assert max(abs(form.at(t).value - math.tanh(math.sin(t)))
               for t in grid(0.0, 6.0, 61)) <= 1e-7
    assert _form_vs_oracle(form, eq, 0.0, (0.0, 6.0), 1e-7, step=2e-3) <= 1e-7


def test_cross_ratio_constant_along_solutions():
    eq = RiccatiEquation.of(1, 0, -1)
    span = (0.0, 2.0)
    trajs = [integrate_direct(eq, x0, span, 1e-3)
             for x0 in (0.0, 0.5, -0.5, 0.25)]
    values = []
    for i in range(len(trajs[0].ts)):
        cr = cross_ratio(trajs[0].xs[i], trajs[1].xs[i], trajs[2].xs[i],
                         trajs[3].xs[i])
        if not cr.is_inf:
            values.append(cr.value)
    mid = sorted(values)[len(values) // 2]
    assert max(abs(v - mid) for v in values) / (1.0 + abs(mid)) <= 1e-6


def _ref_residual(eq, x1, grid_):
    """Per-point reference for verify_particular_solution: the worst
    residual and the first time it occurs."""
    dx1 = differentiate(x1)
    worst, worst_t = 0.0, grid_[0]
    for t in grid_:
        v = evaluate(x1, t)
        r = rhs(eq, t, v)
        res = abs(evaluate(dx1, t) - r) / (1.0 + abs(r))
        if res > worst:
            worst, worst_t = res, t
    return worst, worst_t


@pytest.mark.parametrize("x1", ["1", "-1", "tanh(t)", "0.5 + t", "exp(-t)", "-1/(1 + t)"])
def test_residual_error_matches_per_point_loop(x1):
    x1 = parse(x1)
    for problem in bundled_problems():
        eq, grid_ = problem.equation, problem.grid()
        worst, at_t = _ref_residual(eq, x1, grid_)
        if worst <= 1e-8:
            verify_particular_solution(eq, x1, grid_)
            continue
        with pytest.raises(ResidualError) as info:
            verify_particular_solution(eq, x1, grid_)
        assert info.value.at_t == at_t
        assert info.value.max_residual == pytest.approx(worst, rel=1e-12)


def test_sample_forms_evaluates_each_form_alone_after_a_failure():
    # The pole at 0.5 fails the joint grid run; each form is then
    # evaluated alone, and the pole reaches only its own row.
    ts = [i / 10 for i in range(11)]
    pole, line = (SolutionForm(parse(s)) for s in ("1/(t - 0.5)", "t"))
    rows = list(sample_forms([pole, line], ts))
    assert rows[0].tolist() == [math.inf if t == 0.5 else 1.0 / (t - 0.5)
                                for t in ts]
    assert rows[1].tolist() == ts


def test_sample_forms_raises_a_failing_form_error_in_its_turn():
    ts = [0.0, 0.25, 0.5, 0.75, 0.85, 1.0]
    forms = [SolutionForm(T), SolutionForm(parse("log(0.8 - t)"))]
    rows = sample_forms(forms, ts)
    assert next(rows).tolist() == ts
    with pytest.raises(EvalDomainError, match="log of non-positive value"):
        next(rows)
    # Up to the last time before 0.8 both forms evaluate.
    assert len(list(sample_forms(forms, ts[:4]))) == 2
