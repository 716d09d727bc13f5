import math
import re
import statistics

import numpy as np
import pytest

from conftest import (PROBLEMS, bundled_problems, grid, max_traj_dev,
                      scalar_evaluator)

from riccati_sl2 import (Const, CurveSL2, EvalDomainError, ONE,
                         OneDimensionalTarget, RiccatiEquation, T, ZERO,
                         compose, curve_residual, differentiate, evaluate,
                         exp, integral_from, integrate_direct, inverse, log,
                         parse, sqrt, transform_coefficients)
from riccati_sl2.criteria import (DETECTORS, DETECTOR_ORDER, CriterionReport,
                                  HintError, check_allen_stein, check_ko06,
                                  check_ra61, check_rao_K, check_rao_W0,
                                  check_rdm05, check_ru68, check_zh99_E,
                                  check_zh99_basic, check_zh99_table,
                                  classify, constancy_fit,
                                  holds_on_solve_grid, solve_via_report)
from riccati_sl2.cli import load_problem

GRID = grid(0.0, 1.0, 101)


def _end_to_end_dev(eq, report, x0=0.3, span=(0.0, 1.0), step=1e-3):
    reduced = solve_via_report(report, [x0], span, step)[0]
    oracle = integrate_direct(eq, x0, span, step)
    return max_traj_dev(reduced.xs, oracle.xs)


def test_constancy_fit_constant():
    value, dev = constancy_fit(Const(3.5), GRID)
    assert value == 3.5 and dev == 0.0


def test_constancy_fit_perturbed():
    f = 2.0 + Const(1e-12) * parse("sin(t)")
    value, dev = constancy_fit(f, GRID)
    assert value == pytest.approx(2.0, abs=1e-11)
    assert dev <= 1e-12


def test_constancy_fit_nonconstant():
    value, dev = constancy_fit(T, GRID)
    assert dev >= 0.3


def test_rao_K_planted():
    v = parse("1 + t^2")
    phi = v  # b2 = 1 so sqrt(W/b2) = b2*v = v
    b1 = 0.5 * phi - differentiate(v) / v
    b0 = v * v - differentiate(b1)
    eq = RiccatiEquation(b0, b1, ONE)
    rep = check_rao_K(eq, GRID)
    assert rep.satisfied
    assert rep.constants["K"] == pytest.approx(0.5, abs=1e-9)
    assert rep.diagnostics["curve_residual"] <= 1e-8
    assert _end_to_end_dev(eq, rep) <= 1e-6


def test_rao_K_autonomous():
    eq = RiccatiEquation.of(1, -0.5, 1)
    rep = check_rao_K(eq, GRID)
    assert rep.satisfied
    assert rep.constants["K"] == pytest.approx(-0.5, abs=1e-12)
    assert _end_to_end_dev(eq, rep) <= 1e-6


def test_rao_K_nonconstant_rejected():
    rep = check_rao_K(RiccatiEquation.of(1, T, 1), GRID)
    assert not rep.satisfied
    assert "max_dev" in str(rep.diagnostics.get("reason", "")) or \
        rep.diagnostics.get("max_dev", 1.0) > 1e-6


def test_rao_W0_trivial():
    eq = RiccatiEquation.of(0, 0, 1)
    rep = check_rao_W0(eq, GRID)
    assert rep.satisfied
    assert _end_to_end_dev(eq, rep, x0=0.5) <= 1e-6


def test_rao_W0_reverse_engineered():
    # b1 = 1, b2 = e^t, b0 chosen so the invariant vanishes identically.
    eq = RiccatiEquation.of(parse("exp(-t)"), 1, parse("exp(t)"))
    rep = check_rao_W0(eq, GRID)
    assert rep.satisfied
    assert _end_to_end_dev(eq, rep, x0=0.2) <= 1e-6


def test_rao_W0_rejects_nonzero():
    rep = check_rao_W0(RiccatiEquation.of(1, 0, 1), GRID)
    assert not rep.satisfied


def test_ru68_hint_mode():
    # v = e^t, k = 1, c = 2, b1 = 2 determine b0 = e^t, b2 = e^-t / 2.
    eq = RiccatiEquation.of(parse("exp(t)"), 2, parse("0.5*exp(-t)"))
    rep = check_ru68(eq, GRID, hint={"v": parse("exp(t)"), "c": 2.0, "k": 1.0})
    assert rep.satisfied
    assert rep.constants == {"c": 2.0, "k": 1.0}
    assert _end_to_end_dev(eq, rep) <= 1e-6


def test_ru68_matches_ko06_instance():
    # The F-family instance with F = 1 + t^2, c1 = 1, c2 = 0 is also an
    # RU68 instance with v = F, k = 0, c = -1; both detectors must fire.
    F = parse("1 + t^2")
    eq = RiccatiEquation(F, differentiate(F) / F, -(1.0 / F))
    rep_u = check_ru68(eq, GRID, hint={"v": F, "c": -1.0, "k": 0.0})
    rep_k = check_ko06(eq, GRID)
    assert rep_u.satisfied and rep_k.satisfied
    assert rep_k.constants["c1"] == pytest.approx(1.0, abs=1e-12)
    assert rep_k.constants["c2"] == pytest.approx(0.0, abs=1e-12)
    d1 = _end_to_end_dev(eq, rep_u)
    d2 = _end_to_end_dev(eq, rep_k)
    assert d1 <= 1e-6 and d2 <= 1e-6


def test_ru68_discovery_constant_instance():
    eq = RiccatiEquation.of(1, 0, 1)
    rep = check_ru68(eq, GRID)
    assert rep.satisfied
    assert rep.constants["c"] == 1.0
    assert rep.constants["k"] == pytest.approx(0.0, abs=1e-12)
    assert _end_to_end_dev(eq, rep) <= 1e-6


def test_ru68_discovery_sign_change_rejected():
    rep = check_ru68(RiccatiEquation.of(parse("t - 0.5"), 0, 1), GRID)
    assert not rep.satisfied


def test_allen_stein_balanced_exponentials():
    eq = RiccatiEquation.of(parse("exp(2*t)"), 0, parse("exp(2*t)"))
    rep = check_allen_stein(eq, GRID)
    assert rep.satisfied
    assert rep.constants["C"] == pytest.approx(0.0, abs=1e-12)
    assert _end_to_end_dev(eq, rep, x0=0.1, span=(0.0, 0.6)) <= 1e-6


def test_allen_stein_constant_instance():
    rep = check_allen_stein(RiccatiEquation.of(1, 2, 1), GRID)
    assert rep.satisfied
    assert rep.constants["C"] == pytest.approx(2.0, abs=1e-12)


def test_allen_stein_nonconstant_rejected():
    rep = check_allen_stein(RiccatiEquation.of(1, T, 1), GRID)
    assert not rep.satisfied


def test_allen_stein_sign_precondition():
    rep = check_allen_stein(RiccatiEquation.of(1, 0, -1), GRID)
    assert not rep.satisfied
    assert "b0*b2" in rep.diagnostics["reason"]


def test_ko06_planted():
    # F = e^t, c1 = 2, c2 = 3.
    eq = RiccatiEquation.of(parse("exp(t)"), 4, parse("-2*exp(-t)"))
    rep = check_ko06(eq, GRID)
    assert rep.satisfied
    assert rep.constants["c1"] == pytest.approx(2.0, abs=1e-9)
    assert rep.constants["c2"] == pytest.approx(3.0, abs=1e-9)
    assert _end_to_end_dev(eq, rep, x0=0.2, span=(0.0, 0.5)) <= 1e-6


def test_ko06_constant_equation():
    rep = check_ko06(RiccatiEquation.of(1, 2, 1), GRID)
    assert rep.satisfied
    assert rep.constants["c2"] == pytest.approx(2.0)
    assert rep.constants["c1"] == pytest.approx(-1.0)
    assert len(rep.alternates) == 2  # -c1 = 1 > 0 admits both rescalings


def test_ko06_alternates():
    # F = e^t with c1 = -1 < 0 makes -c1 > 0: both alternates exist and
    # reproduce their targets through the coefficient law.
    eq = RiccatiEquation.of(parse("exp(t)"), 4, parse("exp(-t)"))
    rep = check_ko06(eq, GRID)
    assert rep.satisfied and rep.constants["c1"] == pytest.approx(-1.0)
    assert len(rep.alternates) == 2
    for curve, target in rep.alternates:
        tr = transform_coefficients(eq, curve)
        teq = target.equation()
        for t in GRID[::10]:
            for a, b in ((tr.b0, teq.b0), (tr.b1, teq.b1), (tr.b2, teq.b2)):
                av, bv = evaluate(a, t), evaluate(b, t)
                assert abs(av - bv) <= 1e-8 * (1.0 + abs(av) + abs(bv))


def test_ra61_planted():
    eq = RiccatiEquation.of(parse("-2.5*exp(2*t)"), 1, 1)
    rep = check_ra61(eq, GRID)
    assert rep.satisfied
    assert rep.constants["a"] == pytest.approx(2.5, abs=1e-9)
    assert _end_to_end_dev(eq, rep, x0=0.3, span=(0.0, 0.6)) <= 1e-6


def test_ra61_autonomous():
    rep = check_ra61(RiccatiEquation.of(-4, 0, 1), GRID)
    assert rep.satisfied
    assert rep.constants["a"] == pytest.approx(4.0, abs=1e-12)


def test_ra61_nonconstant_rejected():
    rep = check_ra61(RiccatiEquation.of(-T - 0.5, 0, 1), GRID)
    assert not rep.satisfied


def test_rdm05_planted():
    # P = 1, Q = t, k = 2 gives b2 = 2(t - 2).
    eq = RiccatiEquation.of(1, T, parse("2*t - 4"))
    rep = check_rdm05(eq, GRID)
    assert rep.satisfied
    assert rep.constants["k"] == pytest.approx(2.0, abs=1e-12)
    assert rep.constants["r"] == pytest.approx(-0.5, abs=1e-12)
    teq = rep.target
    for t in GRID[::20]:
        assert evaluate(teq.b0, t) == pytest.approx(t / 2.0 - 1.0)
        assert evaluate(teq.b1, t) == pytest.approx(t - 4.0)
        assert evaluate(teq.b2, t) == 0.0
    assert _end_to_end_dev(eq, rep, x0=0.2) <= 1e-6


def test_rdm05_picks_larger_root():
    eq = RiccatiEquation.of(1, 0, -1)
    rep = check_rdm05(eq, GRID)
    assert rep.satisfied
    assert rep.constants["r"] == pytest.approx(1.0)
    assert rep.constants["k"] == pytest.approx(-1.0)
    dev = _end_to_end_dev(eq, rep, x0=0.0, span=(0.0, 1.0))
    assert dev <= 1e-7


def test_rdm05_no_real_solution():
    rep = check_rdm05(RiccatiEquation.of(1, 0, 1), GRID)
    assert not rep.satisfied
    assert "no real constant solution" in rep.diagnostics["reason"]


def test_rdm05_with_integral_coefficients():
    # b0 + b1 r + b2 r^2 = (r - 2)(r + 2 + integral(cos(t))): r = 2 is a
    # constant solution, the other root moves.  The middle time's values
    # come from the grid, where the integral is a sum of cells.
    eq = RiccatiEquation(parse("-2*integral(cos(t)) - 4"),
                         parse("integral(cos(t))"), ONE)
    rep = check_rdm05(eq, GRID)
    assert rep.satisfied
    assert abs(rep.constants["r"] - 2.0) <= 1e-12


def test_rdm05_a_failure_away_from_the_middle_time_needs_a_root_to_raise():
    # b2 = 1/t fails at t = 0 only; at the middle time 1 + 2 y^2 has no
    # real root, so there is nothing to verify on the grid.
    rep = check_rdm05(RiccatiEquation.of(1, 0, parse("1/t")), GRID)
    assert not rep.satisfied
    assert rep.diagnostics["reason"] == "no real constant solution"
    # A failure at the middle time raises, root or not.
    with pytest.raises(EvalDomainError, match="division by zero in '1/\\(t - 0.5\\)'"):
        check_rdm05(RiccatiEquation.of(1, 0, parse("1/(t - 0.5)")), GRID)


def test_holds_on_solve_grid_leaves_an_unsatisfied_report_as_it_is():
    eq = RiccatiEquation.of(1, T, -1)
    rep = check_rdm05(eq, GRID)
    before = dict(rep.diagnostics)
    assert "no real constant solution" in before["reason"]
    assert holds_on_solve_grid(rep, eq, (0.0, 1.0), 0.01) is False
    assert not rep.satisfied and rep.diagnostics == before


def test_a_failing_self_check_raises_the_tree_laws_error():
    # Where the law's values fail, the error is the one the transformed
    # trees raise, not the first failed value's: at t = 0.5 both the
    # coefficient and the curve's derivative fail, and the tree meets the
    # log first; an overflowing entry is charged to the tree that holds
    # it; and at t = 0, where the tree of b0 overflows, the derivative's
    # division by zero (in the tree of b1) comes second.
    grid5 = grid(0.0, 1.0, 5)
    cases = [
        (RiccatiEquation(ONE, T, 1.0 + log(0.5 - T)),
         CurveSL2.translation(sqrt((T - 0.5) ** 2)),
         "log of non-positive value in 'log(0.5 - t)'"),
        (RiccatiEquation.of(1, 0, 1), CurveSL2.scaling(exp(1600 * T)),
         "overflow in 'sqrt(exp(1600*t))*sqrt(exp(1600*t))'"),
        (RiccatiEquation.of(1e300, 0, 1),
         compose(CurveSL2.scaling(Const(1e10)), CurveSL2(ONE, ZERO, sqrt(T ** 2), ONE)),
         "overflow in 'sqrt(10000000000)*sqrt(10000000000)*1.0000000000000001e+300'"),
    ]
    for eq, curve, message in cases:
        report = CriterionReport("law", True, curve=curve, target=eq)
        with pytest.raises(EvalDomainError) as err:
            curve_residual(report, eq, grid5)
        assert str(err.value) == message


def test_rdm05_zero_solution_is_bernoulli():
    # Only constant solution is 0 (the nonzero root -b1/b2 drifts with t).
    rep = check_rdm05(RiccatiEquation.of(0, 1, 1.0 + T), GRID)
    assert not rep.satisfied
    assert "Bernoulli" in rep.diagnostics["reason"]


def test_zh99_basic_planted():
    # D = e^t, a = c = 1, b = 0, b2 = e^t.
    eq = RiccatiEquation.of(parse("exp(t)"), 0, parse("exp(t)"))
    rep = check_zh99_basic(eq, GRID)
    assert rep.satisfied
    assert rep.constants["b"] == pytest.approx(0.0, abs=1e-9)
    assert rep.constants["a"] == 1.0 and rep.constants["c"] == 1.0
    assert evaluate(rep.functions["D"], 0.7) == pytest.approx(math.exp(0.7))
    assert _end_to_end_dev(eq, rep, x0=0.2, span=(0.0, 0.4)) <= 1e-6


def test_zh99_basic_autonomous():
    rep = check_zh99_basic(RiccatiEquation.of(1, 1, 1), GRID)
    assert rep.satisfied
    assert rep.constants == {"a": 1.0, "b": 1.0, "c": 1.0}


def test_zh99_basic_nonconstant_rejected():
    rep = check_zh99_basic(RiccatiEquation.of(1, T, 1), GRID)
    assert not rep.satisfied


def test_zh99_basic_hint_mode():
    eq = RiccatiEquation.of(parse("exp(t)"), parse("0.5*exp(t)"), parse("exp(t)"))
    rep = check_zh99_basic(eq, GRID, hint={"D": parse("exp(t)"), "a": 1.0,
                                           "b": 0.5, "c": 1.0})
    assert rep.satisfied
    assert rep.diagnostics["mode"] == "verification"


def test_zh99_E_degenerates_to_basic():
    eq = RiccatiEquation.of(parse("exp(t)"), 0, parse("exp(t)"))
    rep = check_zh99_E(eq, GRID, {"E": ZERO, "D": parse("exp(t)"),
                                  "a": 1.0, "b": 0.0, "c": 1.0})
    assert rep.satisfied
    basic = check_zh99_basic(eq, GRID)
    assert basic.satisfied


def test_zh99_E_planted():
    # E = t, D = 1, a = b = c = 1, b2 = 1 give b1 = 1 - 2t, b0 = 2 - t + t^2.
    eq = RiccatiEquation.of(parse("2 - t + t^2"), parse("1 - 2*t"), 1)
    hint = {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0}
    rep = check_zh99_E(eq, GRID, hint)
    assert rep.satisfied
    assert rep.diagnostics["curve_residual"] <= 1e-8
    assert _end_to_end_dev(eq, rep, x0=0.1) <= 1e-6


def test_zh99_E_perturbation_detected():
    eq = RiccatiEquation.of(parse("2.01 - t + t^2"), parse("1 - 2*t"), 1)
    rep = check_zh99_E(eq, GRID, {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0})
    assert not rep.satisfied
    assert rep.diagnostics["max_dev"] == pytest.approx(0.01, rel=0.7)


def _dlog(e):
    return differentiate(e) / e


def _planted_table_row(row):
    """Instances satisfying each row's two conditions exactly."""
    a = c = 1.0
    b = 0.5
    E = T
    if row == 1:
        D = exp(T)
        b2 = ONE
        b0 = exp(2.0 * T)
        b1 = 1.0 + exp(T) - 0.0  # from db0/b0 - b1 = dD/D - b*D with b = 1
        return (RiccatiEquation(b0, b1, b2),
                {"D": D, "a": 1.0, "b": 1.0, "c": 1.0})
    D = 1.0 + 0.5 * T
    b2 = ONE
    lam = D ** 2 / b2  # conditions force L[E] equal to this
    if row == 2:
        b1 = _dlog(lam) - 2.0 * E * b2 - (_dlog(D) + b * D)
    elif row == 3:
        b1 = _dlog(D) - b * D - _dlog(b2) - 2.0 * E * b2
    elif row == 4:
        b1 = _dlog(lam) - 2.0 * E * b2 - (_dlog(D) - b * D)
    else:
        raise ValueError
    b0 = lam + differentiate(E) - b2 * E ** 2 - b1 * E
    return (RiccatiEquation(b0, b1, b2),
            {"E": E, "D": D, "a": a, "b": b, "c": c})


def _reversed_table_row(row):
    """Rows 5 and 6: push the target backwards through the printed curve
    with free parameter functions."""
    u = 1.0 + 0.5 * T  # B/A with A = 1
    E = T
    D = ONE
    a = b = c = 1.0
    lam = 1.0 + T ** 2
    if row == 5:
        S = sqrt(lam / (a * D))
        g = sqrt(a * D / lam)
        curve = CurveSL2(-(S * u), S * (1.0 + E * u), -g, g * E)
    else:
        R = sqrt(c * D / lam)
        V = sqrt(lam / (c * D))
        curve = CurveSL2(-R, R * ((1.0 + u * E) * (1.0 / u)), -(u * V), u * E * V)
    target_eq = RiccatiEquation(c * D, b * D, a * D)
    eq = transform_coefficients(target_eq, inverse(curve))
    return eq, {"A": ONE, "B": u, "E": E, "D": D, "a": a, "b": b, "c": c}


@pytest.mark.parametrize("row", [1, 2, 3, 4])
def test_zh99_table_planted_rows(row):
    eq, hint = _planted_table_row(row)
    rep = check_zh99_table(eq, GRID, row, hint)
    assert rep.satisfied, rep.diagnostics
    assert rep.diagnostics["determinant_dev"] <= 1e-9
    assert rep.diagnostics["curve_residual"] <= 1e-8
    assert _end_to_end_dev(eq, rep, x0=0.1, span=(0.0, 0.5)) <= 1e-6


@pytest.mark.parametrize("row", [5, 6])
def test_zh99_table_reversed_rows(row):
    eq, hint = _reversed_table_row(row)
    rep = check_zh99_table(eq, GRID, row, hint)
    assert rep.satisfied, rep.diagnostics
    assert rep.diagnostics["determinant_dev"] <= 1e-9
    assert rep.diagnostics["curve_residual"] <= 1e-8
    assert _end_to_end_dev(eq, rep, x0=0.1, span=(0.0, 0.5)) <= 1e-6


def test_zh99_table_row2_with_zero_E():
    # L[0] = b0: conditions become a basic-form variant.
    D = exp(T)
    b2 = ONE
    lam = D ** 2
    b1 = _dlog(lam) - (_dlog(D) + 0.5 * D)
    b0 = lam - b1 * ZERO  # L[0] = b0 = lam
    eq = RiccatiEquation(b0, b1, b2)
    rep = check_zh99_table(eq, GRID, 2, {"E": ZERO, "D": D, "a": 1.0,
                                         "b": 0.5, "c": 1.0})
    assert rep.satisfied


def test_zh99_sign_symmetry():
    # Flipping (a, c) keeps the conditions satisfied and the pulled-back
    # solution identical.
    eq = RiccatiEquation.of(parse("exp(t)"), 0, parse("exp(t)"))
    D = parse("exp(t)")
    r1 = check_zh99_basic(eq, GRID, hint={"D": D, "a": 1.0, "b": 0.0, "c": 1.0})
    r2 = check_zh99_basic(eq, GRID, hint={"D": D, "a": -1.0, "b": 0.0, "c": -1.0})
    assert r1.satisfied and r2.satisfied
    t1 = solve_via_report(r1, [0.2], (0.0, 0.4), 1e-3)[0]
    t2 = solve_via_report(r2, [0.2], (0.0, 0.4), 1e-3)[0]
    assert max(abs(p.value - q.value) for p, q in zip(t1.xs, t2.xs)
               if not p.is_inf and not q.is_inf) <= 1e-8


def test_classify_order_and_content():
    eq = RiccatiEquation.of(1, 0, -1)
    reports = classify(eq, GRID)
    assert [r.name for r in reports] == list(DETECTOR_ORDER)
    by_name = {r.name: r for r in reports}
    assert by_name["RDM05"].satisfied
    assert not by_name["AllenStein"].satisfied
    assert any(r.satisfied for r in reports)


def test_classify_constant_equation_multiple_hits():
    eq = RiccatiEquation.of(1, 2, 1)
    reports = classify(eq, GRID)
    sat = [r for r in reports if r.satisfied]
    assert len(sat) >= 2
    oracle = integrate_direct(eq, 0.0, (0.0, 1.0), 1e-3)
    for rep in sat:
        reduced = solve_via_report(rep, [0.0], (0.0, 1.0), 1e-3)[0]
        assert max_traj_dev(reduced.xs, oracle.xs) <= 1e-6


def test_classify_generic_equation_all_unsatisfied():
    eq = RiccatiEquation.of(parse("sin(t)"), parse("t^2"), parse("exp(t)"))
    reports = classify(eq, GRID)
    assert len(reports) == len(DETECTOR_ORDER)
    assert not any(r.satisfied for r in reports)
    for r in reports:
        assert "reason" in r.diagnostics


def test_classify_with_hints_appends_detectors():
    eq = RiccatiEquation.of(parse("2 - t + t^2"), parse("1 - 2*t"), 1)
    hints = {"Zh99E": {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0}}
    reports = classify(eq, GRID, hints=hints)
    assert reports[-1].name == "Zh99E"
    assert reports[-1].satisfied


_ZH99E_EQ = RiccatiEquation.of(parse("2 - t + t^2"), parse("1 - 2*t"), 1)
_ZH99E_KEYS = "['E', 'D', 'a', 'b', 'c']"
_HINTED = sorted(d.name for d in DETECTORS if d.hint != "none")


@pytest.mark.parametrize("hints, expected", [
    ({"Zh99E": {"E": T, "a": 1.0, "b": 1.0, "c": 1.0}}, _ZH99E_KEYS),
    ({"Zh99E": {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0, "typo": T}},
     _ZH99E_KEYS),
    ({"Nope": {"D": ONE}}, str(_HINTED)),
    ({"RDM05": {}}, str(_HINTED)),
], ids=["missing-key", "unknown-key", "unknown-detector", "detector-without-hint"])
def test_classify_checks_hints_against_the_table(hints, expected):
    with pytest.raises(HintError, match=re.escape(expected)):
        classify(_ZH99E_EQ, GRID, hints=hints)


def test_classify_reads_hint_text_and_objects_alike():
    as_objects = {"Zh99E": {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0}}
    as_text = {"Zh99E": {"E": "t", "D": "1", "a": 1, "b": 1, "c": 1}}
    reports = classify(_ZH99E_EQ, GRID, hints=as_objects)
    assert reports[-1].satisfied
    assert reports == classify(_ZH99E_EQ, GRID, hints=as_text)


def _scalar_constancy_fit(f, grid_):
    ref = scalar_evaluator(f)
    vals = [ref(t) for t in grid_]
    value = statistics.median(vals)
    return value, max(abs(v - value) for v in vals) / (1.0 + abs(value))


def test_constancy_fit_fails_at_the_first_failed_point():
    # log(t - c) fails at the grid points t <= c: 19 of 101 for c = 0.185.
    with pytest.raises(EvalDomainError,
                       match=re.escape("log of non-positive value in 'log(t - 0.185)'")):
        constancy_fit(parse("log(t - 0.185)"), GRID)


def test_constancy_fit_matches_scalar_fit_with_integrals():
    b0, b1, b2 = parse("-2*exp(t^2)"), parse("t + sin(t)"), parse("1 + t")
    ib = integral_from(b1, 0.25)
    f = (-b0 / b2) * exp(Const(-2.0) * ib)
    grid_ = grid(0.25, 1.25, 101)
    value, dev = constancy_fit(f, grid_)
    want_value, want_dev = _scalar_constancy_fit(f, grid_)
    assert abs(value - want_value) <= 1e-12 * (1.0 + abs(want_value))
    assert abs(dev - want_dev) <= 1e-12


def test_a_point_where_a_fitted_expression_fails_fails_the_detector():
    # sin(t)/t divides by zero at t = 0, the first grid point.
    eq = RiccatiEquation.of(1, parse("sin(t)/t"), 1)
    reasons = {r.name: r.diagnostics["reason"] for r in classify(eq, GRID)}
    for name in ("AllenStein", "Ko06", "Zh99Basic", "RU68"):
        assert reasons[name] == "evaluation failed: division by zero in 'sin(t)/t'"


def test_detector_order_is_the_table_without_required_hints():
    names = [d.name for d in DETECTORS]
    assert len(set(names)) == len(names) == 15
    assert DETECTOR_ORDER == tuple(d.name for d in DETECTORS
                                   if d.hint != "required")
    assert names[:len(DETECTOR_ORDER)] == list(DETECTOR_ORDER)


# Per-point references for the detectors that sample on the grid.  Each
# evaluates the coefficients time by time in a fixed order, so the
# earliest time where b2 vanishes or an evaluation fails decides.

def _ref_ratio(eq, grid_, b0_first, sign):
    """Ra61 (b2 first, sign -1) and RU68 discovery (b0 first, sign +1):
    ("vanishes", t) or ("ratios", [sign*b0/b2 per time])."""
    ratios = []
    for t in grid_:
        if b0_first:
            b0v = evaluate(eq.b0, t)
        b2v = evaluate(eq.b2, t)
        if b2v == 0.0:
            return "vanishes", t
        if not b0_first:
            b0v = evaluate(eq.b0, t)
        ratios.append(sign * b0v / b2v)
    return "ratios", ratios


def _ref_rdm05(eq, grid_, tol):
    """The verified constant solutions (r, max_dev), larger root first."""
    A0, A1, A2 = eq.coefficients_at(grid_[len(grid_) // 2])
    scale = abs(A0) + abs(A1) + abs(A2) + 1.0
    candidates = []
    if abs(A2) > 1e-12 * scale:
        disc = A1 * A1 - 4.0 * A0 * A2
        if disc >= 0.0:
            rt = math.sqrt(disc)
            candidates = [(-A1 + rt) / (2.0 * A2), (-A1 - rt) / (2.0 * A2)]
    elif abs(A1) > 1e-12 * scale:
        candidates = [-A0 / A1]
    verified = []
    for r in sorted(set(candidates), reverse=True):
        worst = 0.0
        for t in grid_:
            c0, c1, c2 = eq.coefficients_at(t)
            worst = max(worst, abs(c0 + c1 * r + c2 * r * r) / (
                1.0 + abs(c0) + abs(c1 * r) + abs(c2 * r * r)))
        if worst <= tol:
            verified.append((r, worst))
    return verified


C25 = GRID[25]
PRECEDENCE_CASES = {
    # b2 vanishes at GRID[25], b0 fails from 0.5 on: the zero decides.
    "zero_before_failure": RiccatiEquation.of(parse("log(0.5 - t)"), 0, T - C25),
    # b0 fails from 0.2 on, before b2 vanishes: the failure decides.
    "failure_before_zero": RiccatiEquation.of(parse("log(0.2 - t)"), 0, T - C25),
    # Both at GRID[25]: Ra61 tests b2 before evaluating b0, RU68 after.
    "same_time": RiccatiEquation.of(ONE / (T - C25), 0, T - C25),
}


def _ratio_cases():
    cases = [(f"bundled{i}", p.equation, p.grid(), p.tol)
             for i, p in enumerate(bundled_problems())]
    return cases + [(k, eq, GRID, 1e-6) for k, eq in PRECEDENCE_CASES.items()]


@pytest.mark.parametrize("case", _ratio_cases(), ids=lambda c: c[0])
def test_ra61_and_ru68_sign_decisions_match_per_point_loop(case):
    _, eq, grid_, tol = case
    for check, b0_first, sign in ((check_ra61, False, -1.0),
                                  (lambda e, g, t: check_ru68(e, g, None, t),
                                   True, 1.0)):
        try:
            kind, value = _ref_ratio(eq, grid_, b0_first, sign)
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError, match=re.escape(str(exc))):
                check(eq, grid_, tol)
            continue
        report = check(eq, grid_, tol)
        reason = report.diagnostics.get("reason", "")
        if kind == "vanishes":
            assert reason == "b2 vanishes on the grid"
            assert report.diagnostics["at_t"] == value
        elif check is check_ra61:
            m = min(value)
            if m <= 0.0:
                assert report.diagnostics["failed"] == "-b0/b2"
                assert report.diagnostics["at_t"] == grid_[value.index(m)]
                assert report.diagnostics["min_value"] == pytest.approx(
                    m, rel=1e-14, abs=1e-300)
            else:
                assert "precondition" not in reason
        elif all(r > 0.0 for r in value) or all(r < 0.0 for r in value):
            assert "changes sign" not in reason
            if report.satisfied:
                assert report.constants["c"] == (1.0 if value[0] > 0.0 else -1.0)
        else:
            assert "changes sign" in reason


def test_b2_vanishing_before_a_later_failure_is_reported():
    eq = PRECEDENCE_CASES["zero_before_failure"]
    by_name = {r.name: r for r in classify(eq, GRID)}
    for name in ("Ra61", "RU68"):
        assert by_name[name].diagnostics == {
            "reason": "b2 vanishes on the grid", "at_t": C25}


def test_b2_over_b2_inside_b0_is_the_vanishing_test():
    # b0 holds the very node b2/b2 that Ra61 and RU68 test b2 with, so
    # where it divides by zero b2 vanishes, whether b0 or b2 comes first.
    b2 = T - 0.5
    eq = RiccatiEquation(b2 / b2 + 1.0, T, b2)
    by_name = {r.name: r for r in classify(eq, GRID)}
    for name in ("Ra61", "RU68"):
        assert by_name[name].diagnostics == {
            "reason": "b2 vanishes on the grid", "at_t": 0.5}
    assert by_name["Zh99Basic"].diagnostics == {
        "reason": "evaluation failed: division by zero in '(t - 0.5)/(t - 0.5)'"}


def _rdm05_cases():
    b1, b2 = parse("sin(3*t)"), parse("exp(t)")
    cases = [(f"bundled{i}", p.equation, p.grid(), p.tol)
             for i, p in enumerate(bundled_problems())]
    return cases + [
        # Constant solution 0.7, with rounding in the residual.
        ("planted", RiccatiEquation(-(0.7 * b1 + 0.49 * b2), b1, b2), GRID, 1e-6),
        # Real roots at the middle time that do not hold elsewhere.
        ("unverified", RiccatiEquation.of(parse("t - 1"), 0, 1), GRID, 1e-6),
        # Evaluable at the middle time, failing from 0.8 on.
        ("failure", RiccatiEquation.of(parse("log(0.8 - t)"), 1, 1), GRID, 1e-6),
    ]


@pytest.mark.parametrize("case", _rdm05_cases(), ids=lambda c: c[0])
def test_rdm05_roots_match_per_point_loop(case):
    _, eq, grid_, tol = case
    try:
        verified = _ref_rdm05(eq, grid_, tol)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError, match=re.escape(str(exc))):
            check_rdm05(eq, grid_, tol)
        return
    report = check_rdm05(eq, grid_, tol)
    chosen = next(((r, w) for r, w in verified if abs(r) > 1e-12), None)
    if chosen is None:
        assert not report.satisfied
        assert ("no real constant solution" in report.diagnostics["reason"]
                or "constant solution is zero" in report.diagnostics["reason"])
    else:
        assert report.constants["r"] == chosen[0]
        assert report.diagnostics["max_dev"] == pytest.approx(
            chosen[1], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("hinted", [True, False], ids=["hints", "no-hints"])
@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_unsatisfied_report_carries_a_reason(path, hinted):
    problem = load_problem(path)
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints if hinted else None)
    for r in reports:
        reason = r.diagnostics.get("reason")
        if r.satisfied:
            assert reason is None, r.name
        else:
            assert isinstance(reason, str) and reason, r.name


def _bits(traj):
    return traj.ts, np.array([float(x) for x in traj.xs]).tobytes()


def test_batched_solve_equals_one_point_calls():
    # Every usable reduction of the bundled problems, from their own
    # initial points, the point at infinity and 0.
    targets = set()
    for problem in bundled_problems():
        eq, span, step = problem.equation, problem.t_interval, problem.step
        x0s = [*problem.initial_conditions, "inf", 0.0]
        for r in classify(eq, problem.grid(), problem.tol, problem.hints):
            if not (r.satisfied and holds_on_solve_grid(r, eq, span, step)):
                continue
            batched = solve_via_report(r, x0s, span, step)
            assert len(batched) == len(x0s)
            for x0, traj in zip(x0s, batched):
                alone, = solve_via_report(r, [x0], span, step)
                assert _bits(traj) == _bits(alone), (r.name, x0)
            targets.add(type(r.target))
    assert targets == {OneDimensionalTarget, RiccatiEquation}


def test_batched_solve_raises_the_first_failing_points_error():
    # The report reduces x' = 2x.  The target keeps y = x0; pulling back
    # multiplies by e^(2t), which overflows for x0 = 1e308 before t = 0.3,
    # while "nan" fails as soon as it is read.  The first point to fail
    # decides.
    report = CriterionReport(
        "test", True, curve=CurveSL2(exp(-T), ZERO, ZERO, exp(T)),
        target=RiccatiEquation.of(0, 0, 0))
    overflow = "the image of 1e\\+308 under Mat2\\(.*\\) overflows"
    for x0s, error, message in (
            ([1e308, "nan"], OverflowError, overflow),
            ([0.5, 1e308, "nan"], OverflowError, overflow),
            ([0.5, "nan", 1e308], ValueError, "NaN is not a point")):
        with pytest.raises(error, match=message):
            solve_via_report(report, x0s, (0.0, 1.0), 1e-2)
    # A step all points share: the inverse curve cannot be evaluated past
    # t = 0.6, so the first point fails there, although "nan" is read
    # before that step.
    report = CriterionReport(
        "test", True, curve=CurveSL2(ONE, log(0.6 - T), ZERO, ONE),
        target=RiccatiEquation.of(0, 0, 0))
    for x0s in ([0.5], [0.5, 2.0], [0.5, "nan", 1.0]):
        with pytest.raises(EvalDomainError, match="log of non-positive value "
                           "in 'log\\(0.59999999999999998 - t\\)'"):
            solve_via_report(report, x0s, (0.0, 1.0), 1e-2)


@pytest.mark.parametrize("target", [
    RiccatiEquation.of(0, 0, 0),
    OneDimensionalTarget(1.0, 0.0, 1.0, ONE)], ids=["affine", "one-dimensional"])
def test_solve_without_initial_points_gives_no_trajectories(target):
    report = CriterionReport(
        "test", True, curve=CurveSL2(exp(-T), ZERO, ZERO, exp(T)), target=target)
    assert solve_via_report(report, [], (0.0, 1.0), 1e-2) == []
    assert len(solve_via_report(report, [0.5], (0.0, 1.0), 1e-2)) == 1
