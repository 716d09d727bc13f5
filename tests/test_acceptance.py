"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured deviation against its stated tolerance."""

import math
import random
import subprocess
import sys
from pathlib import Path

from conftest import grid, max_traj_dev, random_curve, random_equation, random_poly

from riccati_sl2 import (Const, CurveSL2, ExtReal, Mat2, ONE,
                         OneDimensionalTarget, RiccatiEquation, T, ZERO,
                         algebra_curve_from_riccati, compose, cross_ratio,
                         differentiate, evaluate, exp,
                         gauge_transform_algebra, integrate_direct,
                         integrate_group_equation, inverse, mobius_apply,
                         normalize_negative_determinant, parse,
                         reconstruct_solution, reduce_with_known_solution,
                         rhs, solve_autonomous, solve_bernoulli, solve_linear,
                         solve_separable, solve_with_two_solutions, sqrt,
                         superpose_three, theta_apply,
                         transform_coefficients)
from riccati_sl2.criteria import (check_allen_stein, check_ko06, check_ra61,
                                  check_rao_K, check_rao_W0, check_rdm05,
                                  check_ru68, check_zh99_E, check_zh99_basic,
                                  check_zh99_table, solve_via_report)

GRID = grid(0.0, 1.0, 101)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _report(number, description, worst, tolerance, extra=""):
    ok = worst <= tolerance
    status = "PASS" if ok else "FAIL"
    line = (f"acceptance {number:2d} [{status}] {description}: "
            f"max deviation {worst:.3g} (tolerance {tolerance:g})")
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def test_acceptance_01_group_pipeline():
    # Reconstruction through the group equation against the direct
    # integrator, 20 random coefficient triples on [0, 1].
    rng = random.Random(101)
    worst = 0.0
    worst_det = 0.0
    for _ in range(20):
        eq = random_equation(rng)
        x0 = rng.uniform(-0.8, 0.8)
        G = integrate_group_equation(algebra_curve_from_riccati(eq),
                                     (0.0, 1.0), 1e-3)
        worst_det = max(worst_det, max(abs(m.det() - 1.0) for m in G.mats))
        rec = reconstruct_solution(G, x0)
        direct = integrate_direct(eq, x0, (0.0, 1.0), 1e-3)
        worst = max(worst, max_traj_dev(rec.xs, direct.xs))
    assert worst_det <= 1e-9, f"determinant drift {worst_det:.3g}"
    _report(1, "group-equation pipeline vs direct oracle", worst, 1e-6,
            extra=f"det drift {worst_det:.2g}")


def test_acceptance_02_equivariance():
    # Theta maps oracle solutions onto oracle solutions of the
    # transformed equation, 20 random (equation, curve) pairs.
    rng = random.Random(202)
    worst = 0.0
    for _ in range(20):
        eq = random_equation(rng)
        c = random_curve(rng, 2, 4)
        x0 = ExtReal(rng.uniform(-0.5, 0.5))
        base = integrate_direct(eq, x0, (0.0, 1.0), 1e-3)
        eq2 = transform_coefficients(eq, c)
        image = integrate_direct(eq2, theta_apply(c, 0.0, x0), (0.0, 1.0), 1e-3)
        mapped = [theta_apply(c, t, x) for t, x in zip(base.ts, base.xs)]
        worst = max(worst, max_traj_dev(mapped, image.xs, min_frac=0.3))
    _report(2, "coefficient-law equivariance on solutions", worst, 1e-6)


def _coefficient_dev(e1, e2, ts):
    worst = 0.0
    for t in ts:
        for lhs, rhs_ in ((e1.b0, e2.b0), (e1.b1, e2.b1), (e1.b2, e2.b2)):
            lv, rv = evaluate(lhs, t), evaluate(rhs_, t)
            worst = max(worst, abs(lv - rv) / (1.0 + abs(lv) + abs(rv)))
    return worst


def test_acceptance_03_affine_action():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(20):
        eq = random_equation(rng)
        c1 = random_curve(rng, 1, 2)
        c2 = random_curve(rng, 1, 2)
        seq = transform_coefficients(transform_coefficients(eq, c1), c2)
        prod = transform_coefficients(eq, compose(c2, c1))
        worst = max(worst, _coefficient_dev(seq, prod, GRID))
    _report(3, "affine action: sequential equals product curve", worst, 1e-9)


def test_acceptance_04_gauge_consistency():
    rng = random.Random(404)
    worst = 0.0
    for _ in range(20):
        eq = random_equation(rng)
        c = random_curve(rng, 1, 3)
        g1 = gauge_transform_algebra(algebra_curve_from_riccati(eq), c)
        g2 = algebra_curve_from_riccati(transform_coefficients(eq, c))
        for t in GRID:
            for lhs, rhs_ in ((g1.b0, g2.b0), (g1.b1, g2.b1), (g1.b2, g2.b2)):
                lv, rv = evaluate(lhs, t), evaluate(rhs_, t)
                worst = max(worst, abs(lv - rv) / (1.0 + abs(lv) + abs(rv)))
    _report(4, "gauge law consistent with coefficient law", worst, 1e-9)


def _planted_pair(rng):
    x1 = random_poly(rng, degree=1, scale=0.5)
    x2 = x1 + (1.0 + 0.25 * T ** 2)
    b2 = random_poly(rng, degree=1, scale=0.5)
    b1 = (differentiate(x1) - differentiate(x2)) / (x1 - x2) - b2 * (x1 + x2)
    b0 = differentiate(x1) - b1 * x1 - b2 * x1 ** 2
    return RiccatiEquation(b0, b1, b2), x1, x2


def test_acceptance_05_superposition():
    rng = random.Random(505)
    worst_cr = 0.0
    worst_res = 0.0
    for _ in range(5):
        eq, x1, x2 = _planted_pair(rng)
        # Cross-ratio constancy along three oracle solutions plus a probe.
        v1 = evaluate(x1, 0.0)
        v2 = evaluate(x2, 0.0)
        ics = [v1 + f * (v2 - v1) for f in (0.15, 0.35, 0.6, 0.85)]
        trajs = [integrate_direct(eq, x0, (0.0, 1.0), 1e-3) for x0 in ics]
        ratios = []
        for i in range(len(trajs[0].ts)):
            cr = cross_ratio(trajs[0].xs[i], trajs[1].xs[i],
                             trajs[2].xs[i], trajs[3].xs[i])
            if not cr.is_inf:
                ratios.append(cr.value)
        assert len(ratios) > len(trajs[0].ts) // 2
        mid = sorted(ratios)[len(ratios) // 2]
        worst_cr = max(worst_cr,
                       max(abs(v - mid) for v in ratios) / (1.0 + abs(mid)))
        # Third symbolic solution by one quadrature, then the
        # quadrature-free fourth from the superposition formula.
        x3 = solve_with_two_solutions(
            eq, x1, x2, v1 + 0.5 * (v2 - v1), GRID).expression
        x4 = superpose_three(x1, x2, x3, 0.7, GRID)
        dx4 = differentiate(x4)
        checked = 0
        for t in GRID:
            try:
                v = evaluate(x4, t)
            except Exception:
                continue
            if abs(v) > 10.0:
                continue
            checked += 1
            worst_res = max(worst_res, abs(evaluate(dx4, t) - rhs(eq, t, v)))
        assert checked > len(GRID) // 2
    assert worst_res <= 1e-7, f"superposition residual {worst_res:.3g}"
    _report(5, "superposition: cross-ratio constancy", worst_cr, 1e-6,
            extra=f"fourth-solution residual {worst_res:.2g}")


def test_acceptance_06_quadrature_solvers():
    worst = 0.0

    def dev_vs_oracle(form, eq, x0, span, step=1e-3):
        oracle = integrate_direct(eq, x0, span, step)
        return max_traj_dev([form.at(t) for t in oracle.ts], oracle.xs)

    # linear, two quadratures
    eq = RiccatiEquation.of(T, 1, 0)
    form = solve_linear(eq, 0.0, GRID)
    worst = max(worst, abs(form.at(1.0).value - (math.e - 2.0)))
    worst = max(worst, dev_vs_oracle(form, eq, 0.0, (0.0, 1.0)))
    # Bernoulli
    eq = RiccatiEquation.of(0, 1, 1)
    form = solve_bernoulli(eq, 1.0, grid(0.0, 0.5, 51))
    worst = max(worst, dev_vs_oracle(form, eq, 1.0, (0.0, 0.5)))
    # one known solution
    eq = RiccatiEquation.of(1, 0, -1)
    form = reduce_with_known_solution(eq, ONE, 0.0, GRID)
    worst = max(worst, max(abs(form.at(t).value - math.tanh(t)) for t in GRID))
    # two known solutions
    form = solve_with_two_solutions(eq, ONE, Const(-1.0), 0.0, GRID)
    worst = max(worst, max(abs(form.at(t).value - math.tanh(t)) for t in GRID))
    # autonomous, all three discriminant regimes
    form = solve_autonomous(1.0, 0.0, -1.0, 0.0)      # two real roots
    worst = max(worst, dev_vs_oracle(form, eq, 0.0, (0.0, 2.0)))
    eqd = RiccatiEquation.of(0, 0, 1)                 # double root
    form = solve_autonomous(0.0, 0.0, 1.0, 1.0)
    worst = max(worst, dev_vs_oracle(form, eqd, 1.0, (0.0, 2.0)))
    eqt = RiccatiEquation.of(1, 0, 1)                 # negative discriminant
    form = solve_autonomous(1.0, 0.0, 1.0, 0.0)
    dev_tan = dev_vs_oracle(form, eqt, 0.0, (0.0, 3.0))
    worst = max(worst, dev_tan)
    # its oracle really crossed infinity between the compared stretches
    oracle = integrate_direct(eqt, 0.0, (0.0, 3.0), 1e-3)
    assert any(x.is_inf or abs(x.value) > 50 for x in oracle.xs)
    # separable
    eqs = RiccatiEquation.of(parse("cos(t)"), 0, parse("-cos(t)"))
    form = solve_separable(parse("cos(t)"), 1.0, 0.0, -1.0, 0.0)
    worst = max(worst, dev_vs_oracle(form, eqs, 0.0, (0.0, 6.0), step=2e-3))
    _report(6, "quadrature solvers vs oracle (incl. tangent crossing)",
            worst, 1e-6)


def _detector_instances():
    """Planted instance per detector: equation, runner, expected
    constants, and the pullback window."""
    out = []

    v = parse("1 + t^2")
    b1 = 0.5 * v - differentiate(v) / v
    b0 = v * v - differentiate(b1)
    out.append(("RaoK", RiccatiEquation(b0, b1, ONE),
                lambda eq, g: check_rao_K(eq, g), {"K": 0.5}, (0.0, 1.0)))

    out.append(("RaoW0",
                RiccatiEquation.of(parse("exp(-t)"), 1, parse("exp(t)")),
                lambda eq, g: check_rao_W0(eq, g), {}, (0.0, 1.0)))

    b0 = parse("exp(2*t)")
    b1 = 0.5 * exp(T) + 1.0  # C = 0.5 against b0 = e^{2t}, b2 = 1
    out.append(("AllenStein", RiccatiEquation(b0, b1, ONE),
                lambda eq, g: check_allen_stein(eq, g), {"C": 0.5}, (0.0, 0.7)))

    out.append(("Ko06",
                RiccatiEquation.of(parse("exp(t)"), 4, parse("-2*exp(-t)")),
                lambda eq, g: check_ko06(eq, g), {"c1": 2.0, "c2": 3.0},
                (0.0, 0.6)))

    out.append(("Ra61", RiccatiEquation.of(parse("-2.5*exp(2*t)"), 1, 1),
                lambda eq, g: check_ra61(eq, g), {"a": 2.5}, (0.0, 0.6)))

    out.append(("RDM05", RiccatiEquation.of(1, T, parse("2*t - 4")),
                lambda eq, g: check_rdm05(eq, g), {"k": 2.0, "r": -0.5},
                (0.0, 1.0)))

    out.append(("Zh99Basic",
                RiccatiEquation.of(parse("exp(t)"), parse("0.5*exp(t)"),
                                   parse("exp(t)")),
                lambda eq, g: check_zh99_basic(eq, g),
                {"a": 1.0, "b": 0.5, "c": 1.0}, (0.0, 0.5)))

    out.append(("RU68",
                RiccatiEquation.of(parse("exp(t)"), 2, parse("0.5*exp(-t)")),
                lambda eq, g: check_ru68(
                    eq, g, hint={"v": parse("exp(t)"), "c": 2.0, "k": 1.0}),
                {"c": 2.0, "k": 1.0}, (0.0, 1.0)))

    out.append(("Zh99E",
                RiccatiEquation.of(parse("2 - t + t^2"), parse("1 - 2*t"), 1),
                lambda eq, g: check_zh99_E(
                    eq, g, {"E": T, "D": ONE, "a": 1.0, "b": 1.0, "c": 1.0}),
                {"a": 1.0, "b": 1.0, "c": 1.0}, (0.0, 1.0)))

    def dlog(e):
        return differentiate(e) / e

    # Table row 1.
    eq1 = RiccatiEquation(parse("exp(2*t)"), 1.0 + exp(T), ONE)
    out.append(("Zh99Table1", eq1,
                lambda eq, g: check_zh99_table(
                    eq, g, 1, {"D": exp(T), "a": 1.0, "b": 1.0, "c": 1.0}),
                {"a": 1.0, "b": 1.0, "c": 1.0}, (0.0, 0.5)))

    # Rows 2-4: conditions solved for b1, b0 with D = 1 + t/2, E = t.
    for row in (2, 3, 4):
        D = 1.0 + 0.5 * T
        E = T
        b2 = ONE
        lam = D ** 2
        if row == 2:
            b1 = dlog(lam) - 2.0 * E * b2 - (dlog(D) + 0.5 * D)
        elif row == 3:
            b1 = dlog(D) - 0.5 * D - 2.0 * E * b2
        else:
            b1 = dlog(lam) - 2.0 * E * b2 - (dlog(D) - 0.5 * D)
        b0 = lam + differentiate(E) - b2 * E ** 2 - b1 * E
        eq_row = RiccatiEquation(b0, b1, b2)
        hint = {"E": E, "D": D, "a": 1.0, "b": 0.5, "c": 1.0}
        out.append((f"Zh99Table{row}", eq_row,
                    lambda eq, g, r=row, h=hint: check_zh99_table(eq, g, r, h),
                    {"a": 1.0, "b": 0.5, "c": 1.0}, (0.0, 1.0)))

    # Rows 5-6: built by reversing the printed curve.
    u = 1.0 + 0.5 * T
    E = T
    D = ONE
    lam = 1.0 + T ** 2
    S = sqrt(lam)
    g5 = ONE / S
    curve5 = CurveSL2(-(S * u), S * (1.0 + E * u), -g5, g5 * E)
    target_eq = RiccatiEquation(ONE, ONE, ONE)  # D*(c + b y + a y^2), all 1
    eq5 = transform_coefficients(target_eq, inverse(curve5))
    hint56 = {"A": ONE, "B": u, "E": E, "D": D, "a": 1.0, "b": 1.0, "c": 1.0}
    out.append(("Zh99Table5", eq5,
                lambda eq, g: check_zh99_table(eq, g, 5, hint56),
                {"a": 1.0, "b": 1.0, "c": 1.0}, (0.0, 0.6)))

    R = ONE / sqrt(lam)
    V = sqrt(lam)
    curve6 = CurveSL2(-R, R * ((1.0 + u * E) * (1.0 / u)), -(u * V), u * E * V)
    eq6 = transform_coefficients(target_eq, inverse(curve6))
    out.append(("Zh99Table6", eq6,
                lambda eq, g: check_zh99_table(eq, g, 6, hint56),
                {"a": 1.0, "b": 1.0, "c": 1.0}, (0.0, 0.6)))
    return out


def test_acceptance_07_detectors():
    worst_const = 0.0
    worst_curve = 0.0
    worst_end = 0.0
    for name, eq, run, expected, span in _detector_instances():
        rep = run(eq, GRID)
        assert rep.satisfied, f"{name}: {rep.diagnostics}"
        for key, want in expected.items():
            err = abs(rep.constants[key] - want)
            assert err <= 1e-9, f"{name}: constant {key} off by {err:.3g}"
            worst_const = max(worst_const, err)
        # The reported curve must reproduce the reported target through
        # the coefficient law (recomputed here, not read from diagnostics).
        teq = (rep.target.equation() if isinstance(rep.target, OneDimensionalTarget)
               else rep.target.equation)
        worst_curve = max(worst_curve, _coefficient_dev(
            transform_coefficients(eq, rep.curve), teq, GRID[::5]))
        # Pulled-back solution against the oracle.
        reduced = solve_via_report(eq, rep, [0.2], span, 2e-3)[0]
        oracle = integrate_direct(eq, 0.2, span, 2e-3)
        worst_end = max(worst_end, max_traj_dev(reduced.xs, oracle.xs))
    assert worst_curve <= 1e-8, f"curve/target residual {worst_curve:.3g}"
    assert worst_end <= 1e-6, f"pullback deviation {worst_end:.3g}"
    _report(7, "all detectors on planted instances", worst_const, 1e-9,
            extra=f"curve residual {worst_curve:.2g}, pullback {worst_end:.2g}")


def test_acceptance_08_negative_determinant():
    cosh = (exp(T) + exp(-T)) / 2.0
    sinh = (exp(T) - exp(-T)) / 2.0
    cases = [
        (Const(-1.0), ZERO, ZERO, ONE),
        (ZERO, ONE, ONE, ZERO),
        (-exp(T), ZERO, ZERO, exp(-T)),
        (ONE, T, T, T ** 2 - 1.0),
        (-cosh, -sinh, sinh, cosh),
    ]
    worst = 0.0
    ys = (0.4, -0.9, 2.2)
    for entries in cases:
        pre_flip, c = normalize_negative_determinant(entries, GRID)
        assert pre_flip
        for t in GRID[::10]:
            m_in = Mat2(*(evaluate(e, t) for e in entries))
            m_c = c.matrix_at(t)
            for y in ys:
                h = mobius_apply(m_in, ExtReal(y))
                via = mobius_apply(m_c, ExtReal(-y))
                if h.is_inf or via.is_inf:
                    assert h.is_inf and via.is_inf
                    continue
                if abs(h.value) > 1e6:
                    continue
                worst = max(worst, abs(h.value - via.value))
    _report(8, "negative-determinant flip factorization", worst, 1e-12)


def test_acceptance_09_convergence_order():
    # Direct integrator against the tanh closed form.
    eq = RiccatiEquation.of(1, 0, -1)
    errs = []
    for h in (2e-2, 1e-2):
        traj = integrate_direct(eq, 0.0, (0.0, 2.0), h)
        errs.append(abs(traj.xs[-1].value - math.tanh(2.0)))
    ratio_direct = errs[0] / errs[1]
    # Group integrator against the rotation closed form.
    a = algebra_curve_from_riccati(RiccatiEquation.of(1, 0, 1))
    errs_g = []
    for h in (2e-2, 1e-2):
        G = integrate_group_equation(a, (0.0, 2.0), h)
        m = G.mats[-1]
        ref = Mat2(math.cos(2.0), math.sin(2.0), -math.sin(2.0), math.cos(2.0))
        errs_g.append(max(abs(m.a11 - ref.a11), abs(m.a12 - ref.a12),
                          abs(m.a21 - ref.a21), abs(m.a22 - ref.a22)))
    ratio_group = errs_g[0] / errs_g[1]
    ok = 12.0 <= ratio_direct <= 20.0 and 12.0 <= ratio_group <= 20.0
    status = "PASS" if ok else "FAIL"
    print(f"acceptance  9 [{status}] fourth-order convergence: "
          f"halving ratios {ratio_direct:.2f} (direct), "
          f"{ratio_group:.2f} (group) within [12, 20]")
    assert ok


def test_acceptance_10_cli_determinism(tmp_path):
    identical = True
    for problem in ("tanh.json", "zh99e.json"):
        outputs = []
        for run in (0, 1):
            outdir = tmp_path / f"{problem}.{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "riccati_sl2", "solve",
                 str(PROBLEMS / problem), "--output", str(outdir),
                 "--step", "0.01"],
                capture_output=True, check=True)
            csvs = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            outputs.append((proc.stdout, csvs))
        identical = identical and outputs[0] == outputs[1]
    status = "PASS" if identical else "FAIL"
    print(f"acceptance 10 [{status}] CLI output byte-identical across runs")
    assert identical
