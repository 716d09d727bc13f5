import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (RK4_EXAMPLES, bundled_problems, reference_stage_samples,
                      rk4_cases, scalar_function, traj_vs_fn)

import riccati_sl2.riccati as riccati_module
from riccati_sl2 import (EvalDomainError, ExtReal, INF, QuadratureError,
                         RiccatiEquation, Trajectory, classify, ext, integrate_direct,
                         integrate_group_equation, parse, points,
                         reconstruct_solution, rhs, session, solve_via_report,
                         time_grid, transform_coefficients)
from riccati_sl2.cli import load_problem
from riccati_sl2.criteria import holds_on_solve_grid
from riccati_sl2.riccati import _emit, csv_texts


def test_a_sampling_that_fails_is_not_kept():
    # Each direct run computes the stage values again and truncates with
    # the same error; the group run raises it.
    eq = RiccatiEquation(parse("1"), parse("log(0.5 - t)"), parse("0"))
    with session() as s:
        trajs = [integrate_direct(eq, x0, (0.0, 1.0), 0.01) for x0 in (0.0, 0.5, -0.5)]
        with pytest.raises(EvalDomainError, match="log of non-positive value"):
            integrate_group_equation(eq, (0.0, 1.0), 0.01)
    assert s.grids == {}
    assert s.counts()["expr.evaluate_grid.subtrees_reused"] == 0
    for traj in trajs:
        assert traj.error == "log of non-positive value in 'log(0.5 - t)'"
        assert len(traj) == 50 and traj.ts[-1] == pytest.approx(0.49)


def test_a_kept_sampling_gives_the_same_trajectories():
    eq = RiccatiEquation(parse("1 + t"), parse("sin(3*t)"), parse("2 - t^2"))
    fresh = [integrate_direct(eq, x0, (0.0, 2.0), 1e-3) for x0 in (0.0, 2.0, -3.0)]
    with session() as s:
        kept = [integrate_direct(eq, 0.0, (0.0, 2.0), 1e-3)]
        computed = s.counts()["expr.evaluate_grid.subtrees_computed"]
        kept += [integrate_direct(eq, x0, (0.0, 2.0), 1e-3) for x0 in (2.0, -3.0)]
        group = integrate_group_equation(eq, (0.0, 2.0), 1e-3)
    assert s.counts()["expr.evaluate_grid.subtrees_computed"] == computed
    assert all(len(a.chart_switches) > 0 for a in fresh)
    for a, b in zip(fresh, kept):
        assert (a.ts, a.values.tobytes(), a.chart_switches, a.error) == (
            b.ts, b.values.tobytes(), b.chart_switches, b.error)
    assert group.values.tobytes() == integrate_group_equation(
        eq, (0.0, 2.0), 1e-3).values.tobytes()


@pytest.mark.parametrize("b0, b1, b2, kept", [
    ("1 + t", "cos(t)/(1 + t)", "-t", True),
    # A deferred integral's value runs on from block to block: nothing kept.
    ("1", "integral(cos(t))", "-t", False),
    # The first block fails at t = 0.5: nothing kept.
    ("1", "log(0.5 - t)", "t", False)])
def test_repeated_rk4_runs_in_a_session_match_sessionless_runs(b0, b1, b2, kept):
    eq = RiccatiEquation(parse(b0), parse(b1), parse(b2))
    span, step = (0.0, 2.0), 1e-3

    def runs(after_each):
        out = []
        for x0 in (0.0, 0.5, -2.0):
            a = integrate_direct(eq, x0, span, step)
            out.append((a.ts, a.values.tobytes(), a.chart_switches, a.error))
            after_each()
        try:
            group = integrate_group_equation(eq, span, step)
            out.append((group.ts, group.values.tobytes()))
        except EvalDomainError as exc:
            out.append(str(exc))
        after_each()
        return out

    fresh = runs(lambda: None)
    with session() as s:
        computed = [0]
        shared = runs(lambda: computed.append(
            s.counts()["expr.evaluate_grid.subtrees_computed"]))
    assert shared == fresh
    first, *later = np.diff(computed).tolist()
    assert first > 0 and later == ([0] * 3 if kept else [first] * 3)
def test_rhs_values():
    assert rhs(RiccatiEquation.of(1, 0, 0), 0.3, 7.0) == 1.0
    assert rhs(RiccatiEquation.of(0, 1, 0), 0.0, 3.0) == 3.0
    assert rhs(RiccatiEquation.of(1, 2, 3), 0.0, 2.0) == 17.0


def test_constant_rhs_zero():
    traj = integrate_direct(RiccatiEquation.of(0, 0, 0), 5.0, (0.0, 1.0), 1e-2)
    assert all(x == ExtReal(5.0) for x in traj.xs)


def test_tanh_closed_form():
    eq = RiccatiEquation.of(1, 0, -1)
    traj = integrate_direct(eq, 0.0, (0.0, 2.0), 1e-3)
    assert abs(traj.xs[-1].value - math.tanh(2.0)) <= 1e-8
    assert traj_vs_fn(traj, math.tanh) <= 1e-8


def test_blowup_continues_through_infinity():
    # dx/dt = x^2 from 1: x = 1/(1-t), crosses infinity at t = 1.
    eq = RiccatiEquation.of(0, 0, 1)
    traj = integrate_direct(eq, 1.0, (0.0, 2.0), 1e-3)
    at_one = traj.xs[1000]
    assert at_one.is_inf
    assert abs(traj.xs[-1].value - (-1.0)) <= 1e-6
    assert traj.chart_switches  # switched to the inverse chart early on


def test_infinity_initial_condition():
    # From infinity, dx/dt = x^2 comes back along 1/(1-t) shifted: w' = 1.
    eq = RiccatiEquation.of(0, 0, 1)
    traj = integrate_direct(eq, INF, (0.0, 1.0), 1e-3)
    assert traj.xs[0].is_inf
    # w(t) = t so x = -1/t
    assert abs(traj.xs[-1].value - (-1.0)) <= 1e-9


def test_chart_consistency():
    # Integrating the w-chart image directly must match -1/x pointwise.
    eq = RiccatiEquation.of(0, 0, 1)
    eq_w = RiccatiEquation.of(1, 0, 0)  # dw/dt = b0 w^2 - b1 w + b2 for (0,0,1)
    tx = integrate_direct(eq, 1.0, (0.0, 2.0), 1e-3)
    tw = integrate_direct(eq_w, -1.0, (0.0, 2.0), 1e-3)
    for x, w in zip(tx.xs, tw.xs):
        if x.is_inf or w.is_inf:
            continue
        if abs(w.value) < 1e-3 or abs(x.value) > 1e3:
            continue
        assert abs(x.value - (-1.0 / w.value)) <= 1e-6


def test_convergence_order():
    eq = RiccatiEquation.of(1, 0, -1)
    errs = []
    for h in (2e-2, 1e-2):
        traj = integrate_direct(eq, 0.0, (0.0, 2.0), h)
        errs.append(abs(traj.xs[-1].value - math.tanh(2.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_domain_error_truncates():
    eq = RiccatiEquation(parse("log(1 - t)"), parse("0"), parse("0"))
    traj = integrate_direct(eq, 0.0, (0.0, 2.0), 1e-2)
    assert traj.error is not None
    assert traj.ts[-1] < 2.0


def test_csv_serialization():
    eq = RiccatiEquation.of(0, 0, 1)
    traj = integrate_direct(eq, 1.0, (0.0, 2.0), 0.5)
    text = csv_texts([traj])[0]
    lines = text.strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == len(traj) + 1
    assert any(",inf" in line for line in lines) or True  # inf only when sampled


# The formatter over points that csv_texts replaced, kept as the
# reference for the float formatter.

def _reference_csv_text(traj):
    lines = ["t,x"]
    for t, x in zip(traj.ts, traj.xs):
        lines.append(f"{t:.17g},{x}")
    return "\n".join(lines) + "\n"


def test_csv_text_matches_the_point_formatter():
    values = [math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, -0.1, -2.5, 1.0 / 3.0, 1e22, -7.0]
    traj = Trajectory([0.25 * i for i in range(len(values))], np.array(values))
    text = csv_texts([traj])[0]
    assert text == _reference_csv_text(traj)
    assert ",inf\n" in text and ",-0\n" in text
    blowup = integrate_direct(RiccatiEquation.of(0, 0, 1), 1.0, (0.0, 2.0), 1e-3)
    assert blowup.xs[1000].is_inf
    assert csv_texts([blowup]) == [_reference_csv_text(blowup)]


def test_csv_texts_share_times_only_along_a_prefix():
    eq = RiccatiEquation.of(0, 0, 1)
    full = integrate_direct(eq, 0.1, (0.0, 2.0), 1e-2)
    cut = integrate_direct(RiccatiEquation.of(parse("sqrt(1.5 - t)"), 0, 0),
                           0.1, (0.0, 2.0), 1e-2)
    shifted = integrate_direct(eq, 0.1, (0.5, 1.5), 1e-2)
    assert cut.error is not None and len(cut) < len(full)
    trajs = [cut, full, shifted]
    assert csv_texts(trajs) == [_reference_csv_text(t) for t in trajs]


def _assert_points(traj):
    """The invariant ExtReal enforces on each point: every value is
    finite or +inf, and xs reads the values as points."""
    v = traj.values
    assert isinstance(v, np.ndarray) and v.dtype == np.float64
    assert v.shape == (len(traj),)
    assert np.all(np.isfinite(v) | (v == math.inf))
    assert traj.xs == points(v)
    assert traj.xs is traj.xs  # built once, not on every index
    return bool(np.isinf(v).any())


def test_trajectory_values_are_points_on_bundled_problems():
    seen_inf = False
    for problem in bundled_problems():
        eq, span, step = problem.equation, problem.t_interval, problem.step
        x0s = [*problem.initial_conditions, INF]
        G = integrate_group_equation(eq, span, step)
        for x0 in x0s:
            seen_inf |= _assert_points(integrate_direct(eq, x0, span, step))
            seen_inf |= _assert_points(reconstruct_solution(G, x0))
        for r in classify(eq, problem.grid(), problem.tol, problem.hints):
            if r.satisfied and holds_on_solve_grid(r, eq, span, step):
                for traj in solve_via_report(r, x0s, span, step):
                    seen_inf |= _assert_points(traj)
    assert seen_inf


def test_step_validation():
    eq = RiccatiEquation.of(0, 0, 0)
    with pytest.raises(ValueError):
        integrate_direct(eq, 0.0, (0.0, 1.0), -1e-3)
    with pytest.raises(ValueError):
        integrate_direct(eq, 0.0, (1.0, 0.0), 1e-3)


# The integrator on grid-sampled coefficients against the scalar tree
# walk it replaced, kept here as the reference.

def _reference_integrate(eq, x0, t_span, step):
    """Fixed-step RK4 evaluating the coefficient trees at every stage."""
    grid, h = time_grid(t_span, step)
    x0 = ext(x0)
    if x0.is_inf:
        chart, u = "w", 0.0
    elif abs(x0.value) > 1.0:
        chart, u = "w", -1.0 / x0.value
    else:
        chart, u = "x", x0.value
    b0e, b1e, b2e = map(scalar_function, (eq.b0, eq.b1, eq.b2))

    def f(t, v, ch):
        b0, b1, b2 = b0e(t), b1e(t), b2e(t)
        if ch == "x":
            return b0 + v * (b1 + v * b2)
        return b2 + v * (-b1 + v * b0)

    ts = [grid[0]]
    xs = [_emit(chart, u)]
    switches = []
    error = None
    for t, t_next in zip(grid, grid[1:]):
        try:
            k1 = f(t, u, chart)
            k2 = f(t + 0.5 * h, u + 0.5 * h * k1, chart)
            k3 = f(t + 0.5 * h, u + 0.5 * h * k2, chart)
            k4 = f(t + h, u + h * k3, chart)
        except (EvalDomainError, QuadratureError, OverflowError) as exc:
            error = str(exc)
            break
        u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(u):
            error = f"state became non-finite at t={t_next:.6g}"
            break
        if abs(u) > 1.0:
            new_chart = "w" if chart == "x" else "x"
            switches.append((t_next, chart, new_chart))
            u = -1.0 / u
            chart = new_chart
        ts.append(t_next)
        xs.append(_emit(chart, u))
    return Trajectory(ts, xs, chart_switches=switches, error=error)


def _chart_value(x):
    """The integrator's state for a sample: x where |x| <= 1, else
    w = -1/x (0 at infinity)."""
    if x.is_inf:
        return 0.0
    return x.value if abs(x.value) <= 1.0 else -1.0 / x.value


def _assert_matches_reference(eq, x0, t_span, step):
    got = integrate_direct(eq, x0, t_span, step)
    want = _reference_integrate(eq, x0, t_span, step)
    assert got.ts == want.ts
    assert got.error == want.error
    assert got.chart_switches == want.chart_switches
    for a, b in zip(got.xs, want.xs):
        u, v = _chart_value(a), _chart_value(b)
        assert abs(u - v) <= 1e-12 * (1.0 + max(abs(u), abs(v)))
    return got


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.mark.parametrize("name", ["autonomous", "generic", "table_row4",
                                  "tanh", "zh99e"])
def test_matches_scalar_reference_on_bundled_problems(name):
    problem = load_problem(PROBLEMS / f"{name}.json")
    for x0 in problem.initial_conditions:
        _assert_matches_reference(problem.equation, x0, problem.t_interval,
                                  problem.step)


def test_matches_scalar_reference_on_transformed_equation():
    problem = load_problem(PROBLEMS / "table_row4.json")
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints)
    row = next(r for r in reports if r.name == "Zh99Table4")
    tr = transform_coefficients(problem.equation, row.curve)
    for x0 in (0.0, 0.7, -3.0):
        _assert_matches_reference(tr, x0, problem.t_interval, 1e-2)


def test_matches_scalar_reference_from_the_w_chart():
    eq = RiccatiEquation(parse("1 + t"), parse("sin(3*t)"), parse("2 - t^2"))
    for x0 in (INF, 4.0, -1.5):
        traj = _assert_matches_reference(eq, x0, (0.0, 2.0), 1e-3)
        assert traj.chart_switches


def test_matches_scalar_reference_with_integral_coefficients():
    eq = RiccatiEquation(parse("exp(-integral(t*cos(t)))"),
                         parse("integral(1/(1 + t^2))"), parse("-1 - t"))
    for x0 in (0.0, 0.5, INF):
        _assert_matches_reference(eq, x0, (0.0, 1.5), 1e-3)
        _assert_matches_reference(eq, x0, (0.25, 1.5), 1e-3)


@pytest.mark.parametrize("b1", ["log(0.5 - t)", "sqrt(cos(20*t) + 0.9999)"])
def test_truncation_matches_scalar_reference(b1):
    eq = RiccatiEquation(parse("1"), parse(b1), parse("-1"))
    for x0 in (0.0, 0.5, -0.5, 0.2):
        traj = _assert_matches_reference(eq, x0, (0.0, 1.0), 1e-3)
        assert traj.error is not None and traj.ts[-1] < 0.5


def test_blocks_leave_the_trajectory_bit_identical(monkeypatch):
    eq = RiccatiEquation(parse("1 + integral(cos(2*t)*integral(t))"),
                         parse("sin(t)"), parse("2 - t"))
    whole = integrate_direct(eq, 0.3, (0.0, 2.0), 1e-3)
    group = integrate_group_equation(eq, (0.0, 2.0), 1e-3)
    assert whole.chart_switches
    monkeypatch.setattr(riccati_module, "_BLOCK_STEPS", 7)
    blocked = integrate_direct(eq, 0.3, (0.0, 2.0), 1e-3)
    assert (blocked.ts, blocked.xs, blocked.chart_switches, blocked.error) == (
        whole.ts, whole.xs, whole.chart_switches, whole.error)
    assert integrate_group_equation(eq, (0.0, 2.0), 1e-3).mats == group.mats


def test_truncation_in_a_later_block(monkeypatch):
    eq = RiccatiEquation(parse("1"), parse("log(0.5 - t)"), parse("-1"))
    want = _reference_integrate(eq, 0.0, (0.0, 1.0), 1e-3)
    monkeypatch.setattr(riccati_module, "_BLOCK_STEPS", 64)
    got = integrate_direct(eq, 0.0, (0.0, 1.0), 1e-3)
    assert (got.ts[-1], got.error) == (want.ts[-1], want.error)
    with pytest.raises(EvalDomainError) as err:
        integrate_group_equation(eq, (0.0, 1.0), 1e-3)
    assert str(err.value) == want.error


# The direct RK4 as an index loop over the stage samples, kept as the
# reference for the zipped loop that replaced it: the same float
# operations in the same order.

def _index_integrate_direct(eq, x0, t_span, step):
    grid, h = time_grid(t_span, step)
    x0 = ext(x0)
    if x0.is_inf:
        chart, u = "w", 0.0
    elif abs(x0.value) > 1.0:
        chart, u = "w", -1.0 / x0.value
    else:
        chart, u = "x", x0.value
    ts = [grid[0]]
    xs = [_emit(chart, u)]
    switches = []
    error = None
    for b0, b1, b2, steps, failure in reference_stage_samples(
            (eq.b0, eq.b1, eq.b2), grid, h):
        charts = {"x": (b0, b1, b2), "w": (b2, [-v for v in b1], b0)}
        p, q, r = charts[chart]
        for i in range(0, 2 * steps, 2):
            k1 = p[i] + u * (q[i] + u * r[i])
            v = u + 0.5 * h * k1
            k2 = p[i + 1] + v * (q[i + 1] + v * r[i + 1])
            v = u + 0.5 * h * k2
            k3 = p[i + 1] + v * (q[i + 1] + v * r[i + 1])
            v = u + h * k3
            k4 = p[i + 2] + v * (q[i + 2] + v * r[i + 2])
            u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t_next = grid[len(ts)]
            if not math.isfinite(u):
                error = f"state became non-finite at t={t_next:.6g}"
                break
            if abs(u) > 1.0:
                new_chart = "w" if chart == "x" else "x"
                switches.append((t_next, chart, new_chart))
                u = -1.0 / u
                chart, (p, q, r) = new_chart, charts[new_chart]
            ts.append(t_next)
            xs.append(_emit(chart, u))
        if error is not None or failure is not None:
            error = error or str(failure)
            break
    return Trajectory(ts, np.array(xs), chart_switches=switches, error=error)


_X0S = st.sampled_from([0.0, 1.0, -1.0, 1e6, -1e6, INF, 0.5, -3.0])


@settings(max_examples=60)
@given(case=rk4_cases(), x0=_X0S)
@example(case=RK4_EXAMPLES[0], x0=-1.0)
@example(case=RK4_EXAMPLES[1], x0=1.0)
@example(case=RK4_EXAMPLES[2], x0=0.5)
@example(case=RK4_EXAMPLES[3], x0=-1e6)
@example(case=RK4_EXAMPLES[4], x0=INF)
def test_direct_rk4_is_the_index_loop_bit_for_bit(case, x0):
    eq, t_span, step = case
    got = integrate_direct(eq, x0, t_span, step)
    want = _index_integrate_direct(eq, x0, t_span, step)
    assert got.ts == want.ts
    assert got.values.tobytes() == want.values.tobytes()
    assert got.chart_switches == want.chart_switches
    assert got.error == want.error
