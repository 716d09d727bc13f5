import gc
import math
import random
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PLAIN_TREES, TREE_LEAVES, scalar_evaluator, tree_operations

import riccati_sl2.expr as expr_module
from riccati_sl2 import (ONE, ZERO, Add, Call, Const, Div, EvalDomainError,
                         Integral, Mul, Neg, ParseError, Pow, QuadratureError,
                         SolutionForm, Sub, T, Var, arctan, as_expr, classify,
                         cos, differentiate, evaluate, evaluate_grid, exp,
                         integral, integral_from, log, parse, session, sin,
                         sqrt, substitute, tanh, transform_coefficients)
from riccati_sl2.cli import load_problem
from riccati_sl2.riccati import RiccatiEquation, integrate_direct


def test_parse_variable():
    assert isinstance(parse("t"), Var)


def test_parse_structure():
    e = parse("exp(2*t) + 1/t")
    assert isinstance(e, Add)
    assert isinstance(e.left, Call) and e.left.name == "exp"
    assert isinstance(e.left.arg, Mul)
    assert isinstance(e.right, Div)


def test_parse_integral_node():
    e = parse("integral(sin(t))")
    assert isinstance(e, Integral)
    assert isinstance(e.integrand, Call) and e.integrand.name == "sin"


def test_print_parse_print_fixed_point():
    for text in ("t", "exp(2*t) + 1/t", "integral(sin(t))",
                 "-t^2 + 3*(t - 1)/(t + 2)", "sqrt(1 + t^2)*tanh(t)",
                 "1 - (2 - t)", "t^-2", "2e-3*t"):
        once = str(parse(text))
        twice = str(parse(once))
        assert once == twice


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("1 +* t")
    assert err.value.offset == 3


def test_unknown_function():
    with pytest.raises(ParseError) as err:
        parse("foo(t)")
    assert "foo" in str(err.value)
    assert err.value.offset == 0


def test_overflowing_literal_is_a_parse_error():
    # Const(inf) would print as 'inf', which does not parse again.
    for text, offset in (("1e400*t + 1", 0), ("2*t + 1e400", 6)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert "1e400" in str(err.value)
    assert parse("1e-400") is ZERO


@pytest.mark.parametrize("name", list(expr_module._FUNCTIONS))
def test_function_builders_match_the_table(name):
    build = getattr(expr_module, name)
    assert build.__name__ == name
    assert build(T) is Call(name, T)
    assert build(1) is Call(name, ONE)


# Interning.

def test_equal_trees_are_one_node():
    text = "exp(2*t) + integral(sin(t))/(t - 1)"
    assert parse(text) is parse(text)
    assert T + 1 is parse("t + 1")


def test_signed_zeros_stay_two_nodes():
    zero, neg_zero = Const(0.0), Const(-0.0)
    assert zero is not neg_zero
    assert (str(zero), str(neg_zero)) == ("0", "-0")
    signs = np.copysign(1.0, evaluate_grid([zero, neg_zero], [0.0, 1.0]))
    assert signs.tolist() == [[1.0, 1.0], [-1.0, -1.0]]


def test_building_a_node_leaves_the_live_one_unchanged():
    assert Const(1) is expr_module.ONE
    assert type(expr_module.ONE.value) is float
    assert evaluate_grid(expr_module.ONE, [0.0, 1.0]).dtype == np.float64


def test_a_dead_tree_leaves_the_node_table():
    gc.collect()
    before = len(expr_module._NODES)
    tree = sin(T * Const(0.123456789012345)) + T
    ref = weakref.ref(tree)
    assert len(expr_module._NODES) > before
    del tree
    gc.collect()
    assert ref() is None
    assert len(expr_module._NODES) <= before


def test_node_fields_cannot_be_assigned():
    e = parse("t + 1")
    with pytest.raises(FrozenInstanceError):
        e.left = T
    with pytest.raises(FrozenInstanceError):
        Const(2.0).value = 3.0


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("((t")
    with pytest.raises(ParseError):
        parse("t)")


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse("t^2.5")


def test_eval_basic():
    assert evaluate(parse("t*t"), 3.0) == 9.0
    assert evaluate(parse("integral(1)"), 2.5) == pytest.approx(2.5, abs=1e-12)


def test_eval_integral_closed_form():
    got = evaluate(parse("integral(exp(t))"), 1.0)
    assert abs(got - (math.e - 1.0)) <= 1e-12


def test_nested_integral():
    # inner integral of 1 is s, outer integrates s from 0 to t
    got = evaluate(parse("integral(integral(1))"), 2.0)
    assert abs(got - 2.0) <= 1e-10


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("log(t)"), -1.0)
    assert "log" in err.value.kind
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("sqrt(t)"), -2.0)
    assert "sqrt" in err.value.kind
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("1/t"), 0.0)
    assert "division" in err.value.kind


def test_integrals_at_negative_times():
    assert abs(evaluate(integral(integral(1)), -1.0) - 0.5) <= 1e-12
    assert abs(evaluate(integral(exp(T)), -1.0) - (math.exp(-1.0) - 1.0)) <= 1e-12
    _assert_matches_scalar((integral(integral(1)),), np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("text, want", [
    ("1/sqrt(t)", 2.0),
    ("log(t)", -1.0),
    ("sqrt(t)", 2.0 / 3.0),
    ("exp(-t)*cos(20*t)",
     (1.0 + math.exp(-1.0) * (20.0 * math.sin(20.0) - math.cos(20.0))) / 401.0),
    ("1/(1 + t^2)", math.pi / 4.0)])
def test_quad_matches_closed_forms(text, want):
    e = parse(text)
    value, abserr, info = expr_module.quad(lambda ts: evaluate_grid(e, ts), 0.0, 1.0)
    assert abs(value - want) <= 1e-13
    assert abserr <= 1e-13 * max(1.0, abs(value))
    assert info["neval"] > 0 and info["neval"] % 15 == 0


def test_quad_edge_cases():
    nodes = []
    value, abserr, info = expr_module.quad(nodes.append, 0.5, 0.5)
    assert (value, abserr, info, nodes) == (0.0, 0.0, {"neval": 0}, [])
    # A reversed interval negates the integral; f still sees its nodes
    # in increasing order.
    value, _, _ = expr_module.quad(lambda ts: nodes.append(ts) or np.exp(ts), 0.0, -1.0)
    assert abs(value - (math.exp(-1.0) - 1.0)) <= 1e-14
    assert all(np.all(np.diff(ts) > 0.0) for ts in nodes)
    with pytest.raises(QuadratureError):
        evaluate(parse("integral(sin(1/t))"), 1.0)


def test_differentiate_examples():
    d = differentiate(parse("t^2"))
    assert str(d) == "2*t"
    d = differentiate(parse("exp(2*t)"))
    assert evaluate(d, 0.5) == pytest.approx(2.0 * math.exp(1.0))
    d = differentiate(parse("integral(sin(t))"))
    assert str(d) == "sin(t)"


# The exact derivative trees of the function table, printed, for each
# function applied to t^2 + 1.
@pytest.mark.parametrize("name, want", [
    ("sqrt", "2*t/(2*sqrt(t^2 + 1))"),
    ("exp", "2*t*exp(t^2 + 1)"),
    ("log", "2*t/(t^2 + 1)"),
    ("sin", "2*t*cos(t^2 + 1)"),
    ("cos", "-2*t*sin(t^2 + 1)"),
    ("tan", "2*t/cos(t^2 + 1)^2"),
    ("tanh", "2*t*(1 - tanh(t^2 + 1)^2)"),
    ("arctan", "2*t/(1 + (t^2 + 1)^2)"),
])
def test_derivative_trees_print_unchanged(name, want):
    assert str(differentiate(Call(name, parse("t^2 + 1")))) == want


_A, _B, _C = T, sin(T), exp(T)


@pytest.mark.parametrize("tree, want", [
    (Sub(_A, Sub(_B, _C)), "t - (sin(t) - exp(t))"),
    (Div(_A, Mul(_B, _C)), "t/(sin(t)*exp(t))"),
    (Mul(_A, Div(_B, _C)), "t*(sin(t)/exp(t))"),
    (Mul(_A, Neg(_B)), "t*-sin(t)"),
    (Mul(Add(_A, _B), _C), "(t + sin(t))*exp(t)"),
    (Neg(Add(_A, _B)), "-(t + sin(t))"),
    (Pow(_A, -2), "t^-2"),
])
def test_binary_nodes_print_unchanged(tree, want):
    assert str(tree) == want
    assert parse(want) == tree


def test_integral_from_anchor():
    e = integral_from(parse("2*t"), 1.0)
    assert abs(evaluate(e, 2.0) - 3.0) <= 1e-10  # t^2 from 1 to 2
    assert abs(evaluate(e, 1.0)) <= 1e-12


def test_substitute():
    e = parse("t^2 + sin(t)")
    s = substitute(e, parse("2*t"))
    assert evaluate(s, 0.3) == pytest.approx(0.36 + math.sin(0.6))
    s = substitute(parse("t^2 + sin(t)/t"), parse("2*t"))
    assert str(s) == "(2*t)^2 + sin(2*t)/(2*t)"


def test_constant_folding():
    assert str(as_expr(0.0) * parse("1/t")) == "0"
    assert str(parse("t") + 0.0) == "t"
    assert str(as_expr(1.0) * parse("sin(t)")) == "sin(t)"
    assert str(as_expr(2.0) * as_expr(3.0)) == "6"


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.6:
            return T
        return Const(round(rng.uniform(-2.0, 2.0), 3) or 0.5)
    choice = rng.randrange(13)
    a = _random_tree(rng, depth - 1)
    if choice == 0:
        return a + _random_tree(rng, depth - 1)
    if choice == 1:
        return a - _random_tree(rng, depth - 1)
    if choice == 2:
        return a * _random_tree(rng, depth - 1)
    if choice == 3:
        return a / (2.0 + _random_tree(rng, depth - 1) ** 2)
    if choice == 4:
        return sin(a)
    if choice == 5:
        return cos(a)
    if choice == 6:
        return tanh(a)
    if choice == 7:
        return arctan(a)
    if choice == 8:
        return exp(arctan(a))
    if choice == 9:
        return sqrt(1.0 + a ** 2)
    if choice == 10:
        return -a
    if choice == 11:
        return a ** rng.choice((2, 3))
    return log(1.0 + a ** 2)


def test_derivative_matches_finite_differences():
    # 100 random trees of depth <= 6, 10 sample points each.
    rng = random.Random(20240817)
    h = 1e-6
    for _ in range(100):
        e = _random_tree(rng, rng.randint(1, 6))
        d = differentiate(e)
        for _ in range(10):
            t = rng.uniform(0.2, 1.3)
            sym = evaluate(d, t)
            fd = (evaluate(e, t + h) - evaluate(e, t - h)) / (2.0 * h)
            assert abs(sym - fd) <= 1e-5 * (1.0 + max(abs(sym), abs(fd)))


def test_parse_print_evaluates_identically():
    rng = random.Random(99)
    for _ in range(50):
        e = _random_tree(rng, rng.randint(1, 5))
        e2 = parse(str(e))
        for _ in range(5):
            t = rng.uniform(0.2, 1.3)
            assert evaluate(e, t) == evaluate(e2, t)


# Grid evaluation.

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _assert_matches_scalar(exprs, ts, tol=1e-12):
    got = evaluate_grid(exprs, ts)
    for e, row in zip(exprs, got):
        ref = scalar_evaluator(e)
        want = np.array([ref(t) for t in ts])
        assert np.all(np.abs(row - want) <= tol * (1.0 + np.abs(want))), str(e)


def _scalar_first_failure(exprs, ts):
    refs = [scalar_evaluator(e) for e in exprs]
    for t in ts:
        for ref in refs:
            try:
                ref(t)
            except EvalDomainError as exc:
                return exc
    return None


def test_grid_matches_scalar_on_bundled_coefficients():
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(path)
        eq = problem.equation
        _assert_matches_scalar((eq.b0, eq.b1, eq.b2), problem.grid())


def test_grid_matches_scalar_on_transformed_trees():
    problem = load_problem(PROBLEMS / "table_row4.json")
    reports = classify(problem.equation, problem.grid(), problem.tol,
                       problem.hints)
    row = next(r for r in reports if r.name == "Zh99Table4")
    tr = transform_coefficients(problem.equation, row.curve)
    _assert_matches_scalar((tr.b0, tr.b1, tr.b2), problem.grid())


def test_grid_matches_scalar_on_nested_integral():
    e = parse("integral((1 + sin(3*t))*exp(-integral(cos(t) - t/2)))")
    _assert_matches_scalar((e,), np.linspace(0.0, 2.0, 2001))


@pytest.mark.parametrize("text", [
    "log(0.5 - t)", "sqrt(0.3 - t)", "1/(t - 0.5)", "(t - 0.5)^-2",
    "log(0.7 - t) + sqrt(0.4 - t)", "sqrt(0.4 - t)*log(0.4 - t)",
    "log(0.5 - t)/(t - 0.5)", "integral(log(0.5 - t))",
    "exp(integral(1/(t - 0.55)))"])
def test_grid_raises_the_scalar_failure(text):
    e = parse(text)
    ts = np.linspace(0.0, 1.0, 101)
    want = _scalar_first_failure((e,), ts)
    with pytest.raises(EvalDomainError) as err:
        evaluate_grid(e, ts)
    assert (err.value.kind, str(err.value.subexpr)) == (want.kind, str(want.subexpr))


def test_grid_raises_the_first_failure_over_several_expressions():
    exprs = (sqrt(0.3 - T), log(0.25 - T), 1.0 / (T - 0.8))
    ts = np.linspace(0.0, 1.0, 101)
    want = _scalar_first_failure(exprs, ts)
    with pytest.raises(EvalDomainError) as err:
        evaluate_grid(exprs, ts)
    assert (err.value.kind, err.value.subexpr) == (want.kind, want.subexpr)


def test_sample_maps_a_pole_to_infinity_at_that_point_only():
    form = SolutionForm(parse("1/(t - 0.5)"), "test")
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert form.sample(ts) == [form.at(t) for t in ts]
    assert [x.is_inf for x in form.sample(ts)] == [False, False, True, False, False]
    # Any other failure still raises, as the pointwise path does.
    with pytest.raises(EvalDomainError) as err:
        SolutionForm(parse("log(0.8 - t)/(t - 0.5)"), "test").sample(ts)
    assert err.value.kind == "log of non-positive value"


def test_grid_falls_back_to_adaptive_quadrature(monkeypatch):
    calls = []
    quad = expr_module.quad

    def counting_quad(f, a, b, **kw):
        calls.append((a, b))
        return quad(f, a, b, **kw)

    monkeypatch.setattr(expr_module, "quad", counting_quad)
    ts = np.linspace(0.0, 1.0, 5)
    # sqrt(t) is not smooth at 0: the first cell's Gauss and Kronrod sums
    # disagree, and adaptive quadrature integrates that cell alone.
    got = evaluate_grid(parse("integral(sqrt(t))"), ts)
    assert calls == [(0.0, 0.25)]
    assert np.max(np.abs(got - ts ** 1.5 / 1.5)) <= 1e-14
    with pytest.raises(QuadratureError):
        evaluate_grid(parse("integral(sin(1/t))"), np.linspace(0.0, 1.0, 11))


def test_grid_over_several_blocks_matches_pieces(monkeypatch):
    e = parse("integral(cos(t)*exp(-integral(sin(3*t))))")
    ts = np.linspace(0.0, 2.0, 2001)
    whole = evaluate_grid(e, ts)
    # The cells are the same in any batching, so the sums are too.
    monkeypatch.setattr(expr_module, "_BLOCK", 7)
    assert np.array_equal(evaluate_grid(e, ts), whole)
    monkeypatch.undo()
    pieces = np.concatenate([evaluate_grid(e, ts[:700]),
                             evaluate_grid(e, ts[699:1500])[1:],
                             evaluate_grid(e, ts[1499:])[1:]])
    assert np.max(np.abs(pieces - whole)) <= 1e-13


_ONE_LEVEL = st.recursive(TREE_LEAVES | PLAIN_TREES.map(integral),
                          tree_operations, max_leaves=5)
_TWO_LEVELS = st.recursive(TREE_LEAVES | _ONE_LEVEL.map(integral),
                           tree_operations, max_leaves=4)


@settings(max_examples=50, deadline=None)
@given(e=st.tuples(_TWO_LEVELS, _ONE_LEVEL).map(lambda p: p[0] + integral(p[1])),
       ta=st.sampled_from((0.0, 0.3)), width=st.floats(0.1, 1.5),
       n=st.integers(2, 12))
def test_grid_matches_scalar_on_generated_integrals(e, ta, width, n):
    _assert_matches_scalar((e,), np.linspace(ta, ta + width, n))


def test_quadrature_failure_is_recorded_from_its_cell_onward():
    # Adaptive quadrature of the cell [0.4, 0.5] around the oscillating
    # singularity does not converge, as at every time from 0.5 on by the
    # reference walk and by the evaluation at that one time.
    e = parse("integral(sin(1/(t - 0.43)))")
    ts = np.linspace(0.0, 1.0, 11)
    (vals,), failures = next(expr_module._sample((e,), (ts,)))
    assert sorted(failures) == list(range(5, 11))
    assert all(isinstance(err, QuadratureError) for err in failures.values())
    for at in (scalar_evaluator(e), lambda t: evaluate(e, t)):
        for i, t in enumerate(ts):
            if i in failures:
                with pytest.raises(QuadratureError):
                    at(t)
            else:
                assert abs(vals[i] - at(t)) <= 1e-12
    with pytest.raises(QuadratureError):
        evaluate_grid(e, ts)
    # A domain failure at an earlier time is the one raised.
    with pytest.raises(EvalDomainError) as err:
        evaluate_grid(e + log(0.25 - T), ts)
    assert err.value.kind == "log of non-positive value"


def test_sample_carries_integrals_across_chunks():
    e = parse("integral(cos(t)*exp(-integral(sin(3*t))))")
    ts = np.linspace(0.0, 2.0, 2001)
    whole = evaluate_grid(e, ts)
    chunks = [ts[:700], ts[699:1500], ts[1500:]]
    got = np.concatenate([vals[0] for vals, failures in
                          expr_module._sample((e,), chunks)])
    assert np.array_equal(np.delete(got, 699), whole)


# Trees that may leave their domain on [0, 1]: every operation of the
# plain trees, and unguarded quotients, logarithms, square roots, negative
# powers, exponentials and integrals.
_FALLIBLE = st.recursive(TREE_LEAVES, lambda c: st.one_of(
    tree_operations(c), st.tuples(c, c).map(lambda p: p[0] / p[1]),
    c.map(log), c.map(sqrt), c.map(lambda a: a ** -2), c.map(exp),
    c.map(integral)), max_leaves=6)
_SESSION_GRIDS = (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 11))


def _subtrees(e):
    yield e
    for name in e.__match_args__:
        child = getattr(e, name)
        if isinstance(child, expr_module.Expr):
            yield from _subtrees(child)


def _outcome(roots, ts):
    """The bits evaluate_grid gives, or the kind and subexpression of the
    error it raises."""
    try:
        return evaluate_grid(roots, ts).tobytes()
    except EvalDomainError as exc:
        return exc.kind, exc.subexpr
    except QuadratureError as exc:
        return str(exc)


@given(trees=st.lists(_FALLIBLE, min_size=1, max_size=3), data=st.data())
def test_a_session_changes_no_value_and_no_first_failure(trees, data):
    # Calls on the subtrees of a few trees share many of them, on the
    # same grid or on another.
    pool = sorted({s for e in trees for s in _subtrees(e)}, key=str)
    calls = data.draw(st.lists(st.tuples(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3),
        st.sampled_from(range(len(_SESSION_GRIDS)))), min_size=2, max_size=6))
    alone = [_outcome(roots, _SESSION_GRIDS[g]) for roots, g in calls]
    with session():
        shared = [_outcome(roots, _SESSION_GRIDS[g]) for roots, g in calls]
    assert shared == alone


def test_a_child_that_failed_under_an_earlier_root_is_computed_again():
    # log(t - 0.5) fails under the first root; the second root reads it
    # from that walk without marking anything itself, and must not be kept
    # as failure-free, or the last call would raise its overflow.
    bad = log(T - 0.5)
    ts = np.linspace(0.0, 1.0, 11)
    with session() as s:
        with pytest.raises(EvalDomainError):
            evaluate_grid((2.0 * bad, bad + 1.0), ts)
        with pytest.raises(EvalDomainError) as err:
            evaluate_grid(bad + 1.0, ts)
    assert (err.value.kind, err.value.subexpr) == ("log of non-positive value", bad)
    assert s.counts()["expr.evaluate_grid.subtrees_reused"] == 2  # t - 0.5 and 1


def test_sample_of_an_integral_over_chunks_is_the_same_in_a_session():
    # The first chunk was evaluated before, alone; the integral carries
    # its value on from that chunk, so it must be computed again.
    e = parse("integral(cos(t)*exp(-integral(sin(3*t)))) + sin(t)")
    ts = np.linspace(0.0, 2.0, 2001)
    chunks = [ts[:700], ts[699:1500], ts[1500:]]
    alone = [vals for vals, _ in expr_module._sample((e,), chunks)]
    with session() as s:
        evaluate_grid(e, chunks[0])
        shared = [vals for vals, _ in expr_module._sample((e,), chunks)]
    assert all(np.array_equal(a, b) for a, b in zip(alone, shared))
    assert s.counts()["expr.evaluate_grid.subtrees_reused"] > 0


def test_a_session_builds_each_derivative_once():
    e = sin(T * T) * exp(T * T)
    with session() as s:
        first = differentiate(e)
        built = s.counts()["expr.differentiate.nodes_computed"]
        assert differentiate(e) is first
        assert s.counts()["expr.differentiate.nodes_computed"] == built
    assert differentiate(e) is first


def test_diff_rules_work_outside_a_session():
    assert (T * T).diff() is differentiate(T * T)
    assert Call("sin", T * T).diff() is differentiate(sin(T * T))


def test_a_long_solve_keeps_at_most_the_session_budget():
    # 20,000 RK4 steps are sampled in 40 blocks of stage times; keeping
    # every block's subtrees would take several times the budget.
    eq = RiccatiEquation.of(sin(T) * T + 1.0, cos(T) / (T + 2.0), exp(-T) * 0.1)
    with session() as s:
        traj = integrate_direct(eq, 0.1, (0.0, 20.0), 1e-3)
    kept = sum(len(key) + sum(v.nbytes for v in vals.values())
               for key, vals in s.grids.items())
    assert kept == s.kept_bytes <= expr_module._SESSION_BYTES
    assert len(s.grids) < 40
    assert np.array_equal(
        traj.values, integrate_direct(eq, 0.1, (0.0, 20.0), 1e-3).values)
