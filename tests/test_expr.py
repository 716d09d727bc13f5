import collections
import gc
import math
import random
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (PLAIN_TREES, TREE_LEAVES, scalar_evaluator, subtrees,
                      tree_operations)

import riccati_sl2.expr as expr_module
from riccati_sl2 import (ONE, ZERO, Add, Call, Const, Div, EvalDomainError,
                         Integral, Mul, Neg, ParseError, Pow, QuadratureError,
                         SolutionForm, Sub, T, Var, arctan, as_expr, classify,
                         cos, differentiate, evaluate, evaluate_grid, exp,
                         integral, integral_from, log, parse, session, sin,
                         sqrt, substitute, tan, tanh, transform_coefficients)
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


def test_overflowing_exponent_is_a_parse_error():
    # The first is past the largest float; the second also has more
    # digits than int() converts.
    for digits in ("1" + "0" * 400, "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse(f"t^{digits}")
        assert err.value.offset == 2
        assert str(err.value) == f"exponent {digits!r} overflows (at offset 2)"
    assert parse("t^(-1" + "0" * 300 + ")") is Pow(T, -10 ** 300)


def test_deeply_nested_parentheses_parse():
    # Each level costs two frames (operand and infix), so 300 levels stay
    # under Python's default recursion limit.
    assert parse("(" * 300 + "t" + ")" * 300 + "^2") is Pow(T, 2)


@pytest.mark.parametrize("deepest, past, offset", [
    ("t" + "+t" * 49, "t" + "+t" * 50, 99),
    ("-" * 49 + "t", "-" * 50 + "t", 0),
    ("sin(" * 49 + "t" + ")" * 49, "sin(" * 50 + "t" + ")" * 50, 0),
    ("(1+t)" + "/(2+t)" * 48, "(1+t)" + "/(2+t)" * 49, 293),
], ids=["sum", "signs", "calls", "quotients"])
def test_a_tree_past_50_levels_is_a_parse_error(deepest, past, offset):
    # The error is at the operator, sign or call that makes the 51st level.
    parse(deepest)
    with pytest.raises(ParseError) as err:
        parse(past)
    assert str(err.value) == f"expression is more than 50 levels deep (at offset {offset})"


def test_parentheses_past_300_deep_are_a_parse_error():
    for text in ("(" * 301 + "t" + ")" * 301, "-(" * 200 + "t" + ")" * 200,
                 "(" * 5000):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (
            "parentheses, signs and calls nest more than 300 deep (at offset 300)")
    # An exponent's parentheses are read in a loop.
    assert parse("t^" + "(" * 5000 + "2" + ")" * 5000) is Pow(T, 2)


def test_parsing_leaves_no_cyclic_garbage():
    # Parsing functions that refer to each other in a cycle would keep each
    # parse's tokens alive until the next collection.
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            parse("-t^2 + 3*(t - 1)/(t + 2) - integral(exp(-t))")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", list(expr_module._FUNCTIONS))
def test_function_builders_match_the_table(name):
    build = getattr(expr_module, name)
    assert build.__name__ == name
    assert build(T) is Call(name, T)
    assert build(1) is Call(name, ONE)


def test_tan_matches_math_and_differentiates_to_sec_squared():
    ts = np.linspace(-1.5, 1.5, 31)
    assert evaluate_grid(tan(T), ts).tolist() == pytest.approx(
        [math.tan(t) for t in ts], rel=1e-14)
    assert differentiate(tan(T)) is parse("1/cos(t)^2")


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
    form = SolutionForm(parse("1/(t - 0.5)"))
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert form.sample(ts) == [form.at(t) for t in ts]
    assert [x.is_inf for x in form.sample(ts)] == [False, False, True, False, False]
    # Any other failure still raises, as the pointwise path does.
    with pytest.raises(EvalDomainError) as err:
        SolutionForm(parse("log(0.8 - t)/(t - 0.5)")).sample(ts)
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


# The gap rule at every depth, as nested integrals were evaluated before
# the node rule, kept as its reference: an integral at the
# non-decreasing times ts is its quadrature from 0 to the origin plus,
# over each gap between consecutive times, the Gauss-Kronrod 7/15 sum of
# its integrand at the gap's nodes, evaluated by this same rule; a gap
# whose Gauss and Kronrod sums disagree is integrated by quad on the
# reference's own values, from a grid whose origin is its first node.

def _gap_rule(e, ts):
    ts = np.asarray(ts, dtype=float)
    return _gap_walk(e, ts, float(ts[0]))


def _gap_quad(f, a, b):
    return expr_module.quad(lambda xs: _gap_rule(f, xs), a, b)[0]


def _gap_walk(e, ts, origin):
    cls = type(e)
    if cls is Const:
        return np.full(len(ts), e.value)
    if cls is Var:
        return ts
    if cls is Neg:
        return -_gap_walk(e.arg, ts, origin)
    if cls is Call:
        return expr_module._FUNCTIONS[e.name][0](_gap_walk(e.arg, ts, origin))
    if cls is Pow:
        return np.power(_gap_walk(e.base, ts, origin), float(e.exponent))
    if cls is Integral:
        lo = np.concatenate(([origin], ts[:-1]))
        mid, half = 0.5 * (lo + ts), 0.5 * (ts - lo)
        nodes = (mid[:, None] + half[:, None] * expr_module._XK).ravel()
        fv = _gap_walk(e.integrand, nodes, origin).reshape(-1, 15)
        sums, gauss = half * (fv @ expr_module._WK), half * (fv @ expr_module._WG)
        tol = expr_module._CELL_TOL
        for i in np.flatnonzero(np.abs(sums - gauss) > np.maximum(tol, tol * np.abs(sums))):
            sums[i] = _gap_quad(e.integrand, lo[i], ts[i])
        return _gap_quad(e.integrand, 0.0, origin) + np.cumsum(sums)
    ops = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}
    return ops[cls](_gap_walk(e.left, ts, origin), _gap_walk(e.right, ts, origin))


def _integrals_around(inner):
    """Integrals whose integrand joins a plain tree to one of ``inner``."""
    joins = st.sampled_from((lambda a, b: a + b, lambda a, b: a * b,
                             lambda a, b: a * exp(-b)))
    return st.tuples(PLAIN_TREES, inner, joins).map(lambda p: integral(p[2](p[0], p[1])))


_NESTED = _integrals_around(PLAIN_TREES.map(integral))


@settings(max_examples=60, deadline=None)
@given(e=st.one_of(_NESTED, _integrals_around(_NESTED)),
       ta=st.sampled_from((0.0, 0.3, -0.4)),
       steps=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 0.4)),
                      min_size=2, max_size=10))
def test_nested_integrals_match_the_gap_rule(e, ta, steps):
    # Two and three levels, on grids with repeated times.
    ts = ta + np.cumsum([0.0, *steps])
    live = ts[1:] > ts[:-1]
    assume(live.sum() >= 2)

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    want = _gap_rule(e, ts)
    # A small block makes the nested integrals carry their values from
    # batch to batch.
    for block in (expr_module._BLOCK, 2):
        with mock.patch.object(expr_module, "_BLOCK", block):
            assert close(evaluate_grid(e, ts), want), (str(e), block)
    # A cell whose nested values are off may fall back to quad, which
    # hides them; so compare the integrand at the nodes of the cells
    # between distinct times, where its integrals take the node rule,
    # in two runs of one grid, the second carrying on from the first.
    a, b = ts[:-1][live], ts[1:][live]
    nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * expr_module._XK).ravel()
    k = len(a) // 2
    with session() as s:
        sub = expr_module._Grid(ta, s)
        got = [sub.run((e.integrand,), nodes[15 * i:15 * j], (a[i:j], b[i:j]))[0][0]
               for i, j in ((0, k), (k, len(a)))]
    assert close(np.concatenate(got), _gap_walk(e.integrand, nodes, ta)), str(e)


def test_the_node_rule_where_a_cell_falls_back_or_fails():
    # An integral in a run on the nodes of cells [a, b], as nested ones.
    a = np.linspace(0.0, 0.9, 10)
    b = a + 0.1
    nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * expr_module._XK).ravel()
    with session() as s, np.errstate(all="ignore"):
        # sqrt is not smooth at 0: the first cell's total and each of its
        # nodes' partials are integrated by quad.
        (got,), failures = expr_module._Grid(0.0, s).run((integral(sqrt(T)),), nodes, (a, b))
        assert not failures
        assert np.max(np.abs(got - nodes ** 1.5 / 1.5)) <= 1e-14
        # log(0.55 - t) fails at the later nodes of the cell [0.5, 0.6]:
        # the integral fails from that cell's first node on, with that
        # error, and keeps its values before.
        (got,), failures = expr_module._Grid(0.0, s).run(
            (integral(log(0.55 - T)),), nodes, (a, b))
    assert sorted(failures) == list(range(75, 150))
    assert {(err.kind, err.subexpr) for err in failures.values()} == {
        ("log of non-positive value", log(0.55 - T))}
    c, x = 0.55, nodes[:75]
    want = (c - x) * (1.0 - np.log(c - x)) + c * math.log(c) - c
    assert np.max(np.abs(got[:75] - want)) <= 1e-14


def test_partial_weights_integrate_the_interpolant():
    # Row j integrates every polynomial of degree at most 14 from -1 to
    # the j-th node; over [-1, 1] the Kronrod weights do, so a cell's
    # total is the integral of the same interpolant.
    x = expr_module._XK
    for d in range(15):
        assert np.max(np.abs(expr_module._WS @ x ** d
                             - (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1))) <= 1e-15
        assert abs(expr_module._WK @ x ** d - (1.0 - (-1.0) ** (d + 1)) / (d + 1)) <= 1e-15


def test_a_nested_integrand_is_evaluated_once_at_each_outer_node(monkeypatch):
    inner = parse("2*t - 0.3")
    outer = (1.0 + T) * exp(-integral(inner))
    seen = collections.Counter()
    run = expr_module._Grid.run

    def counting(self, roots, ts, cells=None):
        seen[roots] += len(ts)
        return run(self, roots, ts, cells)

    monkeypatch.setattr(expr_module._Grid, "run", counting)
    with session() as s:
        evaluate_grid(integral(outer), np.linspace(0.0, 1.5, 151))
        counts = s.counts()
        assert seen[(inner,)] == seen[(outer,)] == 15 * 150
        assert (counts["expr.integral.cells"], counts["expr.quad.calls"]) == (300, 0)
        # One cell of sqrt falls back to quad (see above).
        evaluate_grid(parse("integral(sqrt(t))"), np.linspace(0.0, 1.0, 5))
        counts = s.counts()
        assert (counts["expr.integral.cells"], counts["expr.quad.calls"]) == (304, 1)


# Trees that may leave their domain on [0, 1]: every operation of the
# plain trees, and unguarded quotients, logarithms, square roots, negative
# powers, exponentials and integrals.
_FALLIBLE = st.recursive(TREE_LEAVES, lambda c: st.one_of(
    tree_operations(c), st.tuples(c, c).map(lambda p: p[0] / p[1]),
    c.map(log), c.map(sqrt), c.map(lambda a: a ** -2), c.map(exp),
    c.map(integral)), max_leaves=6)
_SESSION_GRIDS = (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 11))


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
    pool = sorted({s for e in trees for s in subtrees(e)}, key=str)
    calls = data.draw(st.lists(st.tuples(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3),
        st.sampled_from(range(len(_SESSION_GRIDS)))), min_size=2, max_size=6))
    alone = [_outcome(roots, _SESSION_GRIDS[g]) for roots, g in calls]
    with session():
        shared = [_outcome(roots, _SESSION_GRIDS[g]) for roots, g in calls]
    assert shared == alone


# Trees without integrals that may leave their domain: every operation of
# the plain trees, and unguarded quotients, logarithms, square roots,
# integer powers, exponentials, cosines and tangents.
_FALLIBLE_PLAIN = st.recursive(TREE_LEAVES, lambda c: st.one_of(
    tree_operations(c), st.tuples(c, c).map(lambda p: p[0] / p[1]),
    c.map(log), c.map(sqrt), c.map(lambda a: a ** -2), c.map(lambda a: a ** 3),
    c.map(exp), c.map(cos), c.map(tan)), max_leaves=6)
_COLUMN_TIMES = st.one_of(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=300).map(sorted),
    st.integers(1, 2250).map(lambda n: np.linspace(-3.0, 3.0, n).tolist()))


@settings(max_examples=300)
@given(e=_FALLIBLE_PLAIN, ts=_COLUMN_TIMES, data=st.data())
def test_a_grid_column_is_the_one_point_evaluation(e, ts, data):
    # numpy's ufuncs give each element the same bits whatever the length
    # of the array, so a caller may read a time's value, or its first
    # failure, from a grid holding that time.
    i = data.draw(st.integers(0, len(ts) - 1))
    (vals,), failures = next(expr_module._sample((e,), (np.array(ts),)))
    try:
        want = evaluate(e, ts[i])
    except EvalDomainError as exc:
        assert str(failures[i]) == str(exc)
        return
    assert i not in failures
    assert float(vals[i]).hex() == want.hex()
    if not failures:
        assert float(evaluate_grid(e, ts)[i]).hex() == want.hex()


def test_kept_values_never_leave_a_session():
    # What a caller gets is its own: changing it changes nothing kept.
    e = sin(T) * T + 1.0
    ts = np.linspace(0.0, 1.0, 11)
    with session() as s:
        got = evaluate_grid(e, ts)
        want = got.copy()
        got[:] = 99.0
        rows = evaluate_grid((e, sin(T)), ts)
        rows[:] = -1.0
        (sampled,), _ = next(expr_module._sample((e,), (ts,)))
        sampled[:] = 7.0
        again = evaluate_grid(e, ts)
        assert s.counts()["expr.evaluate_grid.subtrees_reused"] > 0
    assert again.tobytes() == want.tobytes()


def test_the_run_count_counts_outermost_runs_only():
    # The integral's integrand and quadrature grids are nested runs.
    with session() as s:
        evaluate_grid(parse("integral(sqrt(t)) + sin(t)"), np.linspace(0.5, 1.0, 5))
        evaluate(sin(T), 0.25)
        counts = s.counts()
    assert counts["expr.evaluate_grid.runs"] == 2
    assert counts["expr.quad.calls"] > 0


def test_a_child_that_failed_under_an_earlier_root_is_computed_again():
    # log(t - 0.5) fails under the first root; the second root reads it
    # from that walk without marking anything itself, and must not be kept
    # as failure-free, or the last call would raise its overflow.  A run
    # that marked a failure keeps nothing at all.
    bad = log(T - 0.5)
    ts = np.linspace(0.0, 1.0, 11)
    with session() as s:
        with pytest.raises(EvalDomainError):
            evaluate_grid((2.0 * bad, bad + 1.0), ts)
        with pytest.raises(EvalDomainError) as err:
            evaluate_grid(bad + 1.0, ts)
    assert (err.value.kind, err.value.subexpr) == ("log of non-positive value", bad)
    assert s.counts()["expr.evaluate_grid.subtrees_reused"] == 0


def test_a_run_keeps_its_values_only_when_it_is_clean():
    ts = np.linspace(0.0, 1.0, 11)
    with session() as s:
        # An integral anywhere in the run, or a failure anywhere in it,
        # and the run keeps nothing, not even its clean subtrees.
        evaluate_grid((sin(T), integral(T)), ts)
        assert s.grids == {}
        with pytest.raises(EvalDomainError):
            evaluate_grid((2.0 * T, log(T - 0.5)), ts)
        assert s.grids == {}
        e = sin(T) * T + 1.0
        evaluate_grid(e, ts)
    assert set(s.grids[ts.tobytes()]) == {sin(T), sin(T) * T, ONE, e}


def test_sample_of_an_integral_over_chunks_is_the_same_in_a_session():
    # sin(t) was evaluated before on the first chunk, alone, and is read
    # back there; the integral carries its value on from chunk to chunk,
    # so it is computed again.
    e = parse("integral(cos(t)*exp(-integral(sin(3*t)))) + sin(t)")
    ts = np.linspace(0.0, 2.0, 2001)
    chunks = [ts[:700], ts[699:1500], ts[1500:]]
    alone = [vals for vals, _ in expr_module._sample((e,), chunks)]
    with session() as s:
        evaluate_grid(sin(T), chunks[0])
        shared = [vals for vals, _ in expr_module._sample((e,), chunks)]
    assert all(np.array_equal(a, b) for a, b in zip(alone, shared))
    assert s.counts()["expr.evaluate_grid.subtrees_reused"] > 0


def test_a_library_call_runs_in_one_session(monkeypatch):
    # Outside a session, the quadratures under the integrals (from 0 to
    # the first time, and the cells' fallbacks) join the call's session.
    e = parse("integral(cos(t)*exp(-integral(sin(3*t))))")
    ts = np.linspace(0.5, 2.0, 201)
    with session():
        want = evaluate_grid(e, ts)
    made = []
    init = expr_module._Session.__init__
    monkeypatch.setattr(expr_module._Session, "__init__",
                        lambda self: made.append(self) or init(self))
    got = evaluate_grid(e, ts)
    assert len(made) == 1
    assert got.tobytes() == want.tobytes()
    # A sample left suspended does not leave its session set.
    chunks = expr_module._sample((e,), (ts,))
    next(chunks)
    assert expr_module._SESSION.get() is None


def test_a_session_builds_each_derivative_once():
    e = sin(T * T) * exp(T * T)
    with session() as s:
        first = differentiate(e)
        built = s.counts()["expr.differentiate.nodes_computed"]
        assert differentiate(e) is first
        assert s.counts()["expr.differentiate.nodes_computed"] == built
    assert differentiate(e) is first


def test_a_session_prints_each_node_once():
    e = sin(T * T) * exp(T * T) - (T * T) ** 2
    want = str(e)
    with session() as s:
        assert str(e) == want
        counts = s.counts()
        assert counts["expr.print.texts_computed"] == len(set(subtrees(e)))
        assert str(e) == want and str(T * T) == "t*t"
        again = s.counts()
        assert again["expr.print.texts_computed"] == counts["expr.print.texts_computed"]
        assert again["expr.print.texts_reused"] == counts["expr.print.texts_reused"] + 2
    with session() as s:
        assert s.counts()["expr.print.texts_computed"] == 0


def test_diff_rules_work_outside_a_session():
    assert (T * T).diff() is differentiate(T * T)
    assert Call("sin", T * T).diff() is differentiate(sin(T * T))


def _failure_map(failures):
    return {i: (type(err), str(err)) for i, err in failures.items()}


@st.composite
def _stage_times(draw):
    """Odd-length RK4 stage times t_0, t_0 + h/2, t_1, ..., t_m."""
    m = draw(st.integers(1, 40))
    h = draw(st.sampled_from([1e-3, 0.05, 0.3]))
    t = draw(st.floats(-1.0, 1.0)) + np.arange(m + 1) * h
    out = np.empty(2 * m + 1)
    out[0::2], out[1::2] = t, t[:-1] + 0.5 * h
    return out


@given(PLAIN_TREES, PLAIN_TREES, PLAIN_TREES, _stage_times(),
       st.sampled_from([None, "odd time", "from a time"]), st.booleans(),
       st.integers(0, 80))
def test_every_other_time_reads_are_a_fresh_walk(a, b, c, ts, fail, integrate, k):
    # After a run on stage times, a run on every other one of them reads
    # the kept subtrees halved: the same bits and the same failures as a
    # walk in a fresh session.  A run that fails (here at one odd time,
    # where the halved run does not, or from some time on) or holds an
    # integral keeps nothing.
    k = k % len(ts)
    if fail == "odd time":
        b = b + Const(1.0) / (T - Const(float(ts[min(k | 1, len(ts) - 2)])))
    elif fail == "from a time":
        b = b + log(Const(float(ts[k])) - T)
    if integrate:
        a = integral(a)
    first, second = (a, b), (c + a, b, c * b)
    with session() as s:
        next(expr_module._sample(first, (ts,)))
        before = s.reused
        vals, failures = next(expr_module._sample(second, (ts[::2],)))
        halved = s.reused - before
    with session():
        want, want_failures = next(expr_module._sample(second, (ts[::2],)))
    assert vals.tobytes() == want.tobytes()
    assert _failure_map(failures) == _failure_map(want_failures)
    if fail is not None or integrate:
        assert halved == 0
    elif b is not T:
        assert halved > 0


def test_a_long_solve_keeps_at_most_the_session_budget():
    # 20,000 RK4 steps are sampled in 40 blocks of stage times; keeping
    # every block's subtrees would take several times the budget.
    eq = RiccatiEquation.of(sin(T) * T + 1.0, cos(T) / (T + 2.0), exp(-T) * 0.1)
    with session() as s:
        traj = integrate_direct(eq, 0.1, (0.0, 20.0), 1e-3)
    # The sampling, too long to keep, is not kept; its time grid is, at
    # 32 bytes a float.
    (grid, _), = s.samplings.values()
    kept = (sum(len(key) + sum(v.nbytes for v in vals.values())
                for key, vals in s.grids.items())
            + sum(map(len, s.halves)) + 32 * len(grid))
    assert kept == s.kept_bytes <= expr_module._SESSION_BYTES
    assert len(s.grids) < 40
    assert np.array_equal(
        traj.values, integrate_direct(eq, 0.1, (0.0, 20.0), 1e-3).values)
