"""Property tests of the algebraic laws the reductions rest on: the
printer and parser, the Möbius action, composition of curve actions on
coefficients, exact differentiation, reductions carried along the
curve action, and the linear target of every RDM05 reduction."""

import dataclasses
import math
import operator
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (PLAIN_TREES, PROBLEMS, TREE_LEAVES, random_coefficient,
                      random_curve, random_equation, subtrees, tree_operations)

import riccati_sl2.expr as expr_module
from riccati_sl2 import (INF, Add, Call, CoincidentPointsError, Const,
                         CriterionReport, CurveSL2, Div, EvalDomainError,
                         ExtReal, Integral, Mat2, Mul, Neg,
                         OneDimensionalTarget, ParseError, Pow,
                         QuadratureError, RiccatiEquation,
                         SingularMatrixError, Sub, T, ZERO, classify, compose,
                         cross_ratio, cross_ratio_array, curve_residual,
                         differentiate, evaluate, exp, ext,
                         gauge_transform_algebra, integrate_direct, inverse,
                         log, mobius_apply, mobius_apply_array, parse,
                         session, sqrt, theta_apply, transform_coefficients)
from riccati_sl2.cli import Problem, _points_dev, load_problem
from riccati_sl2.criteria import (check_rdm05, holds_on_solve_grid,
                                  max_pair_deviation, solve_via_report)

# The benchmark's problem generator, read only: its elementary curves.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

TIMES = st.floats(0.2, 1.3)


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@st.composite
def _printable(draw, depth=4):
    """Deep trees rich in binary operators, signs and powers, whose
    printing depends on precedence and association."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(TREE_LEAVES)
    kind = draw(st.integers(0, 6))
    a = draw(_printable(depth - 1))
    if kind < len(_BINARY):
        return _BINARY[kind](a, draw(_printable(depth - 1)))
    if kind == 4:
        return a ** draw(st.sampled_from((-1, 2, 3)))
    if kind == 5:
        return -a
    return draw(tree_operations(st.just(a)))


@given(e=_printable(), t=TIMES)
def test_printed_expression_reparses_to_the_same_value(e, t):
    try:
        want = evaluate(e, t)
    except EvalDomainError:
        assume(False)
    assert evaluate(parse(str(e)), t) == want


@given(e=_printable(), data=st.data())
def test_printed_text_is_the_same_in_a_session(e, data):
    # Outside a session each print walks the whole tree; inside, a node's
    # text is kept, and may have been kept while printing another tree.
    first = data.draw(st.sampled_from(list(subtrees(e))))
    want, want_first = str(e), str(first)
    with session():
        assert str(e) == want
        assert str(e) == want
    with session():
        assert str(first) == want_first
        assert str(e) == want


class _DescentParser:
    """The recursive-descent parser that the precedence loop replaced,
    kept as the reference for its nodes and errors."""

    def __init__(self, text):
        self.tokens = expr_module._tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        e = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def expression(self):
        return self.chain(self.term, {"+": Add, "-": Sub})

    def term(self):
        return self.chain(self.unary, {"*": Mul, "/": Div})

    def chain(self, operand, ops):
        e = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ops:
                return e
            self.advance()
            e = ops[text](e, operand())

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        if kind == "op" and text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text in ("^", "**"):
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "(":
            self.advance()
            n = self.exponent()
            self.expect_op(")")
            return n
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or not text.isdigit():
            raise ParseError("exponent must be an integer literal", pos)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows", pos)
            return Const(value)
        if kind == "ident":
            if text == "t":
                return T
            if text != "integral" and text not in expr_module._FUNCTIONS:
                raise ParseError(f"unknown function or identifier {text!r}", pos)
            self.expect_op("(")
            inner = self.expression()
            self.expect_op(")")
            return Integral(inner) if text == "integral" else Call(text, inner)
        if kind == "op" and text == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def _parsed(parser, text):
    """The node ``parser`` builds from ``text``, or its error's message
    and offset."""
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.offset


@settings(max_examples=400)
@given(e=_printable(), data=st.data())
def test_the_parser_agrees_with_the_recursive_descent(e, data):
    # Printed trees (with ^ or **), the same texts with one character
    # inserted, replaced or deleted, and their prefixes give the same node
    # or the same error.
    text = data.draw(st.sampled_from((str(e), str(e).replace("^", "**"))))
    i = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from(" t+-*/^().019e_x"))
    text = data.draw(st.sampled_from(
        (text, text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
         text[:i] + text[i + 1:], text[:i])))
    want = _parsed(lambda s: _DescentParser(s).parse(), text)
    got = _parsed(parse, text)
    assert got is want if isinstance(want, expr_module.Expr) else got == want


@given(e=PLAIN_TREES, t=TIMES)
def test_derivative_agrees_with_central_differences(e, t):
    h = 1e-6
    sym = evaluate(differentiate(e), t)
    fd = (evaluate(e, t + h) - evaluate(e, t - h)) / (2.0 * h)
    assert abs(sym - fd) <= 1e-5 * (1.0 + max(abs(sym), abs(fd)))


_ENTRY = st.floats(-3.0, 3.0)


@st.composite
def _unimodular(draw):
    """A matrix of determinant 1 with entries of moderate size."""
    a11 = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
    a12, a21 = draw(_ENTRY), draw(_ENTRY)
    return Mat2(a11, a12, a21, (1.0 + a12 * a21) / a11)


def _chordal(x: ExtReal, y: ExtReal) -> float:
    """Chordal distance on the compactified line."""
    if x.is_inf and y.is_inf:
        return 0.0
    if x.is_inf or y.is_inf:
        v = y.value if x.is_inf else x.value
        return 1.0 / math.sqrt(1.0 + v * v)
    return abs(x.value - y.value) / math.sqrt(
        (1.0 + x.value ** 2) * (1.0 + y.value ** 2))


@given(A=_unimodular(), B=_unimodular(),
       x=st.one_of(st.just(INF), st.floats(-10.0, 10.0).map(ExtReal)))
def test_mobius_action_is_a_group_action(A, B, x):
    assert _chordal(mobius_apply(A @ B, x),
                    mobius_apply(A, mobius_apply(B, x))) <= 1e-9


# Polynomial curve parameters, so that products of curves stay small.
_SMALL_TREES = st.recursive(
    st.one_of(st.just(T), st.floats(-1.0, 1.0).map(Const)),
    lambda children: st.tuples(children, children).flatmap(
        lambda p: st.sampled_from((p[0] + p[1], p[0] * p[1]))),
    max_leaves=3)


_ELEMENTARY = st.one_of(
    _SMALL_TREES.map(CurveSL2.translation),
    _SMALL_TREES.map(lambda e: CurveSL2.scaling(exp(e))),
    st.just(CurveSL2.inversion()))


def _curves():
    return st.lists(_ELEMENTARY, min_size=1, max_size=3).map(_compose_all)


def _compose_all(curves):
    c = curves[0]
    for d in curves[1:]:
        c = compose(d, c)
    return c


@given(b=st.tuples(PLAIN_TREES, PLAIN_TREES, PLAIN_TREES), c1=_curves(),
       c2=_curves())
def test_curve_actions_compose(b, c1, c2):
    eq = RiccatiEquation(*b)
    twice = transform_coefficients(transform_coefficients(eq, c1), c2)
    once = transform_coefficients(eq, compose(c2, c1))
    grid = [i / 20 for i in range(21)]
    dev = max_pair_deviation(((twice.b0, once.b0), (twice.b1, once.b1),
                              (twice.b2, once.b2)), grid)
    assert dev <= 1e-9


@given(b=st.tuples(PLAIN_TREES, PLAIN_TREES, PLAIN_TREES), c=_curves())
def test_gauge_law_is_the_coefficient_law(b, c):
    eq = RiccatiEquation(*b)
    gauge = gauge_transform_algebra(eq, c)
    affine = transform_coefficients(eq, c)
    grid = [i / 20 for i in range(21)]
    dev = max_pair_deviation(((gauge.b0, affine.b0), (gauge.b1, affine.b1),
                              (gauge.b2, affine.b2)), grid)
    assert dev <= 1e-9


# The self-check as three trees computed it, kept as the reference: the
# coefficient law written out on expressions, whose nodes fold constants
# (0*x is the zero node), evaluated next to the target's coefficients.

def _tree_law(eq, c):
    al, be, ga, de = c.entries()
    dal, dbe, dga, dde = (differentiate(al), differentiate(be),
                          differentiate(ga), differentiate(de))
    b0, b1, b2 = eq.b0, eq.b1, eq.b2
    nb2 = de * de * b2 - de * ga * b1 + ga * ga * b0 + ga * dde - de * dga
    nb1 = (-2.0 * be * de * b2 + (al * de + be * ga) * b1
           - 2.0 * al * ga * b0
           + de * dal - al * dde + be * dga - ga * dbe)
    nb0 = be * be * b2 - al * be * b1 + al * al * b0 + al * dbe - be * dal
    return RiccatiEquation(nb0, nb1, nb2)


def _tree_residual(report, eq, grid):
    target = report.target
    teq = target.equation() if isinstance(target, OneDimensionalTarget) else target
    tr = _tree_law(eq, report.curve)
    return max_pair_deviation(
        ((tr.b0, teq.b0), (tr.b1, teq.b1), (tr.b2, teq.b2)), grid)


def _outcome(residual, report, eq, grid):
    """The residual, or the type and message of the error it raised,
    computed in a session of its own, where the reference's sums near
    the largest float warn of no overflow."""
    with session(), np.errstate(over="ignore"):
        try:
            return residual(report, eq, grid)
        except (EvalDomainError, QuadratureError) as exc:
            return type(exc), str(exc)


@st.composite
def _self_check_cases(draw):
    """A report whose curve and target come from random_curve and
    random_equation, and the equation it is checked on, with at most one
    of these hazards: a derivative that fails at one grid time only
    (sqrt((t - t0)^2) at t0, where the entry is 0), a coefficient that
    fails from t = 0.6 on (log(0.6 - t)), both (at t0 = 0.6 they first
    fail together), or a law whose result overflows where its terms do
    not.  Composing with the inversion
    gives structurally zero entries, which the trees fold (0*x is the
    zero node) where the law on values multiplies by 0."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    eq, c = random_equation(rng), random_curve(rng, 1, 3)
    hazard = draw(st.sampled_from(("", "", "sqrt", "log", "sqrt log", "overflow")))
    if "sqrt" in hazard:
        t0 = draw(st.sampled_from((0.0, 0.35, 0.6, 1.0)))
        c = compose(CurveSL2.translation(sqrt((T - t0) ** 2)), c)
    if "log" in hazard:
        key = draw(st.sampled_from(("b0", "b1", "b2")))
        eq = dataclasses.replace(eq, **{key: getattr(eq, key) + log(0.6 - T)})
    if hazard == "overflow":
        eq = dataclasses.replace(eq, b0=1e300 * eq.b0)
        c = compose(CurveSL2.scaling(Const(1e10)), c)
    if draw(st.booleans()):
        c = compose(CurveSL2.inversion(), c)
    target = draw(st.sampled_from(("transformed", "one_dimensional", "equation")))
    goal = {"transformed": lambda: _tree_law(eq, c),
            "one_dimensional": lambda: OneDimensionalTarget(
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 1.0,
                random_coefficient(rng)),
            "equation": lambda: random_equation(rng)}[target]()
    return CriterionReport("law", True, curve=c, target=goal), eq, target


@settings(max_examples=300)
@given(case=_self_check_cases())
def test_the_self_check_is_the_tree_law_bit_for_bit(case):
    """curve_residual, the affine law on grid values, gives the tree
    law's residual bit for bit (0 against the tree law's own
    coefficients), or the error it raises at the first time it fails,
    and the same residual on the times before."""
    report, eq, target = case
    grid = [i / 20 for i in range(21)]
    want = _outcome(_tree_residual, report, eq, grid)
    assert _outcome(curve_residual, report, eq, grid) == want
    if isinstance(want, float):
        assert target != "transformed" or want == 0.0
        return
    first = next(i for i in range(1, 22)
                 if not isinstance(_outcome(_tree_residual, report, eq, grid[:i]), float))
    assert _outcome(curve_residual, report, eq, grid[:first]) == want
    if first > 1:
        before = _outcome(_tree_residual, report, eq, grid[:first - 1])
        assert _outcome(curve_residual, report, eq, grid[:first - 1]) == before


# Floats at the edges Hypothesis favours, and ones with inexact quotients.
_MOBIUS_FLOATS = st.one_of(st.floats(-1e3, 1e3),
                           st.integers(-10**6, 10**6).map(lambda n: n / 977.0))


@st.composite
def _mobius_cases(draw):
    """A matrix and a point, mixing generic cases with the edges of the
    Möbius map: the point at infinity, exact and near poles,
    a21 at or near 0, near-singular matrices and images that overflow."""
    kind = draw(st.sampled_from(("generic", "generic", "pole", "near pole",
                                 "a21=0", "singular", "huge")))
    a11, a12, a21, a22 = (draw(_MOBIUS_FLOATS) for _ in range(4))
    x = draw(st.one_of(st.just(math.inf), _MOBIUS_FLOATS))
    if kind in ("pole", "near pole"):
        # a21 a power of two, so that a21*x + a22 is exactly zero, or
        # within a few pole tolerances of it.
        a21 = draw(st.sampled_from((0.5, -1.0, 4.0)))
        if kind == "pole":
            x = draw(_MOBIUS_FLOATS)
            a22 = -a21 * x
        else:
            x = draw(st.floats(-2.0, 2.0))
            a22 = -a21 * x + draw(st.floats(-3.0, 3.0)) * 1e-13
    elif kind == "a21=0":
        # Exactly zero, or within a few pole tolerances of it.
        a21 = draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(
            -1e-12, 1e-12).map(lambda r: r * (abs(a11) + abs(a22)))))
    elif kind == "singular":
        # Proportional rows, up to a relative perturbation near roundoff.
        r = draw(st.floats(-10.0, 10.0))
        a12, a22 = a11 * r, a21 * r * (1.0 + draw(st.floats(-1e-14, 1e-14)))
    elif kind == "huge":
        x = draw(st.floats(1e306, 1.7e308)) * draw(st.sampled_from((1.0, -1.0)))
    return (a11, a12, a21, a22), x


# The per-point Möbius map and cross ratio that the array forms
# replaced, kept as their reference.

_POLE_TOL = 1e-13


def _reference_mobius_apply(A: Mat2, x: ExtReal) -> ExtReal:
    det = A.det()
    scale = (abs(A.a11) + abs(A.a12)) * (abs(A.a21) + abs(A.a22)) + 1.0
    if abs(det) <= 1e-14 * scale:
        raise SingularMatrixError(f"matrix {A} is singular (det={det:.3g})")
    if x.is_inf:
        if A.a21 == 0.0 or abs(A.a21) <= _POLE_TOL * (abs(A.a11) + abs(A.a22)):
            return INF
        return ExtReal(A.a11 / A.a21)
    v = x.value
    num = A.a11 * v + A.a12
    den = A.a21 * v + A.a22
    if abs(den) <= _POLE_TOL * (1.0 + abs(A.a21 * v) + abs(A.a22)):
        return INF
    return ExtReal(num / den)


def _reference_cross_ratio(x: ExtReal, x1: ExtReal, x2: ExtReal,
                           x3: ExtReal) -> ExtReal:
    if x1 == x2 or x1 == x3 or x2 == x3:
        raise CoincidentPointsError("reference points must be pairwise distinct")
    if x1.is_inf:
        A = Mat2(0.0, x3.value - x2.value, 1.0, -x2.value)
    elif x2.is_inf:
        A = Mat2(1.0, -x1.value, 0.0, x3.value - x1.value)
    elif x3.is_inf:
        A = Mat2(1.0, -x1.value, 1.0, -x2.value)
    else:
        A = Mat2(x3.value - x2.value, -x1.value * (x3.value - x2.value),
                 x3.value - x1.value, -x2.value * (x3.value - x1.value))
    try:
        return _reference_mobius_apply(A, x)
    except SingularMatrixError as exc:
        raise CoincidentPointsError(
            "reference points are numerically coincident") from exc


def _reference_outcome(entries, x):
    try:
        return float(_reference_mobius_apply(Mat2(*entries), ext(x))), None
    except ValueError as exc:
        return None, exc


@given(cases=st.lists(_mobius_cases(), min_size=1, max_size=8))
def test_array_mobius_map_is_mobius_apply_bit_for_bit(cases):
    outcomes = [_reference_outcome(m, x) for m, x in cases]
    entries = np.array([m for m, _ in cases]).T
    xs = np.array([x for _, x in cases])
    first = next((i for i, (_, exc) in enumerate(outcomes) if exc is not None), None)
    if first is not None:
        m, x = cases[first]
        failure = outcomes[first][1]
        if isinstance(failure, SingularMatrixError):
            error, message = SingularMatrixError, str(failure)
        else:
            # The reference's point could not hold the overflowed image.
            error = OverflowError
            message = f"the image of {ext(x)} under {Mat2(*m)} overflows"
        with pytest.raises(error) as got:
            mobius_apply_array(*entries, xs)
        assert str(got.value) == message
    else:
        want = np.array([v for v, _ in outcomes])
        assert mobius_apply_array(*entries, xs).tobytes() == want.tobytes()
        one = [float(mobius_apply(Mat2(*m), ext(x))) for m, x in cases]
        assert np.array(one).tobytes() == want.tobytes()


_CROSS_POINTS = st.tuples(*[st.one_of(
    st.floats(-1e3, 1e3), st.just(math.inf),
    st.integers(-10**4, 10**4).map(lambda n: n / 977.0))] * 4)
_CROSS_KINDS = st.tuples(
    st.sampled_from(("generic", "equal", "near", "near", "probe")),
    st.permutations((1, 2, 3)), st.floats(-1e-13, 1e-13),
    st.sampled_from((0.0, 1e-300, -1e-15)))


@st.composite
def _cross_ratio_rows(draw):
    """A probe and three references, mixing generic rows with points at
    infinity, references equal to each other or to the probe, and
    references apart by a few units of roundoff."""
    pts = list(draw(_CROSS_POINTS))
    kind, (i, j, _), rel, shift = draw(_CROSS_KINDS)
    if kind == "equal":
        pts[j] = pts[i]
    elif kind == "near" and math.isfinite(pts[i]):
        pts[j] = pts[i] * (1.0 + rel) + shift
    elif kind == "probe":
        pts[0] = pts[i]
    return pts


@given(rows=st.lists(_cross_ratio_rows(), min_size=1, max_size=8))
@example(rows=[[0.5, 1.0, -1.0, 0.0], [0.0, -1e300, 1e-12, math.inf]])
def test_array_cross_ratio_is_the_reference_loop_bit_for_bit(rows):
    want, failure = [], False
    for row in rows:
        try:
            want.append(float(_reference_cross_ratio(*map(ext, row))))
        except CoincidentPointsError:
            want.append(math.nan)
        except ValueError:
            failure = True
            break
    columns = np.array(rows).T
    if failure:
        with pytest.raises(OverflowError, match="overflows"):
            cross_ratio_array(*columns)
        return
    got = cross_ratio_array(*columns)
    assert got.tobytes() == np.array(want).tobytes()
    for row, v in zip(rows, want):
        if math.isnan(v):
            with pytest.raises(CoincidentPointsError):
                cross_ratio(*map(ext, row))
        else:
            assert float(cross_ratio(*map(ext, row))) == v


def test_every_satisfied_rdm05_target_is_linear():
    """RDM05's affine target has b2 the zero node, so its solutions are
    the linear closed forms, on the bundled problems and on draws of the
    benchmark's planted RDM05 family."""
    problems = map(load_problem, sorted(PROBLEMS.glob("*.json")))
    cases = [(p.equation, p.grid()) for p in problems]
    draw = workloads.Draw("classify-catalogue", 7)
    cases += [(workloads.FAMILIES["RDM05"](draw)[0], [i / 100 for i in range(101)])
              for _ in range(20)]
    reports = [check_rdm05(eq, grid_) for eq, grid_ in cases]
    targets = [r.target for r in reports if r.satisfied]
    assert len(targets) == 22
    assert all(target.b2 is ZERO for target in targets)


# One problem per planted family of the benchmark's generator, drawn as
# the classify-catalogue workload draws it at seed 7.
PLANTED = [f for f in workloads.FAMILIES if f not in ("generic", "pushed")]


def _problem(case):
    """A bundled problem file, or a planted family's problem on the
    classify-catalogue interval, step and detection grid from 0, 0.5 and
    infinity; and the detector it satisfies by construction (or None)."""
    if isinstance(case, Path):
        return load_problem(case), workloads.BUNDLED_PLANTED[case.stem]
    eq, hints, planted = workloads.FAMILIES[case](
        workloads.Draw("classify-catalogue", 7))
    return Problem(equation=eq, t_interval=workloads.SPANS["classify-catalogue"],
                   initial_conditions=[ExtReal(0.0), ExtReal(0.5), INF],
                   step=workloads.STEPS["classify-catalogue"], grid_n=101,
                   tol=1e-6, hints=hints, known_solutions=[]), planted


@pytest.mark.parametrize("case", sorted(PROBLEMS.glob("*.json")) + PLANTED,
                         ids=lambda c: c.stem if isinstance(c, Path) else c)
def test_a_reduction_stays_a_reduction_under_the_curve_action(case):
    """If c carries an equation to a solvable target, c o g^-1 carries
    the equation pushed by g to the same target, and the pushed
    solutions are the reduction's solutions from the pushed points."""
    problem, planted = _problem(case)
    eq, span, step = problem.equation, problem.t_interval, problem.step
    reports = [r for r in classify(eq, problem.grid(), problem.tol, problem.hints)
               if r.satisfied and r.curve is not None and r.target is not None]
    assert planted is None or planted in {r.name for r in reports}
    draw = workloads.Draw("verify-transformed", 7)
    for kind in ("translation", "scaling", "inversion"):
        g = workloads._elementary_curve(draw, kind)
        pushed = transform_coefficients(eq, g)
        x0s = [theta_apply(g, span[0], x0) for x0 in problem.initial_conditions]
        for report in reports:
            moved = dataclasses.replace(
                report, curve=compose(report.curve, inverse(g)), diagnostics={})
            assert holds_on_solve_grid(moved, pushed, span, step), (
                kind, report.name, moved.diagnostics)
            for x0, traj in zip(x0s, solve_via_report(moved, x0s, span, step)):
                direct = integrate_direct(pushed, x0, span, step)
                assert direct.error is None
                assert _points_dev(traj.values, direct.values) <= 1e-6, (
                    kind, report.name, str(x0))
