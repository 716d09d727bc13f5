"""Property tests of the algebraic laws the reductions rest on: the
printer and parser, the Möbius action, composition of curve actions on
coefficients, and exact differentiation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import PLAIN_TREES, TREE_LEAVES, tree_operations

from riccati_sl2 import (INF, Const, CurveSL2, EvalDomainError, ExtReal, Mat2,
                         RiccatiEquation, T, compose, differentiate, evaluate,
                         exp, ext, mobius_apply, mobius_apply_array, parse,
                         transform_coefficients)
from riccati_sl2.criteria import max_pair_deviation

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


# Floats at the edges Hypothesis favours, and ones with inexact quotients.
_MOBIUS_FLOATS = st.one_of(st.floats(-1e3, 1e3),
                           st.integers(-10**6, 10**6).map(lambda n: n / 977.0))


@st.composite
def _mobius_cases(draw):
    """A matrix and a point, mixing generic cases with the edges of
    :func:`mobius_apply`: the point at infinity, exact and near poles,
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


def _scalar_outcome(entries, x):
    try:
        return float(mobius_apply(Mat2(*entries), ext(x))), None
    except ValueError as exc:
        return None, exc


@given(cases=st.lists(_mobius_cases(), min_size=1, max_size=8))
def test_array_mobius_map_is_mobius_apply_bit_for_bit(cases):
    outcomes = [_scalar_outcome(m, x) for m, x in cases]
    entries = np.array([m for m, _ in cases]).T
    xs = np.array([x for _, x in cases])
    failure = next((exc for _, exc in outcomes if exc is not None), None)
    if failure is not None:
        with pytest.raises(ValueError) as got:
            mobius_apply_array(*entries, xs)
        assert type(got.value) is type(failure)
        assert str(got.value) == str(failure)
    else:
        want = np.array([v for v, _ in outcomes])
        assert mobius_apply_array(*entries, xs).tobytes() == want.tobytes()
