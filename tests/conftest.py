"""Shared helpers: relative comparisons on the compactified line, the
node-by-node reference evaluator and seeded random instance generators."""

import math
import os
import random
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st

import riccati_sl2.expr as expr_module
import riccati_sl2.riccati as riccati_module
from riccati_sl2 import (Add, Call, Const, CurveSL2, EvalDomainError, Integral,
                         Mul, Neg, Pow, QuadratureError, RiccatiEquation, Sub,
                         T, Var, arctan, as_expr, compose, exp, log, parse, sin,
                         sqrt, tanh)
from riccati_sl2.cli import load_problem

# The CLI tests start `python -m riccati_sl2` in child interpreters; they
# import the package from the source tree as this process does.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

# Property tests replay the same examples on every run, so a failure
# reproduces, and a host whose speed swings cannot fail them on time.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

# Points with |x| above this sit next to a crossing through infinity and
# are excluded from relative comparisons.
CAP = 10.0


def rel_dev(a, b, cap=CAP):
    """Relative deviation between two ExtReal samples, or None when the
    pair is too close to a crossing to compare."""
    if a.is_inf or b.is_inf:
        return None
    if abs(a.value) > cap or abs(b.value) > cap:
        return None
    return abs(a.value - b.value) / (1.0 + max(abs(a.value), abs(b.value)))


def max_traj_dev(xs_a, xs_b, min_frac=0.5, cap=CAP):
    """Max relative deviation over comparable samples; fails if too few
    samples were comparable for the comparison to mean anything."""
    assert len(xs_a) == len(xs_b)
    devs = [rel_dev(a, b, cap) for a, b in zip(xs_a, xs_b)]
    kept = [d for d in devs if d is not None]
    assert len(kept) >= min_frac * len(devs), (
        f"only {len(kept)}/{len(devs)} samples comparable")
    return max(kept)


def traj_vs_fn(traj, fn, cap=CAP):
    """Max absolute deviation of a trajectory against a closed-form
    reference, skipping samples near crossings."""
    worst = 0.0
    compared = 0
    for t, x in zip(traj.ts, traj.xs):
        y = fn(t)
        if x.is_inf or abs(x.value) > cap or abs(y) > cap:
            continue
        compared += 1
        worst = max(worst, abs(x.value - y))
    assert compared > len(traj.ts) // 2
    return worst


def subtrees(e):
    """``e`` and every node under it, depth first, repeats included."""
    yield e
    for name in e.__match_args__:
        child = getattr(e, name)
        if isinstance(child, expr_module.Expr):
            yield from subtrees(child)


# The reference for the grid evaluator: each tree built into a function
# of one time that evaluates it node by node with scalar math functions,
# each deferred integral an adaptive quadrature of that function.

_SCALAR = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log,
           "sin": math.sin, "cos": math.cos, "tan": math.tan,
           "tanh": math.tanh, "arctan": math.atan}


def scalar_function(e):
    """The function of a float t that evaluates e at t; it raises
    EvalDomainError at the first domain failure met, QuadratureError, or
    OverflowError."""
    cls = type(e)
    if cls is Const:
        return lambda t, v=e.value: v
    if cls is Var:
        return lambda t: t
    if cls is Neg:
        a = scalar_function(e.arg)
        return lambda t: -a(t)
    if cls is Integral:
        f = scalar_function(e.integrand)
        return lambda t: _scalar_quad(f, e.integrand, t)
    if cls is Call:
        a, fn = scalar_function(e.arg), _SCALAR[e.name]
        rule = expr_module._FUNCTIONS[e.name][1]
        if rule is None:
            return lambda t: fn(a(t))

        def call(t):
            u = a(t)
            if rule[0](u):
                raise EvalDomainError(rule[1], e)
            return fn(u)
        return call
    if cls is Pow:
        b, n = scalar_function(e.base), e.exponent

        def power(t):
            v = b(t)
            if v == 0.0 and n < 0:
                raise EvalDomainError("division by zero", e)
            return v ** n
        return power
    left, right = scalar_function(e.left), scalar_function(e.right)
    if cls is Add:
        return lambda t: left(t) + right(t)
    if cls is Sub:
        return lambda t: left(t) - right(t)
    if cls is Mul:
        return lambda t: left(t) * right(t)

    def divide(t):
        den = right(t)
        if den == 0.0:
            raise EvalDomainError("division by zero", e)
        return left(t) / den
    return divide


def _scalar_quad(f, integrand, t):
    value, abserr, _ = expr_module.quad(lambda xs: [f(x) for x in xs.tolist()], 0.0, t)
    if abserr > 1e-10 * (1.0 + abs(value)):
        raise QuadratureError(f"quadrature of '{integrand}' did not converge")
    return value


def scalar_evaluator(e):
    """The function of t that ``evaluate`` is, by the reference: a finite
    float, or the EvalDomainError or QuadratureError met first."""
    f = scalar_function(e)

    def value(t):
        try:
            v = f(float(t))
        except OverflowError as exc:
            raise EvalDomainError("overflow", e) from exc
        if not math.isfinite(v):
            raise EvalDomainError("overflow", e)
        return v
    return value


def grid(ta=0.0, tb=1.0, n=101):
    return [ta + i * (tb - ta) / (n - 1) for i in range(n)]


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def bundled_problems():
    """The problem files shipped in problems/, loaded, in name order."""
    return [load_problem(p) for p in sorted(PROBLEMS.glob("*.json"))]


def random_poly(rng: random.Random, degree=3, scale=1.0):
    e = as_expr(rng.uniform(-scale, scale))
    for p in range(1, degree + 1):
        e = e + Const(rng.uniform(-scale, scale)) * T ** p
    return e


def random_coefficient(rng: random.Random):
    if rng.random() < 0.5:
        return random_poly(rng)
    return Const(rng.uniform(-1.0, 1.0)) * exp(Const(rng.uniform(-1.0, 1.0)) * T)


def random_equation(rng: random.Random) -> RiccatiEquation:
    return RiccatiEquation(random_coefficient(rng), random_coefficient(rng),
                           random_coefficient(rng))


def random_elementary_curve(rng: random.Random) -> CurveSL2:
    kind = rng.choice(("translation", "scaling", "inversion"))
    if kind == "translation":
        return CurveSL2.translation(random_poly(rng, degree=2))
    if kind == "scaling":
        return CurveSL2.scaling(exp(random_poly(rng, degree=2, scale=0.5)))
    return CurveSL2.inversion()


def random_curve(rng: random.Random, n_min=2, n_max=4) -> CurveSL2:
    c = random_elementary_curve(rng)
    for _ in range(rng.randint(n_min, n_max) - 1):
        c = compose(random_elementary_curve(rng), c)
    return c


# Hypothesis strategies for expression trees that evaluate everywhere:
# every denominator, square root and logarithm argument is positive.
TREE_LEAVES = st.one_of(st.just(T), st.floats(-2.0, 2.0).map(Const))


def tree_operations(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] - p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        pairs.map(lambda p: p[0] / (2.0 + p[1] ** 2)),
        children.map(sin), children.map(tanh), children.map(arctan),
        children.map(lambda a: exp(arctan(a))),
        children.map(lambda a: sqrt(1.0 + a ** 2)),
        children.map(lambda a: log(1.0 + a ** 2)))


PLAIN_TREES = st.recursive(TREE_LEAVES, tree_operations, max_leaves=5)


# The RK4 stage sampling with the stage times interleaved by np.insert,
# kept as the reference that the integrators' reference loops read.

def reference_stage_samples(coeffs, grid, h):
    block = riccati_module._BLOCK_STEPS
    blocks = (np.array(grid[k:k + block + 1]) for k in range(0, len(grid) - 1, block))
    times = (np.insert(t, np.arange(1, len(t)), t[:-1] + 0.5 * h) for t in blocks)
    for vals, failures in expr_module._sample(coeffs, times):
        first = min(failures, default=vals.shape[1] + 1)
        yield (*vals.tolist(), max(0, (first - 1) // 2), failures.get(first))


@st.composite
def rk4_cases(draw):
    """(equation, t_span, step) for the RK4 integrators: plain trees, b2
    scaled up to 1e300 (fast blow-up, an overflowing state), b1 failing
    from a time inside the span or not at all, and spans of 1 to 1,100
    steps, so that some cross a 512-step block boundary."""
    b0, b1, b2 = (draw(PLAIN_TREES) for _ in range(3))
    b2 = Const(draw(st.sampled_from([8.0, 1.0, 1e300]))) * b2
    ta = draw(st.floats(-1.0, 1.0))
    steps = draw(st.sampled_from([513, 1100, 300, 511, 512, 7, 1]))
    step = draw(st.sampled_from([1e-3, 4e-3]))
    if draw(st.booleans()):
        b1 = b1 + log(Const(ta + draw(st.floats(0.0, 1.0)) * steps * step) - T)
    return RiccatiEquation(b0, b1, b2), (ta, ta + steps * step), step


# RK4 cases that each property run meets: a state held at exactly 1,
# an inf sample (x' = x^2 from 1 reaches infinity at t = 1, a grid
# time), a state that overflows, a coefficient that fails in the second
# block, and chart switches over four blocks.
RK4_EXAMPLES = [
    (RiccatiEquation.of(0, 0, 0), (0.0, 0.01), 1e-3),
    (RiccatiEquation.of(0, 0, 1), (0.0, 2.0), 1e-3),
    (RiccatiEquation(parse("0.5 + t"), parse("t"), parse("1e300*(1 - t)")),
     (0.0, 1.0), 1e-3),
    (RiccatiEquation(parse("1"), parse("log(0.8 - t)"), parse("-1")),
     (0.0, 1.1), 1e-3),
    (RiccatiEquation(parse("1 + t"), parse("sin(3*t)"), parse("2 - t^2")),
     (0.0, 2.0), 1e-3),
]
