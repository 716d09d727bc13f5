"""Symbolic expressions in one variable ``t``.

A small, closed expression language for time-dependent coefficient
functions: arithmetic, integer powers, a fixed set of elementary
functions, and a deferred definite integral ``integral(e)`` standing for
the map t -> integral of e(s) ds from 0 to t, evaluated cumulatively
over the cells of a grid by :func:`evaluate_grid` with Gauss-Kronrod
quadrature (a single point is a one-point grid); an integral nested in
another's integrand is integrated on the outer cells' own 15 nodes, by
one 15x15 matrix per cell.  Nodes are interned:
equal trees are one object and ``==`` is ``is``.  Differentiation is
exact on the whole grammar (an integral gives back its integrand).
Within one :func:`session` each node is differentiated and printed
once, and the subtrees of a grid run that fails nowhere and holds no
integral are computed once per grid.

The text syntax accepted by :func:`parse` is also the coefficient syntax
of the CLI problem files: infix ``+ - * / ^`` (``**`` is accepted for
``^``) with the usual precedence, parentheses, finite decimal literals, the
variable ``t``, and calls of ``sqrt exp log sin cos tan tanh arctan
integral``.

There is deliberately no general simplifier.  Only local constant
folding is performed (``0*e -> 0``, ``e+0 -> e``, ``1*e -> e`` and
arithmetic on literal constants), so ``t + 1`` and ``1 + t`` stay two
trees; everything downstream compares expressions numerically on grids.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import math
import re
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Integral", "T", "ZERO", "ONE",
    "parse", "evaluate", "evaluate_grid", "differentiate", "substitute",
    "session",
    "integral_from",
    "as_expr", "sqrt", "exp", "log", "sin", "cos", "tan", "tanh",
    "arctan", "integral",
    "ExprError", "ParseError", "EvalDomainError", "QuadratureError",
]


class ExprError(ValueError):
    """Base class for errors raised by this module."""


class ParseError(ExprError):
    """Syntax error in expression text, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of non-positive, sqrt of
    negative, division by zero, overflow).  Carries the offending
    subexpression."""

    def __init__(self, kind: str, subexpr: "Expr"):
        super().__init__(f"{kind} in '{subexpr}'")
        self.kind = kind
        self.subexpr = subexpr


class QuadratureError(ExprError):
    """Adaptive quadrature of a deferred integral did not converge."""


class Expr:
    """Abstract expression node, immutable and interned: equal trees are
    one object, compared and hashed by identity.  Supports ``+ - * / **``
    against other expressions and numbers."""

    __slots__ = ("__weakref__",)
    precedence = 4

    def __new__(cls, *fields):
        # The live node equal to cls(*fields), else a new one, its fields set
        # once.  A constant is a float; 0.0 and -0.0 print as 0 and -0.
        if cls is Const:
            fields = (float(fields[0]),)
            key = (cls, *fields, math.copysign(1.0, fields[0]))
        else:
            key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            # The entry goes with its node, unless an equal node replaced it.
            _NODES[key] = weakref.ref(node, lambda ref, key=key, nodes=_NODES: (
                nodes.get(key) is ref and nodes.pop(key)))
        return node

    def ev(self, t: float) -> float:
        return evaluate(self, t)

    def diff(self) -> "Expr":
        """This node's rule of differentiation, given its children's
        derivatives from the current session (or a fresh one)."""
        raise NotImplementedError

    def _fmt(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return _text(self)

    # Operator sugar; numbers coerce to Const.
    def __add__(self, other):
        return _add(self, as_expr(other))

    def __radd__(self, other):
        return _add(as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, as_expr(other))

    def __rsub__(self, other):
        return _sub(as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, as_expr(other))

    def __rmul__(self, other):
        return _mul(as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, as_expr(other))

    def __rtruediv__(self, other):
        return _div(as_expr(other), self)

    def __pow__(self, n):
        return _pow(self, n)

    def __neg__(self):
        return _neg(self)


# The live nodes: (class, *fields) -> weak reference to the node.
_NODES: dict[tuple, weakref.ref] = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Const(Expr):
    value: float

    def diff(self):
        return ZERO

    def _fmt(self):
        return format(self.value, ".17g")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(Expr):
    """The independent variable t."""

    def diff(self):
        return ONE

    def _fmt(self):
        return "t"


def _prec_of(e: Expr) -> int:
    # A negative literal prints with a leading '-', so it binds like Neg.
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        return 2
    return e.precedence


def _wrap(e: Expr, minimum: int) -> str:
    s = _text(e)
    return f"({s})" if _prec_of(e) < minimum else s


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Neg(Expr):
    arg: Expr
    precedence = 2

    def diff(self):
        return _neg(_derivative(self.arg))

    def _fmt(self):
        return "-" + _wrap(self.arg, 2)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class _Binary(Expr):
    """An infix node ``left symbol right``.  The right operand keeps its
    parentheses when it is an infix node of no higher precedence (all
    lower ones are), so the text re-parses to the same tree and value."""

    left: Expr
    right: Expr

    def _fmt(self):
        r, prec = self.right, self.precedence
        rs = _text(r)
        if isinstance(r, _Binary) and r.precedence <= prec:
            rs = f"({rs})"
        return f"{_wrap(self.left, prec)}{self.symbol}{rs}"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Add(_Binary):
    precedence = 1
    symbol = " + "

    def diff(self):
        return _add(_derivative(self.left), _derivative(self.right))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Sub(_Binary):
    precedence = 1
    symbol = " - "

    def diff(self):
        return _sub(_derivative(self.left), _derivative(self.right))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Mul(_Binary):
    precedence = 2
    symbol = "*"

    def diff(self):
        return _add(_mul(_derivative(self.left), self.right),
                    _mul(self.left, _derivative(self.right)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Div(_Binary):
    precedence = 2
    symbol = "/"

    def diff(self):
        num = _sub(_mul(_derivative(self.left), self.right),
                   _mul(self.left, _derivative(self.right)))
        return _div(num, _pow(self.right, 2))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Pow(Expr):
    base: Expr
    exponent: int
    precedence = 3

    def diff(self):
        n = self.exponent
        return _mul(_mul(Const(n), _pow(self.base, n - 1)),
                    _derivative(self.base))

    def _fmt(self):
        bs = _wrap(self.base, 4)
        return f"{bs}^{self.exponent}"


# The functions of the grammar: name -> (numpy ufunc, domain rule,
# derivative).  The rule is None or the test of the arguments the
# function rejects and the EvalDomainError kind; the derivative maps the
# argument u and its derivative du to the derivative of the call.
_FUNCTIONS = {
    "sqrt": (np.sqrt, (lambda u: u < 0.0, "sqrt of negative value"),
             lambda u, du: _div(du, _mul(Const(2.0), Call("sqrt", u)))),
    "exp": (np.exp, None, lambda u, du: _mul(du, Call("exp", u))),
    "log": (np.log, (lambda u: u <= 0.0, "log of non-positive value"),
            lambda u, du: _div(du, u)),
    "sin": (np.sin, None, lambda u, du: _mul(du, Call("cos", u))),
    "cos": (np.cos, None, lambda u, du: _neg(_mul(du, Call("sin", u)))),
    "tan": (np.tan, None, lambda u, du: _div(du, _pow(Call("cos", u), 2))),
    "tanh": (np.tanh, None,
             lambda u, du: _mul(du, _sub(ONE, _pow(Call("tanh", u), 2)))),
    "arctan": (np.arctan, None, lambda u, du: _div(du, _add(ONE, _pow(u, 2)))),
}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Call(Expr):
    name: str
    arg: Expr

    def diff(self):
        return _FUNCTIONS[self.name][2](self.arg, _derivative(self.arg))

    def _fmt(self):
        return f"{self.name}({_text(self.arg)})"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Integral(Expr):
    """Deferred definite integral of the integrand from 0 to t (see
    :func:`evaluate_grid`)."""

    integrand: Expr

    def diff(self):
        return self.integrand

    def _fmt(self):
        return f"integral({_text(self.integrand)})"


ZERO = Const(0.0)
ONE = Const(1.0)
T = Var()


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot interpret {v!r} as an expression")


# Folding constructors.  Only local constant folding; no rewriting.

def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0.0:
            return b
        if isinstance(b, Const):
            return Const(a.value + b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 0.0:
            return a
        if isinstance(a, Const):
            return Const(a.value - b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
        if isinstance(b, Const):
            return Const(a.value * b.value)
    if isinstance(b, Const):
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if isinstance(a, Const) and b.value != 0.0:
            return Const(a.value / b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return ZERO
    return Div(a, b)


def _pow(a: Expr, n) -> Expr:
    if not isinstance(n, int):
        raise TypeError("power exponent must be an integer")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Const) and not (a.value == 0.0 and n < 0):
        try:
            return Const(a.value ** n)
        except OverflowError:
            pass
    return Pow(a, n)


def _builder(name: str):
    def build(e) -> Expr:
        return Call(name, as_expr(e))
    build.__name__ = build.__qualname__ = name
    return build


# Named builders for the function grammar, one per row of _FUNCTIONS.
sqrt, exp, log, sin, cos, tan, tanh, arctan = map(_builder, _FUNCTIONS)


def integral(e) -> Expr:
    return Integral(as_expr(e))


def integral_from(e, lower: float) -> Expr:
    """Integral of ``e`` from ``lower`` to t, as an expression.

    Anchors other than 0 are handled by subtracting the constant value
    of the 0-anchored node at ``lower``.
    """
    node = Integral(as_expr(e))
    if lower == 0.0:
        return node
    return _sub(node, Const(evaluate(node, lower)))


def evaluate(e: Expr, t: float) -> float:
    """Evaluate ``e`` at ``t``, as a one-point grid.  Returns a finite
    float or raises :class:`EvalDomainError` / :class:`QuadratureError`."""
    return float(evaluate_grid(e, (float(t),))[0])


# Grid evaluation.

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): the 15 Kronrod
# nodes in increasing order, their weights, and the weights of the
# embedded 7-point Gauss rule, which uses every other node.
_GK_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
         0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
         0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
         0.207784955007898467600689403773245)
_GK_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649)
_GK_WK0 = 0.209482141084727828012999174891714
_GK_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
          0.381830050505118944950369775488975)
_GK_WG0 = 0.417959183673469387755102040816327
_XK = np.array([-x for x in _GK_X] + [0.0] + list(reversed(_GK_X)))
_WK = np.array(list(_GK_WK) + [_GK_WK0] + list(reversed(_GK_WK)))
_WG = np.zeros(15)
_WG[1::2] = list(_GK_WG) + [_GK_WG0] + list(reversed(_GK_WG))
_WKG = np.array([_WK, _WG])


def _partial_weights() -> np.ndarray:
    """The 15x15 matrix whose row j integrates, from -1 to the j-th
    Kronrod node, the polynomial of degree 14 through the values at the
    15 nodes: entry (j, k) integrates the k-th Lagrange basis polynomial,
    by the Kronrod rule mapped onto [-1, x_j], exact to degree 22.  Over
    [-1, 1] the same integrals are the Kronrod weights."""
    half = 0.5 * (_XK + 1.0)
    at = half[:, None] * (_XK + 1.0) - 1.0  # (row j, node m of [-1, x_j])
    gaps = at[:, :, None] - _XK
    spans = _XK[:, None] - _XK
    basis = np.empty((15, 15, 15))  # (j, m, k): basis polynomial k at node m
    for k in range(15):
        others = [i for i in range(15) if i != k]
        basis[:, :, k] = gaps[:, :, others].prod(axis=2) / spans[k, others].prod()
    return half[:, None] * (basis * _WK[:, None]).sum(axis=1)


_WS = _partial_weights()

# Requested accuracy of quad, absolute and relative.  Cells whose
# Kronrod and Gauss sums differ by more than this (absolute, or relative
# to the Kronrod sum) are integrated again by quad.
_CELL_TOL = 1e-13
_EPS = np.finfo(float).eps


def quad(f, a: float, b: float):
    """Integral of f over [a, b] by globally adaptive Gauss-Kronrod 7/15
    quadrature (QUADPACK's QAG with the qk15 error estimate): the
    subinterval with the largest error estimate is bisected until the
    estimates sum to at most 1e-13, absolute or relative to the value,
    500 subintervals are in use, or roundoff stops the estimates from
    falling.  ``f`` maps the 15 nodes of a subinterval, in increasing
    order, to their values.  Returns the value, the error estimate and
    ``{"neval": n}``."""
    if a == b:
        return 0.0, 0.0, {"neval": 0}

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        fv = np.asarray(f(0.5 * (lo + hi) + half * _XK), dtype=float)
        k, g = (_WKG @ fv).tolist()
        asc, res = (half * (np.abs((fv - 0.5 * k, fv)) @ _WK)).tolist()
        err = half * abs(k - g)
        if asc and err:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        # A heap entry, largest error first.
        return -max(err, 50.0 * _EPS * res), lo, hi, half * k

    heap = [rule(min(a, b), max(a, b))]
    value, error = heap[0][3], -heap[0][0]
    roundoff = growth = 0
    while (error > _CELL_TOL * max(1.0, abs(value)) and len(heap) < 500
           and roundoff < 6 and growth < 20):
        neg_err, lo, hi, v = heapq.heappop(heap)
        left, right = rule(lo, 0.5 * (lo + hi)), rule(0.5 * (lo + hi), hi)
        v2, err2 = left[3] + right[3], -left[0] - right[0]
        # QUADPACK's roundoff counts: bisections that change neither the
        # value nor the error estimate, and (past 10 subintervals) ones
        # that raise the estimate.
        roundoff += abs(v - v2) <= 1e-5 * abs(v2) and err2 >= -0.99 * neg_err
        growth += len(heap) >= 9 and err2 > -neg_err
        value += v2 - v
        error += err2 + neg_err
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
    value = sum(part[3] for part in heap)
    error = sum(-part[0] for part in heap)
    # One rule for the whole interval, then two per bisection.
    return (value if a < b else -value), error, {"neval": 15 * (2 * len(heap) - 1)}


# Cells per batch of a top-level integral's integrand evaluations.  The
# integrals nested in it evaluate their integrands on the same
# 15 * _BLOCK nodes, which bounds the memory of each nesting level.
_BLOCK = 256

_DIV0 = "division by zero"
_OVERFLOW = "overflow"

# Bytes of grid values (and of the times that key them) that one session
# keeps at most, so that what it keeps does not grow with the length of
# the interval: a long solve samples its stage times in many blocks.
# Past it, runs still read what is kept but add nothing.  A command on
# the bundled and benchmark problems keeps under 1 MB.
_SESSION_BYTES = 2 << 20


class _Session:
    """What one :func:`session` keeps: each node's derivative and printed
    text, the subtree values of the outermost grid runs that failed
    nowhere and held no integral, keyed by their times (each key also by
    its even-indexed times), and RK4 stage samplings, up to
    ``_SESSION_BYTES`` in all; with counts of each computed and reused,
    of the cells integrals summed by a 15-node rule, of the calls of
    :func:`quad`, of the outermost grid runs, and of the RK4 steps."""

    def __init__(self):
        self.derivatives: dict[Expr, Expr] = {}
        self.texts: dict[Expr, str] = {}
        self.reprinted = 0
        self.grids: dict[bytes, dict[Expr, np.ndarray]] = {}
        self.halves: dict[bytes, bytes] = {}
        self.samplings: dict[tuple, tuple] = {}  # see riccati._stage_samples
        self.kept_bytes = 0
        self.depth = 0  # grid runs in progress
        self.computed = self.reused = self.derived = self.rederived = 0
        self.cells = self.quads = self.runs = 0
        self.rk4_steps = self.chart_switches = 0  # of integrate_direct
        self.group_steps = self.samplings_reused = 0

    def room(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more fit, counting them in if so."""
        if self.kept_bytes + nbytes > _SESSION_BYTES:
            return False
        self.kept_bytes += nbytes
        return True

    def counts(self) -> dict[str, int]:
        return {"expr.evaluate_grid.subtrees_computed": self.computed,
                "expr.evaluate_grid.subtrees_reused": self.reused,
                "expr.differentiate.nodes_computed": self.derived,
                "expr.differentiate.nodes_reused": self.rederived,
                "expr.print.texts_computed": len(self.texts),
                "expr.print.texts_reused": self.reprinted,
                "expr.integral.cells": self.cells,
                "expr.quad.calls": self.quads,
                "expr.evaluate_grid.runs": self.runs,
                "riccati.integrate_direct.steps": self.rk4_steps,
                "riccati.integrate_direct.chart_switches": self.chart_switches,
                "sl2.integrate_group_equation.steps": self.group_steps,
                "riccati.stage_samples.reused": self.samplings_reused}


_SESSION: contextvars.ContextVar[_Session | None] = contextvars.ContextVar(
    "riccati_sl2.expr.session", default=None)


@contextlib.contextmanager
def session():
    """Share derivatives, printed texts and grid values across the calls
    in the block, typically one command, and drop them at its end.
    Yields the session, whose ``counts()`` says how much was computed and
    reused.  Outside a session, ``str`` prints the whole tree each time.

    A call of :func:`differentiate`, :func:`evaluate_grid` or
    :func:`evaluate` outside a session runs in a fresh one of its own,
    which the quadratures nested in it share."""
    token = _SESSION.set(_Session())
    try:
        yield _SESSION.get()
    finally:
        _SESSION.reset(token)


def _text(e: Expr) -> str:
    """The printed text of ``e``, made once per session."""
    s = _SESSION.get()
    if s is None:
        return e._fmt()
    text = s.texts.get(e)
    if text is None:
        text = s.texts[e] = e._fmt()
    else:
        s.reprinted += 1
    return text


class _Grid:
    """Evaluates expression trees on successive chunks of non-decreasing
    times, one walk per chunk in which each node, so each distinct
    subtree, is computed once.

    Failures are recorded per point, first one wins, in evaluation
    order: root by root, each tree depth first, a denominator before its
    numerator; the values at failed points are meaningless.  A
    QuadratureError is charged from the failed quadrature's cell on.
    Each integral node keeps its running value from one chunk to the
    next and owns the grid that evaluates its integrand at the
    Gauss-Kronrod nodes of its cells.  On a run given cells, whose times
    are those nodes, the cells are the run's own (the node rule);
    otherwise they lie between consecutive times (the gap rule), as on
    the outermost grid, whose times are arbitrary.  Every integral
    starts at ``origin``, the first time of the outermost grid.

    A run nested in no other reads the values ``session`` keeps for its
    times, or else every other value kept for times whose even-indexed
    ones are its times (as a solve grid is of the RK4 stage times).  If
    it marked no failure and computed no integral, whose value runs on
    from chunk to chunk, it keeps there, room permitting, every value it
    computed; otherwise nothing.  A kept subtree marks nothing when read
    back, as it marked nothing when computed on the same times, and
    numpy gives each element the same bits in any array, so the first
    failure at each point and every value stay the same.  Nested runs,
    on integrand and quadrature grids that seldom repeat, read and keep
    nothing."""

    def __init__(self, origin: float, session: _Session):
        self.origin = origin
        self.session = session
        self._carry: dict[Integral, tuple[float, float, ExprError | str | None]] = {}
        self._subs: dict[Integral, _Grid] = {}

    def run(self, roots, ts: np.ndarray, cells=None):
        """Values of each root at ts, and a dict from the index of each
        failed time to the first error met there.  ``cells``, when given,
        are the bounds (a, b) of contiguous cells whose 15 Gauss-Kronrod
        nodes each ts is, and the integrals use the node rule."""
        self._ts = ts
        self._bounds = cells
        self._failures: dict[int, ExprError] = {}
        self._vals: dict[Expr, np.ndarray] = {}
        self._clean = True
        s = self.session
        key = ts.tobytes() if s.depth == 0 else None  # None when nested
        s.runs += key is not None
        self._kept = s.grids.get(key, {})
        self._halved = s.grids.get(s.halves.get(key), {})
        s.depth += 1
        try:
            outs = []
            for root in roots:
                self._root = root
                v = self._walk(root)
                self._mark(~np.isfinite(v), _OVERFLOW)
                outs.append(v)
        finally:
            s.depth -= 1
        if key is not None and self._clean:
            # t's values are the caller's own times.
            new = {e: v for e, v in self._vals.items()
                   if e is not T and e not in self._kept}
            if new:
                half = ts[::2].tobytes()
                keys = (0 if key in s.grids
                        else len(key) + (half not in s.halves) * len(half))
                if s.room(sum(v.nbytes for v in new.values()) + keys):
                    s.grids.setdefault(key, self._kept).update(new)
                    s.halves.setdefault(half, key)
        self._vals = self._kept = self._halved = None
        return outs, self._failures

    def _mark(self, mask, error, subexpr=None) -> None:
        """Record ``error`` at the masked points not failed already.  A
        string is the kind of an EvalDomainError in ``subexpr``, by
        default the root, where an overflow is charged."""
        hit = mask.nonzero()[0].tolist()
        if not hit:
            return
        self._clean = False
        if isinstance(error, str):
            error = EvalDomainError(error, self._root if subexpr is None else subexpr)
        for i in hit:
            self._failures.setdefault(i, error)

    def _walk(self, e: Expr) -> np.ndarray:
        v = self._vals.get(e)
        if v is None:
            v = self._kept.get(e)
            if v is None and (v := self._halved.get(e)) is not None:
                v = v[::2].copy()  # contiguous, as computed
            if v is not None:
                self.session.reused += 1
            else:
                v = self._compute(e)
                self.session.computed += 1
            self._vals[e] = v
        return v

    def _compute(self, e: Expr) -> np.ndarray:
        # Children are walked, and domain checks made, in evaluation
        # order, so that the first failure at each point is the one a
        # walk of the tree node by node would meet.
        cls = type(e)
        if cls is Const:
            return np.full(len(self._ts), e.value)
        if cls is Var:
            return self._ts
        if cls is Integral:
            self._clean = False
            return self._integral(e)
        if cls is Neg:
            return -self._walk(e.arg)
        if cls is Call:
            u = self._walk(e.arg)
            fn, rule, _ = _FUNCTIONS[e.name]
            if rule is not None:
                self._mark(rule[0](u), rule[1], e)
            out = fn(u)
            self._mark(np.isinf(out) & np.isfinite(u), _OVERFLOW)
            return out
        if cls is Pow:
            b = self._walk(e.base)
            if e.exponent < 0:
                self._mark(b == 0.0, _DIV0, e)
            out = np.power(b, float(e.exponent))
            self._mark(np.isinf(out) & np.isfinite(b), _OVERFLOW)
            return out
        if cls is Div:
            r = self._walk(e.right)
            self._mark(r == 0.0, _DIV0, e)
            return np.divide(self._walk(e.left), r)
        return _BINARY[cls][0](self._walk(e.left), self._walk(e.right))

    def _integral(self, e: Integral) -> np.ndarray:
        """Running integral at every time of the chunk, from the value
        carried in from the previous chunk (at first, the quadrature from
        0 to the origin), by the node rule on a run with cells and by
        the gap rule on any other."""
        t_c, v_c, reason = self._carry.get(e) or self._start(e)
        rule = self._gaps if self._bounds is None else self._nodes
        out, first_bad, reason, carry = rule(e, t_c, v_c, reason)
        if reason is not None:
            if getattr(reason, "kind", None) == _OVERFLOW:
                reason = _OVERFLOW  # charged to this grid's root
            self._mark(np.arange(len(out)) >= first_bad, reason)
        self._carry[e] = (*carry, reason)
        return out

    def _gaps(self, e: Integral, t_c: float, v_c: float, reason):
        """The gap rule, for times in any non-decreasing order: the
        carried value plus the sums over the cells between consecutive
        times.  Returns the values, the index of the first failed time,
        the failure (or None) and the carry (last time, value there)."""
        ts = self._ts
        lo = np.concatenate(([t_c], ts[:-1]))
        if (ts < lo).any():
            raise ValueError("grid times must be non-decreasing")
        cells = np.zeros(len(ts))
        first_bad = 0 if reason is not None else len(ts)
        if reason is None:
            live = np.flatnonzero(ts > lo)
            for s in range(0, len(live), _BLOCK):
                idx = live[s:s + _BLOCK]
                a, b = lo[idx], ts[idx]
                nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _XK).ravel()
                sums, _, reason = self._cell_sums(e, a, b, nodes)
                cells[idx[:len(sums)]] = sums
                if reason is not None:
                    first_bad = idx[len(sums)]
                    break
        cells[first_bad:] = math.nan
        out = np.cumsum(np.concatenate(([v_c], cells)))[1:]
        return out, first_bad, reason, (float(ts[-1]), float(out[-1]))

    def _nodes(self, e: Integral, t_c: float, v_c: float, reason):
        """The node rule, for a run whose times are the 15 nodes of each
        of its contiguous cells [a_i, b_i], the first starting at the
        carried time: the value at node j of cell i is the value at a_i
        plus the integral over [a_i, x_ij] of the degree-14 interpolant
        of the integrand on the cell's nodes.  Returns what
        :meth:`_gaps` does, with the carry at the last cell's end."""
        a, b = self._bounds
        out = np.full(len(self._ts), math.nan)
        if reason is not None:
            return out, 0, reason, (t_c, v_c)
        sums, parts, reason = self._cell_sums(e, a, b, self._ts, partial=True)
        n = len(sums)
        starts = np.cumsum(np.concatenate(([v_c], sums)))
        out[:15 * n] = (starts[:-1, None] + parts[:n]).ravel()
        return (out, len(out) if reason is None else 15 * n, reason,
                (float(b[-1]), float(starts[-1])))

    def _cell_sums(self, e: Integral, a: np.ndarray, b: np.ndarray,
                   nodes: np.ndarray, partial: bool = False):
        """Integrals of e's integrand over the contiguous cells [a, b],
        whose 15 Gauss-Kronrod nodes each are ``nodes``, up to the first
        cell where it fails, and that failure (or None).  The integrand
        is evaluated on the nodes in e's own grid, given the same cells.
        With ``partial``, also the integrals from each cell's start to
        its nodes, one row per cell (else None).  A cell whose Kronrod
        and Gauss sums differ by more than ``_CELL_TOL`` (absolute, or
        relative to the Kronrod sum) is integrated again by quad, and so
        is each of its nodes' partials."""
        f = e.integrand
        sub = self._subs.get(e)
        if sub is None:
            sub = self._subs[e] = _Grid(self.origin, self.session)
        (fv,), failures = sub.run((f,), nodes, (a, b))
        first = min(failures, default=None)
        n = len(a) if first is None else first // 15
        reason = failures.get(first)
        self.session.cells += n
        fv = fv.reshape(-1, 15)[:n]
        half = 0.5 * (b[:n] - a[:n])
        sums = half * (fv * _WK).sum(axis=1)
        gauss = half * (fv * _WG).sum(axis=1)
        parts = half[:, None] * np.einsum("ik,jk->ij", fv, _WS) if partial else None
        for i in np.flatnonzero(np.abs(sums - gauss)
                                > np.maximum(_CELL_TOL, _CELL_TOL * np.abs(sums))):
            ends = [b[i], *(nodes[15 * i:15 * i + 15] if partial else ())]
            values = []
            for end in ends:
                value, failure = self._quad(f, float(a[i]), float(end))
                if failure is not None:
                    return sums[:i], parts, failure
                values.append(value)
            sums[i] = values[0]
            if partial:
                parts[i] = values[1:]
        return sums, parts, reason

    def _start(self, e: Integral):
        t0 = self.origin
        if t0 == 0.0:
            return t0, 0.0, None
        return (t0, *self._quad(e.integrand, 0.0, t0))

    def _quad(self, f: Expr, a: float, b: float):
        """The integral of f from a to b by :func:`quad` on grid
        evaluations of f, and None; or NaN and the failure: the error
        evaluating f raised, or a QuadratureError when the error estimate
        is too large."""
        self.session.quads += 1
        try:
            value, abserr, _ = quad(lambda ts: evaluate_grid(f, ts), a, b)
        except (EvalDomainError, QuadratureError) as exc:
            return math.nan, exc
        if abserr > 1e-10 * (1.0 + abs(value)):
            return math.nan, QuadratureError(
                f"quadrature of '{f}' over [{a:.17g}, {b}] did not converge "
                f"(error estimate {abserr:.3g})")
        return value, None


# Each binary node class -> (numpy operation, folding constructor).
_BINARY = {Add: (np.add, _add), Sub: (np.subtract, _sub),
           Mul: (np.multiply, _mul), Div: (np.divide, _div)}


def _sample(roots, chunks):
    """Evaluate ``roots`` on successive chunks of non-decreasing times,
    with every integral running on from one chunk to the next (from the
    first time).  Yields, for each chunk, the values (one row per root,
    meaningless at failed times) and the failures: a dict from the index
    of each failed time to the first error met there."""
    grid = None
    for ts in chunks:
        if grid is None:
            grid = _Grid(float(ts[0]), _SESSION.get() or _Session())
        # Nested quadratures join the grid's session, unset again before the yield.
        token = None if _SESSION.get() else _SESSION.set(grid.session)
        try:
            with np.errstate(all="ignore"):
                outs, failures = grid.run(roots, ts)
        finally:
            if token is not None:
                _SESSION.reset(token)
        yield np.array(outs), failures  # a copy: kept arrays stay in the session


def evaluate_grid(e, ts, *, poles: bool = False) -> np.ndarray:
    """Evaluate ``e`` at every time of ``ts`` in one walk of the tree.

    ``e`` is an expression, giving a 1-D array, or a sequence of
    expressions, giving one row per expression; subexpressions they
    share are computed once.  Deferred integrals are accumulated over
    the cells between consecutive times (which must then be
    non-decreasing) with a Gauss-Kronrod 7/15 rule per cell, falling
    back to :func:`quad` on a cell where the embedded Gauss sum
    disagrees, and start at the first time with :func:`quad` from 0.
    An integral nested in another's integrand takes the outer cells'
    15 nodes as its own: its value at a node is its value at the cell's
    start plus the integral of the degree-14 interpolant of its
    integrand on those nodes, so its integrand is evaluated once per
    node (the node rule; a cell whose Gauss sum disagrees falls back to
    :func:`quad` for its total and for each node).

    Failures raise the first error met at the first failing time:
    :class:`EvalDomainError` with its kind and subexpression, or
    :class:`QuadratureError`.  With ``poles``, a time whose first
    failure is an exact-zero denominator instead comes back as inf.

    Within a :func:`session`, subtrees computed before on the same times,
    by a run that failed nowhere and held no integral, are read back.
    """
    roots = (e,) if isinstance(e, Expr) else tuple(e)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    if len(ts) == 0:
        out = np.empty((len(roots), 0))
    else:
        out, failures = next(_sample(roots, (ts,)))
        for i, err in sorted(failures.items()):
            if not (poles and getattr(err, "kind", None) == _DIV0):
                raise err
            out[:, i] = math.inf
    return out[0] if isinstance(e, Expr) else out


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to t, each node's built
    once per :func:`session`."""
    return _derivative(e)


def _derivative(e: Expr) -> Expr:
    s = _SESSION.get()
    if s is None:
        with session():
            return _derivative(e)
    d = s.derivatives.get(e)
    if d is None:
        d = s.derivatives[e] = e.diff()
        s.derived += 1
    else:
        s.rederived += 1
    return d


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace the variable t by ``replacement`` everywhere in ``e``.

    Not defined for trees containing deferred integrals (their upper
    limit is the variable itself, so composition would leave the
    grammar).
    """
    if isinstance(e, Var):
        return replacement
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return _neg(substitute(e.arg, replacement))
    if isinstance(e, _Binary):
        return _BINARY[type(e)][1](substitute(e.left, replacement),
                                   substitute(e.right, replacement))
    if isinstance(e, Pow):
        return _pow(substitute(e.base, replacement), e.exponent)
    if isinstance(e, Call):
        return Call(e.name, substitute(e.arg, replacement))
    raise ExprError("cannot substitute into a deferred integral")


# Parser.

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# Each infix operator -> its node class, whose precedence the printer reads.
_INFIX = {cls.symbol.strip(): cls for cls in _BINARY}

# The most levels a parsed tree may have: the printer, the grid walk and
# differentiation recurse on each level, and the second derivative of a
# chain of quotients is about six times as high as the chain.  And the
# most parentheses, signs and calls an operand may sit in: each costs
# the parser one or two frames, and parentheses add no level.
_MAX_DEPTH = 50
_MAX_NESTING = 300


def _level(below: int, pos: int) -> int:
    """The levels of a node over ``below`` levels, built at ``pos``."""
    if below >= _MAX_DEPTH:
        raise ParseError(f"expression is more than {_MAX_DEPTH} levels deep", pos)
    return below + 1


class _Parser:
    """Precedence climbing over the tokens: every infix operator is
    left-associative and takes its right operand one level tighter.  No
    number or identifier has an operator's text, so the text alone tells
    an operator token.  Each parse returns its tree and the tree's
    levels as written, which _level bounds at the token of each node."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def expect(self, op: str):
        kind, text, pos = self.tokens[self.i]
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1

    def infix(self, floor: int, nesting: int) -> tuple[Expr, int]:
        """Operands joined by the infix operators of precedence at least
        ``floor``, inside ``nesting`` parentheses, signs and calls."""
        e, levels = self.operand(nesting)
        while True:
            _, text, pos = self.tokens[self.i]
            cls = _INFIX.get(text)
            if cls is None or cls.precedence < floor:
                return e, levels
            self.i += 1
            right, below = self.infix(cls.precedence + 1, nesting)
            e, levels = cls(e, right), _level(max(levels, below), pos)

    def operand(self, nesting: int) -> tuple[Expr, int]:
        """A signed atom and its power: ``-t^2`` is ``-(t^2)``."""
        if nesting > _MAX_NESTING:  # at the sign or parenthesis that opened it
            raise ParseError(f"parentheses, signs and calls nest more than "
                             f"{_MAX_NESTING} deep", self.tokens[self.i - 1][2])
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if text == "-":
            e, below = self.operand(nesting + 1)
            return Neg(e), _level(below, pos)
        if text == "+":
            return self.operand(nesting + 1)
        levels = 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows", pos)
            e = Const(value)
        elif text == "t":
            e = T
        elif kind == "ident":
            if text != "integral" and text not in _FUNCTIONS:
                raise ParseError(f"unknown function or identifier {text!r}", pos)
            self.expect("(")
            inner, below = self.infix(1, nesting + 1)
            self.expect(")")
            e = Integral(inner) if text == "integral" else Call(text, inner)
            levels = _level(below, pos)
        elif text == "(":
            e, levels = self.infix(1, nesting + 1)
            self.expect(")")
        else:
            raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
        _, text, pos = self.tokens[self.i]
        if text in ("^", "**"):
            self.i += 1
            return Pow(e, self.exponent()), _level(levels, pos)
        return e, levels

    def exponent(self) -> int:
        """An integer literal, with a minus sign or not, in any number of
        parentheses."""
        opened = 0
        while self.tokens[self.i][1] == "(":
            opened += 1
            self.i += 1
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        sign = 1
        if text == "-":
            sign = -1
            kind, text, pos = self.tokens[self.i]
            self.i += 1
        if kind != "num" or not text.isdigit():
            raise ParseError("exponent must be an integer literal", pos)
        if not math.isfinite(float(text)):
            raise ParseError(f"exponent {text!r} overflows", pos)
        for _ in range(opened):
            self.expect(")")
        return sign * int(text)


def parse(text: str) -> Expr:
    """Parse expression text into a tree.  Raises :class:`ParseError`
    with the byte offset of the first problem."""
    parser = _Parser(text)
    e, _ = parser.infix(1, 0)
    kind, token, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected {token!r}", pos)
    return e
