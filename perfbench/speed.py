"""Speed probe: a fixed piece of pure-Python work, timed beside each
measurement so that the benchmark can report times at a reference
machine speed.

The benchmark's host is shared: the same interpreter work can take twice
as long for tens of seconds when neighbours are busy, and process CPU
time slows with it, so neither wall nor CPU time of a run is steady.
The probe slows in step with the program.  ``scale(before, after)`` is
the factor that turns a wall time measured between two probes into
seconds on a machine where one probe takes ``REFERENCE_S``: the probe's
time on an uncontended core of the 2-core x86-64 host the benchmark was
tuned on, so scaled times read as that host's quiet wall times.

The probe walks a small expression tree of its own classes, the kind of
work the program does, and uses nothing from ``riccati_sl2``, so a
change to the program cannot change the probe.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_S = 0.00165
POINTS = 100


class _Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def ev(self, t):
        return self.value


class _Var:
    __slots__ = ()

    def ev(self, t):
        return t


class _Add:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def ev(self, t):
        return self.left.ev(t) + self.right.ev(t)


class _Mul(_Add):
    __slots__ = ()

    def ev(self, t):
        return self.left.ev(t) * self.right.ev(t)


class _Exp:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def ev(self, t):
        return math.exp(self.arg.ev(t))


def _tree(depth: int):
    if depth == 0:
        return _Add(_Mul(_Const(0.3), _Var()), _Const(0.1))
    return _Add(_Mul(_tree(depth - 1), _Const(0.5)),
                _Exp(_Mul(_Const(-0.2), _tree(depth - 1))))


_TREE = _tree(5)


def probe() -> float:
    """Wall seconds for one fixed pass of evaluations."""
    t0 = perf_counter()
    for i in range(POINTS):
        _TREE.ev(i / POINTS)
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work timed
    between a probe that took ``before`` and one that took ``after``."""
    return REFERENCE_S / (0.5 * (before + after))
