"""Seeded problem generator for the three benchmark workloads.

Each workload is a fixed mix of problem families.  The mix is a repeating
schedule of family slots, so every whole cycle of the problem list holds
the stated shares; the seed changes only the numbers drawn inside each
family (see ``Draw``).  Planted families build an equation that satisfies
one detector's condition by construction, from the detector's own
formulas, and record that detector's name so the output check can look
for it.

The generator only builds problem files; it never runs the program on
them, so no problem is kept or dropped by how the program handles it.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from riccati_sl2 import (ONE, Const, CurveSL2, RiccatiEquation, T, compose,
                         differentiate, exp, inverse, transform_coefficients)

WORKLOADS = ("classify-catalogue", "solve-reduced", "verify-transformed")

BUNDLED = ("autonomous", "generic", "table_row4", "tanh", "zh99e")

# Detector that must be satisfied on each bundled problem, when one is
# known from the problem's construction.
BUNDLED_PLANTED = {"autonomous": "RDM05", "generic": None,
                   "table_row4": "Zh99Table4", "tanh": "RDM05",
                   "zh99e": "Zh99E"}

# One schedule cycle per workload: family names in slot order.  The
# shares in BENCHMARK.json are counted from these lists.
SCHEDULES = {
    "classify-catalogue": (
        "RDM05", "Ra61", "AllenStein", "RaoW0", "generic", "RaoK", "Ko06",
        "Zh99Basic", "RU68", "bundled", "Zh99E", "Zh99Table1", "generic",
        "Zh99Table2", "Zh99Table3", "Zh99Table4", "bundled", "Zh99Table5",
        "Zh99Table6", "generic", "RU68", "bundled", "RDM05", "generic",
        "bundled", "Ra61", "bundled", "Ko06"),
    "solve-reduced": (
        "RDM05", "Ra61", "Ko06", "RaoW0", "AllenStein", "RDM05", "generic",
        "RaoK", "Ra61", "tanh", "RDM05", "Ko06", "RaoW0", "generic",
        "AllenStein", "RaoK", "RDM05", "autonomous"),
    "verify-transformed": (
        "Zh99E", "pushed", "Zh99Table1", "Zh99Table2", "pushed",
        "Zh99Table3", "Zh99Table4", "pushed", "Zh99Table5", "Zh99Table6",
        "pushed", "Zh99Table2", "Zh99Table4"),
}

# The percentile reported as latency_tail_s: the highest with at least ten
# samples beyond it in a 12 s run at the reference speed at the commit
# that defined the benchmark (16-17, 3 and 3 cycles).  It is fixed, so that
# a program that completes more or fewer cycles in a run is compared at
# the same percentile.
TAIL_PERCENTILE = {"classify-catalogue": 97.5, "solve-reduced": 80.0,
                   "verify-transformed": 74.0}

COMMANDS = {"classify-catalogue": "classify", "solve-reduced": "solve",
            "verify-transformed": "verify"}

# Problems generated per workload: several schedule cycles, so that a run
# sees many value draws of each problem shape before it repeats a file.
CYCLES = 12


class Draw:
    """Random draws for one workload.  ``shape`` picks structure (degrees,
    function and curve kinds, signs, hint use, initial-condition counts)
    and restarts with every schedule cycle, so every cycle of every seed
    has the same shapes and sizes of problems and a run's mix does not
    depend on how many cycles it completes; ``value`` picks the numbers
    and depends on the seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.value = random.Random(f"{workload}:{seed}")
        self.new_cycle()

    def new_cycle(self) -> None:
        self.shape = random.Random(self.workload)


def _u(rng: Draw, lo: float, hi: float) -> float:
    return round(rng.value.uniform(lo, hi), 3)


def _signed(rng: Draw, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi] from the seed, sign from the shape: signs
    decide which detector preconditions hold, so they are structure."""
    return _u(rng, lo, hi) * rng.shape.choice((-1.0, 1.0))


def _poly(rng: Draw, degree: int, scale: float, c0=None):
    e = Const(_signed(rng, 0.05, scale) if c0 is None else c0)
    for p in range(1, degree + 1):
        e = e + Const(_signed(rng, 0.05, scale)) * T ** p
    return e


def _positive(rng: Draw):
    """A function bounded away from zero and positive on [0, 1]."""
    kind = rng.shape.randrange(3)
    if kind == 0:
        return 1.0 + Const(_u(rng, 0.1, 1.0)) * T ** 2
    if kind == 1:
        return exp(_poly(rng, 1, 0.5))
    return Const(_u(rng, 0.5, 1.5)) + Const(_u(rng, 0.1, 0.8)) * T


def _dlog(e):
    return differentiate(e) / e


# Planted families.  Each returns (equation, hints, planted detector).

def _rdm05(rng):
    r = _signed(rng, 0.3, 1.5)
    b2 = _poly(rng, 1, 0.3, c0=_signed(rng, 0.5, 1.5))
    b1 = _poly(rng, rng.shape.choice((0, 1)), 0.8)
    b0 = -(b1 * Const(r) + b2 * Const(r * r))
    return RiccatiEquation(b0, b1, b2), {}, "RDM05"


def _ra61(rng):
    P = (Const(_signed(rng, 0.05, 0.6)) * T
         + Const(_signed(rng, 0.05, 0.4)) * T ** 2)
    b2 = _positive(rng)
    b0 = -(Const(_u(rng, 0.5, 3.0)) * b2 * exp(2.0 * P))
    return RiccatiEquation(b0, differentiate(P), b2), {}, "Ra61"


def _allen_stein(rng):
    p0 = _poly(rng, rng.shape.choice((1, 2)), 0.5)
    p2 = _poly(rng, 1, 0.5)
    C = _signed(rng, 0.05, 1.0)
    b1 = (Const(C) * exp(0.5 * (p0 + p2))
          - 0.5 * (differentiate(p2) - differentiate(p0)))
    return RiccatiEquation(exp(p0), b1, exp(p2)), {}, "AllenStein"


def _rao_w0(rng):
    q = _poly(rng, rng.shape.choice((1, 2)), 0.5)
    b1 = _poly(rng, 1, 0.8)
    b0 = (b1 * differentiate(q) - differentiate(b1)) * exp(-q)
    return RiccatiEquation(b0, b1, exp(q)), {}, "RaoW0"


def _rao_k(rng):
    v = _positive(rng)
    b1 = Const(_signed(rng, 0.05, 1.0)) * v - _dlog(v)
    b0 = v * v - differentiate(b1)
    return RiccatiEquation(b0, b1, ONE), {}, "RaoK"


def _ko06(rng):
    F = _positive(rng)
    c1 = _signed(rng, 0.5, 2.0)
    b1 = Const(_signed(rng, 0.05, 1.0)) + _dlog(F)
    return RiccatiEquation(F, b1, Const(-c1) / F), {}, "Ko06"


def _zh99_basic(rng):
    p2 = _poly(rng, 1, 0.5)
    pD = _poly(rng, 1, 0.5)
    D = exp(pD)
    b2 = exp(p2)
    c = rng.shape.choice((-1.0, 1.0))
    b0 = Const(c) * D ** 2 / b2
    b = _signed(rng, 0.05, 1.0)
    b1 = differentiate(pD) + Const(b) * D - differentiate(p2)
    return RiccatiEquation(b0, b1, b2), {}, "Zh99Basic"


def _ru68(rng):
    v = exp(_poly(rng, 1, 0.5))
    b0 = _positive(rng)
    k = _signed(rng, 0.05, 1.0)
    c = rng.shape.choice((-1.0, 1.0))
    b1 = (differentiate(v) + Const(k) * b0) / v
    b2 = b0 / (Const(c) * v ** 2)
    hints = {}
    if rng.shape.random() < 0.5:
        hints = {"RU68": {"v": v, "c": c, "k": k}}
    return RiccatiEquation(b0, b1, b2), hints, "RU68"


def _zh99_e(rng):
    b2 = _positive(rng)
    E = _poly(rng, 1, 0.8)
    D = _positive(rng)
    b = _u(rng, 0.5, 1.5)
    b1 = _dlog(D) + Const(b) * D - _dlog(b2) - 2.0 * E * b2
    b0 = D ** 2 / b2 + differentiate(E) - b2 * E ** 2 - b1 * E
    hint = {"E": E, "D": D, "a": 1.0, "b": b, "c": 1.0}
    return RiccatiEquation(b0, b1, b2), {"Zh99E": hint}, "Zh99E"


def _table(row):
    def build(rng):
        b = _u(rng, 0.3, 1.5)
        if row <= 4:
            D = 1.0 + Const(_u(rng, 0.1, 0.8)) * T
            E = _poly(rng, 1, 0.8)
            b2 = ONE
            L = D ** 2  # a = c = 1, so b2 * L = D^2
            if row == 1:
                b0 = D ** 2
                b1 = _dlog(b0) - _dlog(D) + Const(b) * D
            else:
                if row == 2:
                    b1 = _dlog(L) - 2.0 * E * b2 - (_dlog(D) + Const(b) * D)
                elif row == 3:
                    b1 = _dlog(D) - Const(b) * D - 2.0 * E * b2
                else:
                    b1 = _dlog(L) - 2.0 * E * b2 - (_dlog(D) - Const(b) * D)
                b0 = L + differentiate(E) - b2 * E ** 2 - b1 * E
            eq = RiccatiEquation(b0, b1, b2)
            hint = {"D": D, "a": 1.0, "b": b, "c": 1.0}
            if row >= 2:
                hint["E"] = E
        else:
            # Rows 5-6: pull the target D*(c + b y + a y^2) back through
            # the row's printed curve, with A = 1, B = u, D = 1.  A
            # constant u keeps the row-6 trees near the size of row 4's.
            u = Const(_u(rng, 1.2, 1.8))
            E = Const(_signed(rng, 0.05, 0.5)) + Const(_u(rng, 0.5, 1.5)) * T
            # A constant lam, folded to literals, keeps the pulled-back
            # trees small enough for a run to hold many problems.
            root = math.sqrt(_u(rng, 0.5, 2.0))
            S, g = Const(root), Const(1.0 / root)
            if row == 5:
                curve = CurveSL2(-(S * u), S * (1.0 + E * u), -g, g * E)
            else:
                curve = CurveSL2(-g, g * ((1.0 + u * E) * (1.0 / u)),
                                 -(u * S), u * E * S)
            eq = transform_coefficients(RiccatiEquation(ONE, Const(b), ONE),
                                        inverse(curve))
            hint = {"A": ONE, "B": u, "E": E, "D": ONE,
                    "a": 1.0, "b": b, "c": 1.0}
        return eq, {f"Zh99Table{row}": hint}, f"Zh99Table{row}"
    return build


def _generic(rng):
    def coeff():
        if rng.shape.random() < 0.5:
            return _poly(rng, 3, 1.0)
        rate = Const(_signed(rng, 0.05, 1.0))
        return Const(_signed(rng, 0.2, 1.0)) * exp(rate * T)
    return RiccatiEquation(coeff(), coeff(), coeff()), {}, None


def _elementary_curve(rng, kind: str):
    if kind == "translation":
        return CurveSL2.translation(_poly(rng, 2, 0.8))
    if kind == "scaling":
        return CurveSL2.scaling(exp(_poly(rng, 2, 0.4)))
    return CurveSL2.inversion()


def _pushed(rng):
    """A constant-coefficient equation pushed through a composition of
    two random integral-free elementary curves.  Two inversions compose
    to the identity and would leave the constant equation, so the second
    curve is not an inversion when the first one is."""
    kinds = ("translation", "scaling", "inversion")
    first = rng.shape.choice(kinds)
    second = rng.shape.choice(kinds[:2] if first == "inversion" else kinds)
    base = RiccatiEquation.of(_signed(rng, 0.05, 1.0), _signed(rng, 0.05, 1.0),
                              _signed(rng, 0.05, 1.0))
    curve = compose(_elementary_curve(rng, second),
                    _elementary_curve(rng, first))
    return transform_coefficients(base, curve), {}, None


FAMILIES = {
    "RDM05": _rdm05, "Ra61": _ra61, "AllenStein": _allen_stein,
    "RaoW0": _rao_w0, "RaoK": _rao_k, "Ko06": _ko06,
    "Zh99Basic": _zh99_basic, "RU68": _ru68, "Zh99E": _zh99_e,
    **{f"Zh99Table{row}": _table(row) for row in range(1, 7)},
    "generic": _generic, "pushed": _pushed,
}


def _hint_json(hints: dict) -> dict:
    return {name: {k: (v if isinstance(v, float) else str(v))
                   for k, v in block.items()}
            for name, block in hints.items()}


def _initial_conditions(rng: Draw, workload: str, eq: RiccatiEquation,
                        ta: float) -> list:
    if workload == "classify-catalogue":
        return [0.0]
    if workload == "verify-transformed":
        return [0.0] + [_signed(rng, 0.05, 0.9) for _ in range(3)]
    # Solve: the point at infinity, and a large value with the sign of
    # b2, so that b2*x^2 dominates and on most problems the solution
    # reaches infinity inside the interval.
    blowup = 10.0 if eq.b2.ev(ta) > 0.0 else -10.0
    ics = [0.0, "inf", blowup]
    return ics + [_signed(rng, 0.05, 0.9)
                  for _ in range(rng.shape.randint(4, 8) - len(ics))]


def _problem_doc(eq, hints, ics, span, step, grid):
    doc = {
        "schema": 1,
        "coefficients": {"b0": str(eq.b0), "b1": str(eq.b1), "b2": str(eq.b2)},
        "t_interval": list(span),
        "initial_conditions": ics,
        "options": {"step": step, "grid": grid, "tol": 1e-6},
    }
    if hints:
        doc["hints"] = _hint_json(hints)
    return doc


# Interval and step per workload: long enough for blow-up and chart
# switches, short enough that a run holds many problems.  Solve keeps the
# default step; verify, whose cost is RK4 steps times tree size, takes a
# coarser one.
SPANS = {"classify-catalogue": (0.0, 1.0), "solve-reduced": (0.0, 0.15),
         "verify-transformed": (0.0, 0.3)}
STEPS = {"classify-catalogue": 1e-3, "solve-reduced": 1e-3,
         "verify-transformed": 2e-3}


def generate(workload: str, seed: int, outdir, bundled_dir) -> list[dict]:
    """Write the workload's problem files into ``outdir`` and return the
    manifest: one entry per problem, in schedule order, with the file,
    family, CLI command and the planted detector (or None)."""
    if workload not in SCHEDULES:
        raise ValueError(f"unknown workload {workload!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = Draw(workload, seed)
    command = COMMANDS[workload]
    schedule = SCHEDULES[workload]
    manifest = []
    bundled_next = 0
    for i in range(CYCLES * len(schedule)):
        if i % len(schedule) == 0:
            rng.new_cycle()
        family = schedule[i % len(schedule)]
        fname = f"p{i:04d}_{family}.json"
        if family in ("bundled", "tanh", "autonomous"):
            name = family
            if family == "bundled":
                name = BUNDLED[bundled_next % len(BUNDLED)]
                bundled_next += 1
            text = (Path(bundled_dir) / f"{name}.json").read_text()
            planted = BUNDLED_PLANTED[name]
        else:
            eq, hints, planted = FAMILIES[family](rng)
            span = SPANS[workload]
            # Every fifth slot of a classify cycle uses a finer detection
            # grid; counted within the cycle, so that every cycle holds
            # the same slots at the finer grid.
            fine = (workload == "classify-catalogue"
                    and i % len(schedule) % 5 == 4)
            grid = 401 if fine else 101
            ics = _initial_conditions(rng, workload, eq, span[0])
            doc = _problem_doc(eq, hints, ics, span, STEPS[workload], grid)
            text = json.dumps(doc, indent=1) + "\n"
        (outdir / fname).write_text(text)
        manifest.append({"file": fname, "family": family,
                         "command": command, "planted": planted})
    return manifest

