"""Per-layer tracing of riccati_sl2 from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
traced function at every place it is looked up at call time: every
module-level binding inside the package (``riccati_sl2.cli.integrate_direct``
as well as ``riccati_sl2.riccati.integrate_direct``), function tables held
in module-level dicts (the CLI's command table), and class attributes for
methods.  ``uninstall`` puts the original objects back.

For each traced function the wrapper records calls, inclusive time (a call
made while the same function is already running is counted once) and self
time (time minus the time of traced callees).  Nothing is queued in this
program, so there is no waiting time to record.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

import riccati_sl2.cli  # noqa: F401  (the package loads the other modules)
from riccati_sl2.expr import Expr

# (layer, module, name): the functions whose calls and time are reported.
FUNCTIONS = (
    ("expr", "riccati_sl2.expr", "parse"),
    ("expr", "riccati_sl2.expr", "evaluate"),
    ("expr", "riccati_sl2.expr", "differentiate"),
    ("expr", "riccati_sl2.expr", "quad"),
    ("riccati", "riccati_sl2.riccati", "integrate_direct"),
    ("sl2", "riccati_sl2.sl2", "integrate_group_equation"),
    ("sl2", "riccati_sl2.sl2", "solve_one_dimensional_target"),
    ("sl2", "riccati_sl2.sl2", "reconstruct_solution"),
    ("transform", "riccati_sl2.transform", "transform_coefficients"),
    ("transform", "riccati_sl2.transform", "gauge_transform_algebra"),
    ("transform", "riccati_sl2.transform", "theta_apply"),
    ("transform", "riccati_sl2.transform", "CurveSL2.matrix_at"),
    ("solvers", "riccati_sl2.solvers", "solve_linear"),
    ("solvers", "riccati_sl2.solvers", "solve_bernoulli"),
    ("solvers", "riccati_sl2.solvers", "SolutionForm.at"),
    ("solvers", "riccati_sl2.solvers", "verify_particular_solution"),
    ("criteria", "riccati_sl2.criteria", "classify"),
    ("criteria", "riccati_sl2.criteria", "constancy_fit"),
    ("criteria", "riccati_sl2.criteria", "solve_via_report"),
    ("projline", "riccati_sl2.projline", "mobius_apply"),
    ("projline", "riccati_sl2.projline", "cross_ratio"),
    ("cli", "riccati_sl2.cli", "main"),
    ("cli", "riccati_sl2.cli", "load_problem"),
    ("cli", "riccati_sl2.cli", "cmd_classify"),
    ("cli", "riccati_sl2.cli", "cmd_solve"),
    ("cli", "riccati_sl2.cli", "cmd_verify"),
)

# Detector functions and the report names they produce; the table
# detector's name depends on its row argument.
DETECTORS = {
    "check_rdm05": "RDM05", "check_ra61": "Ra61",
    "check_allen_stein": "AllenStein", "check_rao_W0": "RaoW0",
    "check_rao_K": "RaoK", "check_ko06": "Ko06",
    "check_zh99_basic": "Zh99Basic", "check_ru68": "RU68",
    "check_zh99_E": "Zh99E", "check_zh99_table": None,
}
DETECTOR_NAMES = (tuple(n for n in DETECTORS.values() if n)
                  + tuple(f"Zh99Table{row}" for row in range(1, 7)))

LAYERS = ("expr", "riccati", "sl2", "transform", "solvers", "criteria",
          "projline", "cli")

# Counters recorded beyond calls and time: (stat key, counter, unit).
# Counters with unit nodes/call are averaged over the function's calls,
# all others over problems.
EXTRA = (
    ("expr.quad", "nested_calls", "calls/problem"),
    ("expr.quad", "neval", "evals/problem"),
    ("riccati.integrate_direct", "steps", "steps/problem"),
    ("riccati.integrate_direct", "chart_switches", "count/problem"),
    ("riccati.integrate_direct", "truncated", "count/problem"),
    ("riccati.integrate_direct", "coeff_nodes", "nodes/call"),
    ("sl2.integrate_group_equation", "steps", "steps/problem"),
    ("sl2.solve_one_dimensional_target", "steps", "steps/problem"),
    ("sl2.reconstruct_solution", "samples", "samples/problem"),
    ("transform.transform_coefficients", "out_nodes", "nodes/call"),
    ("transform.transform_coefficients", "out_unique_nodes", "nodes/call"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for layer, _, name in FUNCTIONS:
        key = f"{layer}.{name}"
        if layer != "cli":
            out.append((f"{key}.calls", "calls/problem"))
        out.append((f"{key}.s", "s/problem"))
    out += [(f"{key}.{counter}", unit) for key, counter, unit in EXTRA]
    out += [(f"criteria.detector.{n}.s", "s/problem") for n in DETECTOR_NAMES]
    out += [("criteria.reports", "count/problem"),
            ("criteria.satisfied", "count/problem"),
            ("criteria.eval_failed", "count/problem"),
            ("criteria.satisfied_frac", "ratio")]
    out += [(f"{layer}.self_s", "s/problem") for layer in LAYERS]
    out += [("trace.problems", "count"),
            ("trace.problems_per_s", "1/s"),
            ("trace.untraced_problems_per_s", "1/s"),
            ("trace.overhead_problems_per_s", "1/s")]
    return out


# Tree sizes.

_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _fields(e: Expr) -> tuple[str, ...]:
    cls = type(e)
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls) if f.compare)
        _CHILD_FIELDS[cls] = names
    return names


def tree_nodes(exprs) -> int:
    """Node count of the trees as a scalar walk visits them: a subtree
    referenced twice counts twice."""
    memo: dict[int, int] = {}

    def size(e):
        n = memo.get(id(e))
        if n is None:
            n = 1 + sum(size(v) for v in (getattr(e, f) for f in _fields(e))
                        if isinstance(v, Expr))
            memo[id(e)] = n
        return n

    return sum(size(e) for e in exprs)


def unique_nodes(exprs) -> int:
    """Number of structurally distinct subtrees across the trees."""
    canon: dict[tuple, int] = {}
    memo: dict[int, int] = {}

    def ident(e):
        i = memo.get(id(e))
        if i is None:
            parts = []
            for f in _fields(e):
                v = getattr(e, f)
                parts.append(("e", ident(v)) if isinstance(v, Expr) else v)
            i = canon.setdefault((type(e).__name__, tuple(parts)), len(canon))
            memo[id(e)] = i
        return i

    for e in exprs:
        ident(e)
    return len(canon)


# Counters beyond calls and time, read from a call's arguments and result
# after it returns; ``nested`` is true for a call made while the same
# function was already running.

def _count_quad(stat, args, result, nested):
    if nested:
        stat.extra["nested_calls"] += 1
    if len(result) > 2 and isinstance(result[2], dict):
        stat.extra["neval"] += result[2].get("neval", 0)


def _count_direct(stat, args, traj, nested):
    eq = args[0]
    stat.extra["steps"] += len(traj) - 1
    stat.extra["chart_switches"] += len(traj.chart_switches)
    stat.extra["truncated"] += traj.error is not None
    stat.extra["coeff_nodes"] += tree_nodes((eq.b0, eq.b1, eq.b2))


def _count_steps(stat, args, G, nested):
    stat.extra["steps"] += len(G) - 1


def _count_samples(stat, args, traj, nested):
    stat.extra["samples"] += len(traj)


def _count_nodes(stat, args, eq, nested):
    trees = (eq.b0, eq.b1, eq.b2)
    stat.extra["out_nodes"] += tree_nodes(trees)
    stat.extra["out_unique_nodes"] += unique_nodes(trees)


def _count_reports(stat, args, reports, nested):
    stat.extra["reports"] += len(reports)
    stat.extra["satisfied"] += sum(r.satisfied for r in reports)
    stat.extra["eval_failed"] += sum(
        str(r.diagnostics.get("reason", "")).startswith("evaluation failed")
        for r in reports)


HOOKS = {
    "expr.quad": _count_quad,
    "riccati.integrate_direct": _count_direct,
    "sl2.integrate_group_equation": _count_steps,
    "sl2.solve_one_dimensional_target": _count_steps,
    "sl2.reconstruct_solution": _count_samples,
    "transform.transform_coefficients": _count_nodes,
    "criteria.classify": _count_reports,
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = defaultdict(float)


def _resolve(module: str, name: str):
    owner = sys.modules[module]
    if "." in name:
        cls_name, name = name.split(".")
        owner = getattr(owner, cls_name)
    return owner, name


class Tracer:
    """Wraps the traced functions while installed and accumulates their
    statistics across installs."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list[float]] = []
        self._bindings = self._find_bindings()

    def _find_bindings(self):
        targets = []  # (original, stat key or key function, hook)
        for layer, module, name in FUNCTIONS:
            owner, attr = _resolve(module, name)
            key = f"{layer}.{name}"
            targets.append((owner.__dict__[attr], key, HOOKS.get(key)))
        criteria = sys.modules["riccati_sl2.criteria"]
        for fname, det in DETECTORS.items():
            key = (f"criteria.detector.{det}" if det else _table_key)
            targets.append((getattr(criteria, fname), key, None))
        # Namespaces where a traced function can be looked up: the
        # package's modules, their module-level dicts, and the classes
        # they define.
        spaces = []
        for name, mod in sorted(sys.modules.items()):
            if name != "riccati_sl2" and not name.startswith("riccati_sl2."):
                continue
            spaces.append((mod, vars(mod)))
            for value in vars(mod).values():
                if isinstance(value, dict):
                    spaces.append((value, value))
                elif isinstance(value, type) and value.__module__ == name:
                    spaces.append((value, vars(value)))
        bindings = []  # (owner, attribute or dict key, original, wrapper)
        for original, key, after in targets:
            wrapper = self._wrap(original, key, after)
            found = [(owner, attr, original, wrapper)
                     for owner, space in spaces
                     for attr, value in space.items() if value is original]
            if not found:
                raise RuntimeError(f"no binding found for {key}")
            bindings += found
        return bindings

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            _set(owner, attr, original)

    def _wrap(self, fn, key, after):
        stats = self.stats
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = stats[key if isinstance(key, str) else key(args, kwargs)]
            nested = stat.active > 0
            stat.active += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if stat.active == 0:
                    stat.s += dt
            if after is not None:
                after(stat, args, result, nested)
            return result

        return wrapper

    def metrics(self, problems: int) -> dict[str, float]:
        """Per-problem values of every metric in ``metric_names`` except
        the ``trace.*`` ones, which the caller adds."""
        n = max(problems, 1)
        out = {}
        for layer, _, name in FUNCTIONS:
            key = f"{layer}.{name}"
            st = self.stats[key]
            if layer != "cli":
                out[f"{key}.calls"] = st.calls / n
            out[f"{key}.s"] = st.s / n
        for key, counter, unit in EXTRA:
            st = self.stats[key]
            base = st.calls if unit == "nodes/call" else n
            out[f"{key}.{counter}"] = st.extra[counter] / max(base, 1)
        for det in DETECTOR_NAMES:
            st = self.stats[f"criteria.detector.{det}"]
            out[f"criteria.detector.{det}.s"] = st.s / n
        cl = self.stats["criteria.classify"]
        reports = cl.extra["reports"]
        out["criteria.reports"] = reports / n
        out["criteria.satisfied"] = cl.extra["satisfied"] / n
        out["criteria.eval_failed"] = cl.extra["eval_failed"] / n
        out["criteria.satisfied_frac"] = (cl.extra["satisfied"]
                                          / max(reports, 1))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                st.self_s for key, st in self.stats.items()
                if key.split(".", 1)[0] == layer) / n
        return out


def _table_key(args, kwargs) -> str:
    row = kwargs["row"] if "row" in kwargs else args[2]
    return f"criteria.detector.Zh99Table{row}"


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
