"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B \\
        --seconds S --out BENCH_N.json

For each seed from A to B, runs ``perfbench/run.py`` of each checkout
once, from that checkout's root, the parent first at seed A and the order
flipped at each next seed.  The final JSON line of every run, tagged with
its side, workload, seed, seconds and trace flag, is added to the JSON
list in the output file (created if missing) after each pair, so an
interrupted series keeps the pairs it finished.

At the end it prints each side's failed and attempted operations, the
failed shares with ``worse`` when the change's exceeds the parent's (else
``within``), and, for each end-to-end metric named in the change's
``BENCHMARK.json``,
each side's median, the parent's interquartile range, the number of
pairs the change won (ties count for neither side) and a verdict against
the metric's relative bound: ``worse`` when the change's median is worse
than the parent's by more than the bound, else ``unresolved`` when the
parent's IQR is wider than the bound times its median and not every
change run beats every parent run, else ``within``.  It imports nothing
from the checkouts and changes no setting of the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one benchmark run from ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def verdict(par: list[float], chg: list[float], sign: float, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``: see the module text.
    ``sign`` is 1 when higher is better, -1 when lower is."""
    mp = statistics.median(par)
    if sign * (statistics.median(chg) - mp) < -bound * abs(mp):
        return "worse"
    q1, q3 = quartiles(par)
    if q3 - q1 > bound * abs(mp) and not all(
            sign * (c - p) > 0 for c in chg for p in par):
        return "unresolved"
    return "within"


def summary(runs: list[dict], metrics: list[dict]) -> list[str]:
    """Each side's failed and attempted totals, the failed shares and
    their verdict, then one line per end-to-end metric: medians, parent
    IQR, pairs won and verdict."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = {seed: p for seed, p in pairs.items() if len(p) == 2}
    lines = [f"{len(pairs)} pairs"]
    shares = []
    for side in ("parent", "change"):
        mine = [run for run in runs if run["side"] == side]
        failed, attempted = (sum(run[k] for run in mine) for k in ("failed", "attempted"))
        shares.append(failed / attempted if attempted else 0.0)
        lines.append(f"{side}: failed {failed} of {attempted} attempted")
    lines.append(f"failed share: parent {shares[0]:.3%}, change {shares[1]:.3%}, "
                 f"{'worse' if shares[1] > shares[0] else 'within'}")
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        par = [p["parent"][name]["value"] for p in pairs.values()]
        chg = [p["change"][name]["value"] for p in pairs.values()]
        if not par:
            continue
        won = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        q1, q3 = quartiles(par)
        lines.append(f"{name}: parent {mp:.6g}, change {mc:.6g} "
                     f"({(mc - mp) / mp:+.1%}), parent IQR {q3 - q1:.4g}, "
                     f"change won {won} of {len(par)}, "
                     f"{verdict(par, chg, sign, m['bound'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    kept = json.loads(args.out.read_text()) if args.out.exists() else []
    runs = []
    for n, seed in enumerate(seeds):
        order = [("parent", args.parent), ("change", args.change)]
        for side, root in order[::-1] if n % 2 else order:
            report = run_one(root.resolve(), args.workload, seed,
                             args.seconds, args.trace)
            runs.append({"side": side, "workload": args.workload, "seed": seed,
                         "seconds": args.seconds, "trace": args.trace, **report})
            print(f"{side} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in report["metrics"].items()
                if k in {m["name"] for m in metrics}), file=sys.stderr)
        args.out.write_text(
            "[\n" + ",\n".join(map(json.dumps, kept + runs)) + "\n]\n")
    if not args.trace:
        print("\n".join(summary(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
