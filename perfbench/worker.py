"""One benchmark run in a fresh interpreter: generate the workload, drive
``riccati_sl2.cli.main`` in a closed loop, check every output, and print
one JSON line.

One client, no threads: each problem starts when the previous one has
returned.  The timed region is the ``main`` call alone, which loads the
problem from its file (so deferred-integral caches on parsed trees start
cold, as for a command-line user), computes, prints to a captured stdout
and writes CSVs to a scratch directory.  Generation and output checks run
outside it.

The end-to-end times are reported at a reference machine speed: a speed
probe (``speed.py``) runs just before and just after each timed call, and
the call's wall time is scaled by the probe's reference time over the
mean of the two.  The host's speed drifts by up to 2 times over tens of
seconds, which would otherwise swamp any change to the program; scaled
per problem, the drift cancels.  Wall-clock figures go to stderr.  The
loop stops at the first end of a schedule cycle after the scaled timed
calls add up to the requested seconds.

With ``--trace 1`` the loop runs with the tracer installed, then repeats
the same problems untraced to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import riccati_sl2.cli

import checks
import speed
import tracer as tracing
import workloads


def _call(entry, problem: Path, outdir: Path):
    """Run one problem through the CLI; returns (seconds, exit code or
    None when it raised, stdout, error text)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir()
    argv = [entry["command"], str(problem), "--output", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, ""
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = riccati_sl2.cli.main(argv)
        except Exception as exc:
            # A crash is a failed problem, not a crashed run.
            raised = f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, rc, out.getvalue(), raised or err.getvalue()


# A run whose host stays slow stops once its timed calls took this many
# times the requested seconds of wall time, so that it ends in time.
WALL_CAP = 2.2


def run_loop(manifest, problem_dir: Path, outdir: Path, *, cycle: int,
             seconds=None, count=None, tracer=None):
    """Closed loop over the manifest, in order and wrapping around, until
    the timed calls add up to ``seconds`` at the reference speed, at the
    end of a schedule cycle of ``cycle`` problems, or until ``count``
    problems ran.  Stopping on a cycle boundary keeps every run at the
    workload's stated mix; counting reference seconds gives every run the
    same number of cycles whatever the host's speed.  Returns the per-problem
    wall latencies, the same scaled to the reference speed, and the
    failure reasons."""
    latencies, scaled, failures = [], [], []
    busy = wall = 0.0

    def more(i):
        if count is not None:
            return i < count
        return bool(i % cycle) or (busy < seconds
                                   and wall < WALL_CAP * seconds)

    i = 0
    while more(i):
        entry = manifest[i % len(manifest)]
        problem = problem_dir / entry["file"]
        before = speed.probe()
        if tracer is not None:
            tracer.install()
        try:
            dt, rc, stdout, errtext = _call(entry, problem, outdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = speed.probe()
        if rc is None:
            why = errtext
        else:
            try:
                why = checks.check(entry, problem, rc, stdout, outdir)
            except Exception as exc:  # malformed output is a failed problem
                why = f"output check raised {type(exc).__name__}: {exc}"
            if why and errtext:
                why += f" ({errtext.strip()})"
        if why:
            failures.append(f"{entry['file']}: {why}")
        latencies.append(dt)
        scaled.append(dt * speed.scale(before, after))
        busy += scaled[-1]
        wall += dt
        i += 1
    return latencies, scaled, failures


def throughput(latencies, cycle: int) -> float:
    """Problems per second at the workload's mix: one schedule cycle's
    problems over the median time the run's cycles took."""
    times = [sum(latencies[k:k + cycle])
             for k in range(0, len(latencies), cycle)]
    return cycle / statistics.median(times)


def tail(latencies, percentile: float) -> float:
    """The given percentile, interpolated linearly between the closest
    ranks."""
    xs = sorted(latencies)
    pos = percentile / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--bundled", required=True,
                    help="directory holding the bundled problem files")
    ap.add_argument("--src", required=True,
                    help="source directory riccati_sl2 must come from")
    args = ap.parse_args(argv)
    package = Path(riccati_sl2.__file__).resolve().parent
    if package.parent != Path(args.src).resolve():
        print(f"riccati_sl2 was imported from {package}, not from {args.src}",
              file=sys.stderr)
        return 2

    work = Path(args.workdir)
    problem_dir = work / "problems"
    outdir = work / "out"
    manifest = workloads.generate(args.workload, args.seed, problem_dir,
                                  args.bundled)
    cycle = len(workloads.SCHEDULES[args.workload])
    result = {"workload": args.workload}
    if args.trace:
        tr = tracing.Tracer()
        lat, _, fails = run_loop(manifest, problem_dir, outdir, cycle=cycle,
                                 seconds=args.seconds, tracer=tr)
        lat_u, _, fails_u = run_loop(manifest, problem_dir, outdir,
                                     cycle=cycle, count=len(lat))
        values = tr.metrics(len(lat))
        traced_pps = len(lat) / sum(lat)
        untraced_pps = len(lat_u) / sum(lat_u)
        values.update({
            "trace.problems": float(len(lat)),
            "trace.problems_per_s": traced_pps,
            "trace.untraced_problems_per_s": untraced_pps,
            "trace.overhead_problems_per_s": traced_pps - untraced_pps,
        })
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
        failures = fails + fails_u
        attempted = len(lat) + len(lat_u)
    else:
        lat, ref, failures = run_loop(manifest, problem_dir, outdir,
                                      cycle=cycle, seconds=args.seconds)
        tail_pct = workloads.TAIL_PERCENTILE[args.workload]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "problems_per_s": {"value": throughput(ref, cycle), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(ref), "unit": "s"},
            "latency_tail_s": {"value": tail(ref, tail_pct), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        result["tail_percentile"] = tail_pct
        result["beyond_tail"] = round(len(lat) * (1.0 - tail_pct / 100.0), 1)
        result["wall"] = {"problems_per_s": throughput(lat, cycle),
                          "latency_p50_s": statistics.median(lat),
                          "latency_tail_s": tail(lat, tail_pct)}
        attempted = len(lat)
    result.update({"samples": len(lat), "attempted": attempted,
                   "failed": len(failures), "failures": failures[:20],
                   "metrics": metrics})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
