"""Benchmark entry point for riccati-sl2.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every measurement runs in a child interpreter, so no
cache of one run can reach the next:

* the workload: ``perfbench/worker.py`` generates the seeded problems,
  runs them in a closed loop, checks the outputs and reports its own
  peak resident memory;
* set-up, after the workload has compiled the bytecode: fresh
  interpreters each time one ``import riccati_sl2``, and ``setup_s`` is
  the median of those times.

Every end-to-end time is given in seconds at a reference machine speed
(see ``speed.py``), because the shared host's own speed drifts; the wall
figures go to stderr.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Generated files
live under ``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The names in workloads.py, which this process does not import: it must
# not load riccati_sl2 itself.
WORKLOADS = ("classify-catalogue", "solve-reduced", "verify-transformed")
SETUP_REPEATS = 5
# The whole run must end within 180 s.
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# Run in a fresh interpreter: time the package import between two speed
# probes; print the wall time and the same at the reference speed.
SETUP_CODE = """\
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
import speed
before = speed.probe()
t0 = perf_counter()
import riccati_sl2 as pkg
wall = perf_counter() - t0
after = speed.probe()
if not pkg.__file__.startswith(sys.argv[1]):
    sys.exit(3)
print(wall, wall * speed.scale(before, after))
"""


def measure_setup(env: dict, src: Path, deadline: float) -> tuple:
    """Median time for a fresh interpreter to import the package, as
    (wall seconds, seconds at the reference speed)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(src), str(HERE)]
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - perf_counter())
        if proc.returncode != 0:
            raise RuntimeError("riccati_sl2 did not import from the checkout")
        wall, ref = map(float, proc.stdout.split())
        walls.append(wall)
        scaled.append(ref)
    return statistics.median(walls), statistics.median(scaled)


def measure(args, env: dict, src: Path, work: Path, deadline: float) -> dict:
    """Run the worker, then set-up timing; returns the worker's report
    with ``setup_s`` added to the end-to-end metrics."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work), "--bundled", str(ROOT / "problems"),
           "--src", str(src)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - perf_counter())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    if not args.trace:
        wall, ref = measure_setup(env, src, deadline)
        report["metrics"]["setup_s"] = {"value": ref, "unit": "s"}
        report["wall"]["setup_s"] = wall
    return report


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps its child, and
    # through the clean-up of the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description="riccati-sl2 benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "riccati_sl2" / "cli.py").is_file():
        return _fail(f"no riccati_sl2 package under {src}")
    if not (ROOT / "problems").is_dir():
        return _fail(f"no bundled problems under {ROOT / 'problems'}")

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(args, _env(src), src, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for reason in report["failures"]:
        print(f"perfbench: failed {reason}", file=sys.stderr)
    if not args.trace:
        print(f"perfbench: {args.workload}: {report['samples']} problems; "
              f"latency_tail_s is the p{report['tail_percentile']:g} "
              f"latency, {report['beyond_tail']:g} samples beyond it; "
              f"failed_frac "
              f"{report['failed'] / report['attempted']:.4g}", file=sys.stderr)
        wall = ", ".join(f"{k} {v:.4g}" for k, v in report["wall"].items())
        print(f"perfbench: wall clock: {wall}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
