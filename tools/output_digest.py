"""Print two sha256 hashes per CLI run, of what it printed and of its CSVs.

The first is over the command, problem, exit code, stdout and stderr,
the second over every CSV the run writes (name and bytes), so a change
that moves CSV bits shows whether stdout held.

The runs are classify, solve and verify on each bundled problem, then,
for each seed given, classify on every generated classify-catalogue
problem, solve and verify on every generated solve-reduced problem and
verify on every generated verify-transformed problem.  The
problems are generated by ``perfbench/workloads.py`` into a temporary
directory, and every run takes paths relative to it, so two checkouts
print the same lines exactly when their outputs agree:

    PYTHONPATH=src python tools/output_digest.py 7 11 > new.txt
    PYTHONPATH=../old/src python tools/output_digest.py 7 11 > old.txt
    diff old.txt new.txt

Runs are in-process, one after another; stderr names the package used.
``RICCATI_LOG`` is removed from the environment first: the debug line it
turns on goes to the stderr that is hashed, and its counts differ between
checkouts whose outputs agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import riccati_sl2.cli  # noqa: E402
import workloads  # noqa: E402

BUNDLED = ROOT / "problems"
GENERATED = {"classify-catalogue": ("classify",),
             "solve-reduced": ("solve", "verify"),
             "verify-transformed": ("verify",)}


def digest(command: str, problem: str) -> str:
    """Run ``command`` on the problem file (relative to the working
    directory) and hash what it printed and returned, then what it
    wrote."""
    out = Path(f"out-{command}-{problem.replace('/', '-')}")
    out.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = riccati_sl2.cli.main([command, problem, "--output", str(out)])
        except Exception as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
    run, csvs = hashlib.sha256(), hashlib.sha256()
    for part in (command, problem, str(rc), stdout.getvalue(), stderr.getvalue()):
        run.update(part.encode() + b"\0")
    for csv in sorted(out.iterdir()):
        csvs.update(csv.name.encode() + b"\0" + csv.read_bytes() + b"\0")
    return f"{run.hexdigest()}  {csvs.hexdigest()}  {command} {problem}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="*", help="workload seeds")
    args = ap.parse_args(argv)
    print(f"riccati_sl2 from {Path(riccati_sl2.__file__).parent}", file=sys.stderr)
    os.environ.pop("RICCATI_LOG", None)
    runs = [(command, f"bundled/{p.name}")
            for p in sorted(BUNDLED.glob("*.json"))
            for command in ("classify", "solve", "verify")]
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("bundled").symlink_to(BUNDLED)
        for seed in args.seeds:
            for workload, commands in GENERATED.items():
                where = f"{workload}-{seed}"
                manifest = workloads.generate(workload, seed, where, BUNDLED)
                runs += [(command, f"{where}/{entry['file']}")
                         for entry in manifest for command in commands]
        for command, problem in runs:
            print(digest(command, problem), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
