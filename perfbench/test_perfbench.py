"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import riccati_sl2  # noqa: E402
import riccati_sl2.cli  # noqa: E402
from riccati_sl2 import T  # noqa: E402
from riccati_sl2.projline import INF, ExtReal  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_problem_files(tmp_path, workload):
    runs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        manifest = workloads.generate(workload, seed, tmp_path / name,
                                      ROOT / "problems")
        files = {e["file"]: (tmp_path / name / e["file"]).read_bytes()
                 for e in manifest}
        runs.append((manifest, files))
    assert runs[0] == runs[1]
    assert runs[0][1] != runs[2][1]
    # A new seed changes parameters, not the family mix.
    assert ([e["family"] for e in runs[0][0]]
            == [e["family"] for e in runs[2][0]])


def _namespace_snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "riccati_sl2" or name.startswith("riccati_sl2."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = id(value)
                if isinstance(value, dict):
                    snap.update({(name, attr, k): id(v)
                                 for k, v in value.items()})
                elif isinstance(value, type):
                    snap.update({(name, attr, k): id(v)
                                 for k, v in vars(value).items()})
    return snap


def test_wrapping_and_unwrapping_leaves_package_unchanged():
    before = _namespace_snapshot()
    original = riccati_sl2.cli.integrate_direct
    tr = tracer.Tracer()
    tr.install()
    try:
        assert riccati_sl2.cli.integrate_direct is not original
        verify = riccati_sl2.cli._COMMANDS["verify"]
        assert verify is riccati_sl2.cli.cmd_verify
        assert verify.__wrapped__ is not verify
        riccati_sl2.criteria.classify(
            riccati_sl2.RiccatiEquation.of(1, 0, -1), [0.0, 0.5, 1.0])
    finally:
        tr.uninstall()
    assert _namespace_snapshot() == before
    assert tr.stats["criteria.classify"].calls == 1
    assert tr.stats["criteria.detector.RDM05"].calls == 1


def test_tree_sizes_count_sharing():
    sq = T * T
    e = sq + sq
    assert tracer.tree_nodes([e]) == 7
    assert tracer.unique_nodes([e]) == 3
    assert tracer.unique_nodes([e, sq]) == 3


def test_tail_interpolates_between_ranks():
    xs = [float(i) for i in range(101)]
    assert tail(xs, 90.0) == pytest.approx(90.0)
    assert tail(xs[::-1], 97.5) == pytest.approx(97.5)
    assert tail([3.0, 1.0, 2.0], 100.0) == 3.0
    assert tail([1.0, 2.0], 75.0) == pytest.approx(1.75)


def test_points_dev_compares_near_infinity_in_the_inverse_chart():
    a = [ExtReal(0.5), ExtReal(50.0), INF]
    b = [ExtReal(0.5), ExtReal(50.0 * (1 + 1e-9)), ExtReal(1e13)]
    assert checks.points_dev(a, b) < 1e-9
    assert checks.points_dev([ExtReal(0.5)], [INF]) == float("inf")


def test_speed_scale_maps_probe_time_to_the_reference():
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    # A host running at half speed doubles both probes and the timed call.
    slow = 2 * speed.REFERENCE_S
    assert speed.scale(slow, slow) == pytest.approx(0.5)
    assert speed.probe() > 0.0


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, key):
    proc = _run("--workload", "classify-catalogue", "--seed", "3",
                "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "solve-reduced", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
