"""Self-tests of the benchmark (about three minutes).  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import symcube.canon  # noqa: E402
import symcube.equivalence  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _t0() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def test_corrupted_pin_counts_as_failed_check():
    expected = copy.deepcopy(workloads.load_expected())
    expected["equivalence"]["invariants"]["rendered"]["fano"] = "{ {D0^7}^2 }"
    report = worker.execute("equivalence", 1, "pass", _t0(), expected=expected)
    assert report["attempted"] == 28
    assert report["failed"] == 1
    assert report["failures"][0].startswith("fano slice invariant")


def test_wrapping_replaces_every_binding():
    original = symcube.canon.canonicalize
    tracer = Tracer()
    try:
        assert tracer.wrap_function("symcube.canon", "canonicalize", "canon") >= 2
        assert symcube.equivalence.canonicalize is symcube.canon.canonicalize
        assert symcube.equivalence.canonicalize is not original
    finally:
        tracer.uninstall()
    assert symcube.canon.canonicalize is original
    assert symcube.equivalence.canonicalize is original


def test_traced_classify16_is_self_consistent():
    report = worker.execute("classify16", 2, "traced", _t0())
    assert report["failures"] == []
    # the last check compares traced canon calls with the program's counts
    assert report["attempted"] == 12
    assert {m["name"]: m["unit"] for m in _spec()["per_layer"]} == {
        name: layers.unit(name) for name in report["layers"]
    }
    assert report["layers"]["canon.cube.calls"] == 8 + 1 + 10


def test_short_run_on_another_seed_passes_all_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equivalence", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 28
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
