#!/usr/bin/env python3
"""Measure the end-to-end cost of the checkout: wall time and peak RSS of
each fast ``symcube reproduce <target> --check``, of the pinned ``table1``
rows and of the tier-1 test suite.  Writes ``BENCH_<label>.json`` at the
root of the checkout.

    python3 tools/bench_reproduce.py <label> [--extended] [--parent PATH]

``--extended`` adds ``prop51`` (11.5 to 13.3 s a sample on a 2-vCPU host
with Python 3.11.7 and numpy 2.4.6).  Run it from any directory: it
measures the checkout it belongs to, importing the program from that
checkout's ``src/``.  Every measurement is one fresh child
process with one thread per numeric library; the wall time is taken around
the child, the peak RSS from the child's own resource usage (``os.wait4``),
so the tool's own memory never counts.  Every measurement is run
``SAMPLES`` times: ``wall_s`` is the median of the samples listed in
``wall_samples_s``, and ``peak_rss_mb`` their maximum.  Nothing else should
load the host while it runs.

``--parent PATH`` names a second checkout (the commit to compare with).
Each measurement then alternates the two checkouts sample by sample, the
checkout measured first switching from one sample to the next, so a host
that drifts during the run moves both sides alike; each run records the
parent's samples under ``parent``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAST = ["fano", "small-unique", "hadamard16", "menon-family", "example52", "pg21", "diffcubes27"]
SAMPLES = 3  # one run of prop51 or of the suite can be 25% off the next
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SYMCUBE_DATA"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(name: str, argv: list[str], root: Path) -> dict:
    """Run argv as a child in the checkout at ``root``; its exit code, wall
    time, peak RSS and last line of output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=_env(root), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    lines = out.strip().splitlines()
    result = {
        "name": name,
        "exit": proc.returncode,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "last_line": lines[-1] if lines else "",
    }
    print(json.dumps(result), file=sys.stderr, flush=True)
    return result


def _summary(samples: list[dict]) -> dict:
    """The first sample with the median wall time, the samples, the largest
    peak RSS and the first failing exit code."""
    return dict(
        samples[0],
        exit=next((r["exit"] for r in samples if r["exit"] != 0), 0),
        wall_s=statistics.median(r["wall_s"] for r in samples),
        wall_samples_s=[r["wall_s"] for r in samples],
        peak_rss_mb=max(r["peak_rss_mb"] for r in samples),
    )


def measure_repeated(name: str, argv: list[str], parent: Path | None = None) -> dict:
    """``measure`` run SAMPLES times in this checkout, summarised by
    ``_summary``; with a ``parent`` checkout, each sample measures it too,
    alternately after and before this checkout, and its summary goes under
    ``parent``."""
    ours: list[dict] = []
    theirs: list[dict] = []
    sides = [(ROOT, ours)] + ([(parent, theirs)] if parent is not None else [])
    for sample in range(SAMPLES):
        for root, samples in sides[:: -1 if sample % 2 else 1]:
            samples.append(measure(name, argv, root))
    result = _summary(ours)
    if parent is not None:
        result["parent"] = _summary(theirs)
    return result


def _commit(root: Path) -> str:
    """The commit checked out at root, "-dirty" when the working tree
    differs from it."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--extended", action="store_true", help="also run prop51")
    parser.add_argument(
        "--parent", type=Path, help="a second checkout, measured in alternation with this one"
    )
    args = parser.parse_args(argv)
    parent = args.parent.resolve() if args.parent is not None else None

    cli = [sys.executable, "-m", "symcube.cli", "reproduce"]
    targets = FAST + ["table1"] + (["prop51"] if args.extended else [])
    runs = [measure_repeated(f"reproduce {t}", cli + [t, "--check"], parent) for t in targets]
    runs.append(
        measure_repeated(
            "tier-1",
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            parent,
        )
    )
    report = {
        "label": args.label,
        "commit": _commit(ROOT),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": subprocess.run(
                [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                capture_output=True, text=True,
            ).stdout.strip(),
        },
        "runs": runs,
    }
    if parent is not None:
        report["parent_commit"] = _commit(parent)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)
    sides = runs + [r["parent"] for r in runs if "parent" in r]
    return 0 if all(r["exit"] == 0 for r in sides) else 1


if __name__ == "__main__":
    sys.exit(main())
