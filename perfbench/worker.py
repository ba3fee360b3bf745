"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --t0 T

``--t0`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so ``setup_s`` counts interpreter start-up too.
Modes: ``setup`` stops after set-up, ``pass`` runs the workload once,
``traced`` runs it once under the tracer.  The last line of stdout is a
JSON report.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def execute(workload: str, seed: int, mode: str, t0: float, expected: dict | None = None) -> dict:
    """Set up and (unless ``mode`` is ``setup``) run one pass; returns the
    report.  ``expected`` overrides the pinned outputs."""
    import symcube

    if Path(symcube.__file__).resolve().parent != SRC / "symcube":
        raise RuntimeError(f"symcube imported from {symcube.__file__}, not from {SRC}")
    import hostspeed
    import layers
    import workloads
    from tracer import Tracer

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        layers.install(tracer)
    symcube.reference_catalog()
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(random.Random(seed))
    report = {"setup_s": _now() - t0}
    if mode == "setup":
        return report

    if expected is None:
        expected = workloads.load_expected()
    checks = workloads.Checks(hostspeed.Clock())
    if tracer is not None:
        tracer.phase = "work"
    facts = run(inputs, expected[workload], checks)
    wall_s = checks.clock.raw_s
    report["wall_s"] = wall_s
    report["norm_wall_s"] = checks.clock.norm_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        layer_metrics, shares = layers.metrics(tracer, wall_s)
        if workload == "classify16":
            # every cube certificate the program reports must appear as a
            # traced canonicalisation; a missed binding fails here
            checks.expect(
                "tracer canon.cube.calls",
                lambda: layer_metrics["canon.cube.calls"],
                facts["reference_classes"] + facts["nds"] + facts["orbit_reps"],
            )
        report["layers"] = layer_metrics
        report["share_report"] = layers.share_report(workload, shares)
    report["attempted"] = checks.attempted
    report["failed"] = len(checks.failures)
    report["failures"] = checks.failures
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    report = execute(args.workload, args.seed, args.mode, args.t0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
