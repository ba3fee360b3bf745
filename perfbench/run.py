"""symcube benchmark: one run of one workload.

    python3 perfbench/run.py --workload classify16|equivalence \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition runs in a fresh single-threaded process, so the
catalog singleton and the design-class cache never carry over.

With ``--trace 0`` the run starts ``SETUP_ONLY`` set-up-only processes, then
one full pass, and more passes while their total stays within ``--seconds``;
it reports the end-to-end metrics: medians of ``norm_wall_s`` and
``peak_rss_mb`` over the passes and of ``setup_s`` over every process.
``norm_wall_s`` is the time of the pass's checked operations scaled to the
nominal host speed (see ``hostspeed.py``); the plain ``wall_s`` is printed
too.  With ``--trace 1`` it runs one traced pass and reports the per-layer
metrics.

Every pass checks its outputs against ``expected.json``; the last line of
stdout is the JSON result, with ``failed`` of ``attempted`` checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify16", "equivalence")
SETUP_ONLY = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SYMCUBE_DATA", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for a {mode} process")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process for {workload} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    setups = [run_worker(workload, seed, "setup", deadline) for _ in range(SETUP_ONLY)]
    passes = [run_worker(workload, seed, "pass", deadline)]
    # another pass only if one like the last still ends within the measured
    # time and the run's limit, so a slow machine does not lengthen the run
    while (
        sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds
        and time.monotonic() + 2 * passes[-1]["wall_s"] < deadline
    ):
        passes.append(run_worker(workload, seed, "pass", deadline))
    metrics = {
        "norm_wall_s": (statistics.median(p["norm_wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups + passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    traced = run_worker(workload, seed, "traced", deadline)
    for line in traced["share_report"]:
        print(line)
    return {name: (value, unit(name)) for name, value in traced["layers"].items()}, [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symcube benchmark run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symcube" / "__init__.py").is_file():
        print(f"error: no symcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, passes = trace(args.workload, args.seed, deadline)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    print(f"workload {args.workload}, seed {args.seed}, passes {len(passes)}")
    for name, (value, unit_name) in metrics.items():
        print(f"  {name} = {value:.6g} {unit_name}")
    print(f"  wall_s = {statistics.median(p['wall_s'] for p in passes):.6g} s (not normalised)")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
