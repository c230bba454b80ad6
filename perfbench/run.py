"""Benchmark entry point.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout.  Each workload runs in a fresh
worker process (worker.py) with the BLAS thread pool capped at the number of
CPUs this process may use.  Set-up time is taken from SETUP_REPEATS worker
processes, the timed one included, and reported as their median.  Prints a
human-readable report, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
environment stamp and, for --trace 1, the per-(op kind, iteration) table,
is saved under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train_paper", "eval_paper", "train_small")
SETUP_REPEATS = 3
DEADLINE_S = 175.0  # the whole run, set-up processes included


class WorkerFailed(Exception):
    pass


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (its spawn time, its parsed JSON result)."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    spawned_at = perf_counter()
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - spawned_at, 1.0), text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return spawned_at, json.loads(lines[-1])


def report(result: dict) -> None:
    env = result["env"]
    print(f"perfbench {env['workload']} seed={env['seed']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']} numpy={env['numpy']} blas={env['blas']} "
          f"python={env['python']}")
    for name, check in result["checks"].items():
        print(f"  check {name}: {json.dumps(check)}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  error_rate = {error_rate:.4f} ({result['failed']} of {result['attempted']} "
          f"timed operations failed)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a tiny net and data, for the smoke test")
    args = parser.parse_args(argv)
    start = perf_counter()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "thriftynet" / "__init__.py").is_file():
        print(f"perfbench: no thriftynet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        worker_args.append("--tiny")
    try:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            spawned_at, result = spawn([*worker_args, "--setup-only"], env, deadline)
            setups.append(result["first_op_at"] - spawned_at)
        spawned_at, result = spawn(worker_args, env, deadline)
        setups.append(result["first_op_at"] - spawned_at)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples_s"] = setups
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
