"""Smoke test of the benchmark itself; it takes about half a minute.

    python3 -m pytest perfbench

Every workload, plain and traced, runs for one second on a tiny net and must
pass its own checks and emit exactly the metrics, with the units, that
BENCHMARK.json names.  Without the package next to it, the benchmark must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_checks_and_emits_every_metric(workload, trace):
    proc = run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run(tmp_path, "train_small", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
