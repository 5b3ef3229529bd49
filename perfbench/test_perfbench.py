"""Tests of the benchmark itself: every workload's smoke mode runs every
correctness check, traced and untraced, and the benchmark refuses to run
without the program's sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = ("exhaust-laws", "encode-soundness", "decompose", "cli-session")
# The decimal-literal commands of cli-session fail in every round: 3 of 23.
FAILED_SHARE = {"cli-session": (3, 23)}


def run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    done = run("--workload", workload, "--smoke", "--trace", trace, "--seed", "3")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    failed, ops = FAILED_SHARE.get(workload, (0, 1))
    assert result["failed"] * ops == failed * result["attempted"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decompose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
