import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("given, want", [([], 7.0), (["--seconds", "2"], 2.0)])
def test_run_length_defaults_to_the_declared_one(
    bench_pairs, monkeypatch, tmp_path, given, want
):
    for side, run_seconds in (("parent", 3), ("change", 7)):
        (tmp_path / side).mkdir()
        declared = {"run_seconds": run_seconds, "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]}
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
    lengths = []

    def run(checkout, workload, seed, seconds):
        lengths.append(seconds)
        return {"metrics": {"ops_per_s": {"value": 1.0}}, "correct": True,
                "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                      str(tmp_path / "change"), "--workload", "w", "--pairs",
                      "1", "--out", str(out), *given])
    assert lengths == [want, want]
    assert json.loads(out.read_text())["run_seconds"] == want
