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


@pytest.mark.parametrize("better, parent, change, beyond, unresolved", [
    ("higher", [100, 101, 99, 100], [70, 71, 69, 70], True, False),
    ("higher", [50, 60, 140, 150], [95, 105, 100, 100], False, True),
    ("higher", [50, 60, 140, 150], [200, 210, 205, 220], False, False),
    ("higher", [100, 100, 101, 99], [100, 101, 99, 100], False, False),
    ("lower", [1.0, 1.0, 1.1, 0.9], [1.5, 1.4, 1.6, 1.5], True, False),
    ("lower", [1.0, 1.2, 2.8, 3.0], [2.7, 2.8, 2.9, 2.6], True, True),
])
def test_each_metric_carries_the_benchmark_judgement(
    bench_pairs, better, parent, change, beyond, unresolved
):
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    got = bench_pairs.reduce([metric], runs)["m"]
    assert got["bound"] == 0.25
    assert (got["beyond_bound"], got["unresolved"]) == (beyond, unresolved)


def test_a_metric_without_a_bound_is_not_judged(bench_pairs):
    metric = {"name": "m", "unit": "u", "better": "higher"}
    runs = {side: [{"metrics": {"m": {"value": 1.0}}}] for side in ("parent", "change")}
    got = bench_pairs.reduce([metric], runs)["m"]
    assert got["bound"] is None and "beyond_bound" not in got


def test_peak_memory_is_fitted_against_the_operations(bench_pairs):
    # Each side keeps 45 bytes per operation on top of its own peak, which
    # the change lowers from 60 to 55 MB while attempting more operations.
    metric = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}
    runs = {
        side: [{"attempted": n,
                "metrics": {"peak_rss_mb": {"value": base + 45 * n / 2**20}}}
               for n in counts]
        for side, base, counts in (
            ("parent", 60.0, [30_000, 40_000, 35_000]),
            ("change", 55.0, [200_000, 250_000, 220_000]),
        )
    }
    runs["change"][-1] = None  # a failed run is left out of the fit
    got = bench_pairs.reduce([metric], runs)["peak_rss_mb"]["against_attempted"]
    assert got == {
        "parent": {"intercept_mb": 60.0, "bytes_per_op": 45.0},
        "change": {"intercept_mb": 55.0, "bytes_per_op": 45.0},
    }
    one = bench_pairs.against_attempted(runs["parent"][:1], "peak_rss_mb")
    assert one == {"intercept_mb": None, "bytes_per_op": None}
