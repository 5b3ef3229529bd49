"""Alternating parent/change pairs of the benchmark, reduced to a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload exhaust-laws --pairs 4 --first-seed 1001 --out BENCH_7.json

Each pair runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0`` once in each checkout, one run at a time, with the same seed on
both sides; even pairs run the parent first.  Pair i uses seed
first_seed + i.  The run length ``<t>`` and the end-to-end metrics are the
ones ``BENCHMARK.json`` of the change declares, unless ``--seconds`` is
given.  The output keeps every run's value, and per side the median and
quartiles; ``change_wins`` counts the pairs in which the change read
better.  A metric with a ``bound`` in ``BENCHMARK.json`` also carries the
benchmark's judgement: ``beyond_bound`` when the change median is worse
than the parent median by more than the bound, and ``unresolved`` when the
parent's quartile spread exceeds the bound times its median and not every
change run beats every parent run.  ``peak_rss_mb`` also carries, per side,
the least-squares line of the runs' peaks against the operations each run
attempted: the benchmark keeps a record of every operation, so a faster
program reads a higher peak, and the intercept is the peak without that
record.  A run that exits non-zero is kept in ``failed_runs`` with its
side, seed, exit code and the tail of its stderr, and the pairs go on; its
value is null, and only pairs with both runs count towards the wins.  An
existing output file is updated workload by workload, so workloads can be
measured in separate invocations.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WHAT = (
    "Alternating parent/change pairs of `python3 perfbench/run.py --workload "
    "<w> --seed <s> --seconds <t> --trace 0`, one run at a time, each side run "
    "from its own checkout, written by tools/bench_pairs.py. Pair i uses seed "
    "first_seed+i on both sides; even pairs run the parent first. values holds "
    "each side's runs in pair order; medians and quartiles are over those runs, "
    "and change_wins counts the pairs in which the change read better. "
    "beyond_bound: the change median is worse than the parent median by more "
    "than bound (relative). unresolved: the parent's q3-q1 exceeds bound times "
    "its median and not every change run beats every parent run. "
    "peak_rss_mb.against_attempted: per side, the least-squares intercept (MB) "
    "and slope (bytes per operation) of the runs' peaks against the operations "
    "each run attempted. A run that exited non-zero is listed in failed_runs "
    "and its values are null."
)


def run(checkout: Path, workload: str, seed: int, seconds: float):
    """The run's result, or (exit code, tail of stderr) when it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        return done.returncode, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def reduce(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {
            side: [r and round(r["metrics"][name]["value"], 4) for r in runs[side]]
            for side in SIDES
        }
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                 if p is not None and c is not None]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
        stats = {side: spread([v for v in values[side] if v is not None])
                 for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            "better": better,
            **{side: {**stats[side], "values": values[side]} for side in SIDES},
            "change_over_parent": round(
                stats["change"]["median"] / stats["parent"]["median"], 4
            ) if pairs else None,
            "change_wins": f"{wins}/{len(pairs)}",
            "bound": metric.get("bound"),
        }
        if pairs and metric.get("bound") is not None:
            out[name].update(judge(better, metric["bound"], values, stats))
        if name == "peak_rss_mb":
            out[name]["against_attempted"] = {
                side: against_attempted(runs[side], name) for side in SIDES
            }
    return out


def against_attempted(runs: list[dict], name: str) -> dict:
    """The least-squares line of a memory metric, in MB, against the
    operations each run attempted: its intercept in MB and its slope in
    bytes per operation; None for both with fewer than two distinct
    operation counts."""
    points = [(r["attempted"], r["metrics"][name]["value"]) for r in runs if r]
    if len({x for x, _ in points}) < 2:
        return {"intercept_mb": None, "bytes_per_op": None}
    slope, intercept = statistics.linear_regression(*zip(*points))
    return {"intercept_mb": round(intercept, 4),
            "bytes_per_op": round(slope * 2**20, 2)}


def judge(better: str, bound: float, values: dict, stats: dict) -> dict:
    """The benchmark's verdict on one metric.  beyond_bound: the change
    median is worse than the parent median by more than bound times it.
    unresolved: the parent's quartile spread exceeds bound times its
    median, and not every change run beats every parent run."""
    parent, change = ([v for v in values[side] if v is not None] for side in SIDES)
    median = stats["parent"]["median"]
    if better == "higher":
        worse = median - stats["change"]["median"]
        every_run_beats = min(change) > max(parent)
    else:
        worse = stats["change"]["median"] - median
        every_run_beats = max(change) < min(parent)
    return {
        "beyond_bound": worse > bound * abs(median),
        "unresolved": stats["parent"]["q3"] - stats["parent"]["q1"] > bound * abs(median)
        and not every_run_beats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.update({
        "what": WHAT,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "run_seconds": seconds,
    })
    for workload in args.workload:
        seeds = [args.first_seed + i for i in range(args.pairs)]
        runs = {side: [] for side in SIDES}
        failed = []
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run(checkouts[side], workload, seed, seconds)
                if isinstance(result, tuple):
                    code, stderr = result
                    failed.append({"side": side, "seed": seed, "exit_code": code,
                                   "stderr_tail": stderr})
                    result = None
                    said = f"exited with {code}"
                else:
                    said = f"{result['metrics']['ops_per_s']['value']:.1f} ops/s"
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: {said}", file=sys.stderr)
        done = [r for side in SIDES for r in runs[side] if r]
        report.setdefault("workloads", {})[workload] = {
            "pairs": args.pairs,
            "seeds": seeds,
            "metrics": reduce(declared["end_to_end"], runs),
            "correct": not failed and all(r["correct"] for r in done),
            "failed_runs": failed,
            "failed_per_attempted": {
                side: [r and f"{r['failed']}/{r['attempted']}" for r in runs[side]]
                for side in SIDES
            },
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
