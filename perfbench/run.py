"""Benchmark of the meadows workbench: one workload per run, or all four.

    python3 perfbench/run.py --workload exhaust-laws --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A run sets up the workload (the set-up is also repeated
in fresh processes and reported as the median), repeats whole rounds of
operations until ``--seconds`` have passed, checks every answer against the
oracles, and prints one JSON object as its last line.  With ``--trace 1``
it runs half the time untraced and half traced and prints the per-layer
metrics instead; the spans go to ``.perfbench/`` in the checkout.
``--workload all`` runs every workload, each in its own process.
``--smoke`` runs one round of small inputs with every check.
"""

import os

# One thread: the machine has two cores and the loop has one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 11
# The timed loop is cut into this many blocks of whole rounds; each timing is
# the median over the blocks, so a few seconds of contention from other
# processes on the machine move at most one block.
BLOCKS = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from spans import CLI_COMMANDS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Api  # noqa: E402


class Phase:
    """Latencies and outcomes of consecutive whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failures: Counter = Counter()
        self.rounds = 0
        self.round_ends: list[int] = []

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def blocks(self) -> list[list[float]]:
        """Latencies in at most BLOCKS runs of consecutive whole rounds."""
        n = min(BLOCKS, self.rounds)
        ends = [self.round_ends[(b + 1) * self.rounds // n - 1] for b in range(n)]
        return [self.latencies[start:end] for start, end in zip([0, *ends], ends)]


def run_phase(workload, seconds: float, first_round: int, tracer, min_rounds: int = 1) -> Phase:
    """Closed loop: whole rounds, one operation at a time, until the time is
    up and at least ``min_rounds`` rounds have run."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    r = first_round
    while True:
        if workload.collect_between_rounds:
            gc.collect()
        for label, key, op in workload.round(r):
            if tracer is not None:
                tracer.op = len(phase.latencies)
            t0 = clock()
            try:
                result = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.latencies.append(clock() - t0)
                phase.failures[f"{label}: {type(exc).__name__}"] += 1
            else:
                phase.latencies.append(clock() - t0)
                workload.keep(key, label, result)
            phase.labels.append(label)
        r += 1
        phase.rounds += 1
        phase.round_ends.append(len(phase.latencies))
        if clock() - start >= seconds and phase.rounds >= min_rounds:
            return phase


def set_up(workload, tracer):
    """Import the program cold and build the workload's inputs."""
    start = time.perf_counter()
    import meadows

    if not Path(meadows.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"meadows was imported from {meadows.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    api = Api(tracer)
    workload.setup(api)
    return api, time.perf_counter() - start


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (q = 50 or 90)."""
    if q == 50:
        return statistics.median(values) * 1000
    return statistics.quantiles(values, n=10)[q // 10 - 1] * 1000


def end_to_end(phase: Phase, setup_samples: list[float]) -> dict:
    blocks = phase.blocks()
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(len(b) / sum(b) for b in blocks),
        "op_p50_ms": statistics.median(percentile_ms(b, 50) for b in blocks),
        "op_p90_ms": statistics.median(percentile_ms(b, 90) for b in blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer, api: Api) -> dict:
    metrics = layer_metrics(tracer.spans, traced.rounds, api.raw["generating_set"])
    for command in CLI_COMMANDS:
        times = [t for t, label in zip(untraced.latencies, untraced.labels)
                 if label == f"cli.{command}"]
        metrics[f"cli.{command}.p50_ms"] = percentile_ms(times, 50) if times else 0.0
    fast, slow = untraced.ops_per_s(), traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = fast
    metrics["trace.traced_ops_per_s"] = slow
    metrics["trace.overhead_pct"] = (fast - slow) / fast * 100
    return metrics


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.smoke, SCRATCH)
    if args.setup_only:
        try:
            _, seconds = set_up(workload, None)
        finally:
            workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    seconds = 0.0 if args.smoke else args.seconds
    rounds = workload.smoke_rounds if args.smoke else 1
    tracer = Tracer() if args.trace else None
    # The set-ups in fresh processes are split between before and after the
    # timed loop, so that they sample the host's load over the whole run.
    children = 0 if args.trace or args.smoke else SETUP_REPS - 1
    samples = [setup_in_child(args) for _ in range(children // 2)]
    SCRATCH.mkdir(exist_ok=True)
    try:
        api, own = set_up(workload, tracer)
        samples.append(own)
        if tracer is None:
            phase = run_phase(workload, seconds, 0, None, rounds)
            phases = [phase]
            samples += [setup_in_child(args) for _ in range(children - children // 2)]
            metrics = end_to_end(phase, samples)
        else:
            tracer.uninstall()
            api.rebind(None)
            untraced = run_phase(workload, seconds / 2, 0, None, rounds)
            tracer.install()
            api.rebind(tracer)
            traced = run_phase(workload, seconds / 2, untraced.rounds, tracer, rounds)
            tracer.uninstall()
            api.rebind(None)
            phases = [untraced, traced]
            metrics = per_layer(untraced, traced, tracer, api)
            tracer.write(SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl")
        errors = workload.check()
    finally:
        workload.close()
    errors += [f"operation {key} answered differently in two rounds"
               for key in workload.mismatches]

    attempted = sum(len(p.latencies) for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    for line in errors[:20]:
        print(f"INCORRECT {args.workload}: {line}", file=sys.stderr)
    for what, count in sorted(failures.items()):
        print(f"FAILED {args.workload}: {what} x{count}", file=sys.stderr)
    print(f"{args.workload}: {sum(p.rounds for p in phases)} rounds, "
          f"{attempted} operations attempted, {failures.total()} failed, "
          f"{'correct' if not errors else 'INCORRECT'}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {_unit(name)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failures.total(),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_yield", "_share")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of small inputs, every check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "meadows" / "__init__.py").is_file():
        print(f"no meadows sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
