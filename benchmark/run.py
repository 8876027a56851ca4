"""Benchmark of vseq's three uses: synthesize, probe and query.

    python3 benchmark/run.py --workload synthesize|probe|query \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; vseq is imported from ./src.  Every
job and every stream of query rounds runs in a fresh single-threaded
worker process (worker.py) and is checked against the reference in
reference.py.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the workload runs
at its shortest (one job, or one query round) once untraced and once
traced, and the metrics are the per-layer figures of the traced processes
plus the tracing overhead.  See README.md for the workloads and the
metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import AUTOMATON, RUN_DIR

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SPAWNS = 8        # set-up-only processes per run, besides the workload's own
FEWEST_JOBS = {"synthesize": 2, "probe": 1}  # jobs per run; more until --seconds have passed
CHECK_SECONDS = 8.0     # query rounds on the automaton after the jobs of synthesize or probe
DEADLINE_S = 175.0      # every process of a run ends before this
TAIL_SAMPLES = 10       # a percentile is reported only with this many samples beyond it
LAYER_UNITS = {         # unit of a per-layer figure, by the last part of its name
    "s": "s", "self_s": "s", "overhead_s": "s", "bookkeeping_s": "s",
    "calls": "count", "attempts": "count", "states": "count", "digits": "count",
    "windows_compared": "count", "v_steps_per_s": "1/s",
    "rss_mb": "MB", "ns_per_a": "ns", "ns_per_index": "ns", "bytes_compared": "B",
    "us_per_digit": "us",
}


class WorkerFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

    def spawn(self, *extra: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), "--workload", self.workload,
                 "--seed", str(self.seed), "--t0", repr(t0), *extra],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker {' '.join(extra)} passed the {DEADLINE_S:.0f} s deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"worker {' '.join(extra)} exited {proc.returncode}")
        return json.loads(lines[-1])

    def jobs(self, fewest: int, seconds: float, *flags: str) -> list[dict]:
        """Whole jobs, each in a fresh process: at least ``fewest``, then
        more until ``seconds`` have passed."""
        done, started = [], time.monotonic()
        while len(done) < fewest or time.monotonic() - started < seconds:
            done.append(self.spawn("--job", str(len(done)), *flags))
        return done

    def queries(self, automaton, seconds: float, *flags: str) -> dict:
        return self.spawn("--queries", str(automaton), "--seconds", str(seconds), *flags)


def machine_of(job: dict) -> Path:
    """The automaton a job's query rounds run on: the one a synthesize job
    wrote, or the committed one after a probe."""
    return Path(job["machine"]) if "machine" in job else AUTOMATON


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    ready = ["--queries", str(AUTOMATON)] if runner.workload == "query" else []
    setups = [runner.spawn("--setup-only", *ready) for _ in range(SETUP_SPAWNS)]
    if runner.workload == "query":
        rounds = runner.queries(AUTOMATON, seconds)
        results = [rounds]
        setups.append(rounds)
        wall = statistics.fmean(rounds["round_walls"])
        raw_wall = statistics.fmean(rounds["raw_round_walls"])
        peak = rounds["peak_rss_mb"]
    else:
        results = runner.jobs(FEWEST_JOBS[runner.workload], seconds)
        setups += results
        wall = statistics.median(job["wall_s"] for job in results)
        raw_wall = statistics.median(job["raw_wall_s"] for job in results)
        peak = statistics.median(job["peak_rss_mb"] for job in results)
        rounds = None
        if machine_of(results[-1]).is_file():  # not when the job failed
            rounds = runner.queries(machine_of(results[-1]), CHECK_SECONDS)
            results.append(rounds)
    print(json.dumps({"unscaled": {
        "setup_s": statistics.median(p["raw_setup_s"] for p in setups),
        "wall_s": raw_wall,
        "speeds": [round(job["speed"], 4) for job in results if "speed" in job]}}))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    if rounds:
        latencies = rounds["latencies_us"]
        metrics["query_p50_us"] = (statistics.median(latencies), "us")
        p99 = statistics.quantiles(latencies, n=100)[98]
        if sum(1 for x in latencies if x > p99) >= TAIL_SAMPLES:
            metrics["query_p99_us"] = (p99, "us")
    return results, metrics


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    """One job (or one timed query round) untraced, then traced; for
    synthesize and probe, one traced query round on the job's automaton as
    well.  Every query process also runs its untimed warm-up round."""
    from tracer import Span, dump_spans, layer_metrics
    if runner.workload == "query":
        plain = runner.queries(AUTOMATON, 0)
        traced = [runner.queries(AUTOMATON, 0, "--trace")]
        overhead = traced[0]["raw_round_walls"][0] - plain["raw_round_walls"][0]
    else:
        plain = runner.jobs(1, 0)[0]
        traced = runner.jobs(1, 0, "--trace")
        overhead = traced[0]["raw_wall_s"] - plain["raw_wall_s"]
        if machine_of(traced[0]).is_file():
            traced.append(runner.queries(machine_of(traced[0]), 0, "--trace"))
    spans = []
    for result in traced:  # one id space over the traced processes
        offset = len(spans)
        spans += [Span(**dict(s, id=s["id"] + offset,
                              parent=s["parent"] + offset if s["parent"] >= 0 else -1))
                  for s in result["spans"]]
    RUN_DIR.mkdir(exist_ok=True)
    dump_spans(spans, RUN_DIR / f"spans-{runner.workload}-{runner.seed}.jsonl")
    layers = layer_metrics(spans, sum(result["bookkeeping_s"] for result in traced))
    metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name, value in layers.items()}
    metrics["trace.overhead_s"] = (overhead, LAYER_UNITS["overhead_s"])
    return [plain, *traced], metrics


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("synthesize", "probe", "query"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vseq" / "__init__.py").is_file():
        print(f"no vseq package under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, subprocess.run kills and reaps the running worker as it unwinds
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args.workload, args.seed)
    try:
        results, metrics = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    errors = [e for r in results for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
