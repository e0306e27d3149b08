"""Closed-loop query benchmark for quasiform.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues each query only after the previous one returns, as every
caller of the library waits for its answer.  Each measurement runs in a
fresh interpreter (`worker.py`); this process only starts them, one at a
time, and aggregates what they print.  The last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: throughput, p50 and p90 latency
over at least MIN_SAMPLES queries, the share answered correctly, set-up
time (median of SETUP_SAMPLES fresh processes) and peak resident memory.
Times are scaled to a reference host by a kernel timed alongside the
queries (`speed.py`), so that the shared host's changes of speed cancel;
the raw figures are printed on the line before the result.

--trace 1 reports the per-layer metrics instead: a traced pass issues the
workload's fixed number of queries, independent of --seconds and of the
host's speed, so its counts depend on the code and the seed alone; an
untraced pass then repeats exactly those queries, and trace.overhead_frac
compares the two.  Spans are saved to qbench/out/.

Metric names and units come from BENCHMARK.json next to qbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# ten samples beyond p90
MIN_SAMPLES = 100
SETUP_SAMPLES = 5
# every run ends within this many seconds, or fails
DEADLINE_S = 170.0

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def spec_metrics(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json lists under `kind`."""
    with open(SPEC, encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class WorkerFailed(Exception):
    pass


def _worker(mode: str, args, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and parse its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}:"
                           f"\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> Tuple[dict, dict]:
    """The measuring worker's report and the end-to-end metrics."""
    run = _worker("measure", args, deadline, "--seconds", str(args.seconds),
                  "--min-samples", str(MIN_SAMPLES))
    setups = [run]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_worker("setup", args, deadline))
    answered = run["attempted"] - run["raised"]

    def timings(latencies, setup_key):
        lat_ms = [x * 1e3 for x in latencies]
        return (answered / sum(latencies), statistics.median(lat_ms),
                statistics.quantiles(lat_ms, n=10)[8],
                statistics.median(s[setup_key] for s in setups))

    qps, p50, p90, setup = timings(run["scaled"], "setup_scaled_s")
    values = {
        "queries_per_s": qps,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
        "setup_s": setup,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = timings(run["latencies"], "setup_s")
    print(f"{args.workload} seed {args.seed}: {run['attempted']} queries, "
          f"{len(setups)} set-ups; raw: {raw[0]:.2f} queries/s, "
          f"p50 {raw[1]:.2f} ms, p90 {raw[2]:.2f} ms, setup {raw[3]:.3f} s; "
          f"kernel median {run['kernel_median_s'] * 1e3:.3f} ms over "
          f"{run['kernel_samples']} samples; scaled: {qps:.2f} queries/s, "
          f"p50 {p50:.2f} ms, p90 {p90:.2f} ms, setup {setup:.3f} s")
    return run, {name: _metric(values[name], unit)
                 for name, unit in spec_metrics("end_to_end")}


def per_layer(args, deadline: float) -> Tuple[dict, dict]:
    """The traced worker's report and the per-layer metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}")
    traced = _worker("trace", args, deadline, "--trace-out", trace_out)
    untraced = _worker("measure", args, deadline,
                       "--count", str(traced["attempted"]))
    if traced["missing_entry_points"]:
        print("entry points not found: "
              + ", ".join(traced["missing_entry_points"]))
    values = traced["metrics"]
    values["trace.overhead_frac"] = traced["traced_s"] / untraced["busy_s"] - 1
    print(f"{args.workload} seed {args.seed}: traced {traced['attempted']} "
          f"queries, {values['trace.spans']} spans, overhead "
          f"{values['trace.overhead_frac']:.2f}; spans in {trace_out}.*")
    return traced, {name: _metric(values[name], unit)
                    for name, unit in spec_metrics("per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop query benchmark for quasiform.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "quasiform",
                                       "__init__.py")):
        print("error: no quasiform sources under src/ next to qbench/",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            run, metrics = per_layer(args, deadline)
        else:
            run, metrics = end_to_end(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in run["messages"]:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
