"""One benchmark process: set up a workload, then time or trace its queries.

`run.py` starts this file in a fresh interpreter for every measurement and
reads the JSON object it prints last.  Modes:

  setup    import the library and build the inputs, then report setup_s
  measure  also warm up, then issue queries closed-loop for --seconds, at
           least --min-samples of them and a whole number of the
           workload's blocks, and report every latency, raw and scaled
           to the reference host (`speed.py`); with --count, issue
           exactly that many instead
  trace    also warm up, then issue the workload's fixed number of traced
           queries (or --count) with the tracer installed and report the
           per-layer metrics

setup_s runs from --t0, a time.monotonic() reading the parent took just
before starting this process, to the end of input generation, so it covers
interpreter start, `import quasiform` and building the inputs.  The clock
is system-wide, so readings from both processes compare.  setup_scaled_s
is setup_s scaled by the reference kernel timed right after set-up.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from qbench.speed import EDGE_SAMPLES, Speedometer  # noqa: E402
from qbench.workloads import WORKLOADS, Workload  # noqa: E402

# the disjoint warm-up stream: enough calls to finish lazy imports and
# first-use allocation, untimed
WARMUP_QUERIES = 3
MAX_FAILURE_MESSAGES = 5


class Session:
    """Issues one workload's queries in order and checks every answer."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.stream = workload.timed(seed)
        self.inputs = list(itertools.islice(self.stream, workload.prebuilt))
        self.issued = 0
        self.previous = None
        self.starts = []
        self.latencies = []
        self.failed = 0
        self.raised = 0
        self.messages = []

    def warm_up(self, seed: int) -> None:
        for query in itertools.islice(self.workload.warmup(seed),
                                      WARMUP_QUERIES):
            self.workload.execute(query)

    def next_query(self):
        if self.issued < len(self.inputs):
            query = self.inputs[self.issued]
        else:
            query = next(self.stream)
        self.issued += 1
        return query

    def issue(self, on_call=None) -> None:
        """Time one call into the library, then check its answer."""
        query = self.next_query()
        execute = self.workload.execute
        answer = None
        errors = []
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            if on_call is None:
                answer = execute(query)
            else:
                answer = on_call(execute, query)
        except Exception as exc:  # a failed query is counted, not fatal
            errors = [f"raised {type(exc).__name__}: {exc}"]
            self.raised += 1
        self.latencies.append(time.perf_counter() - t0)
        if not errors:
            try:
                errors = self.workload.check(query, answer, self.previous)
            except Exception as exc:  # an answer the oracle cannot read
                errors = [f"oracle rejected the answer: {exc!r}"]
        self.previous = answer
        if errors:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"query {self.issued}: {errors[0]}")

    def report(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "raised": self.raised,
            "busy_s": sum(self.latencies),
            "messages": self.messages,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-samples", type=int, default=1)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    session = Session(workload, args.seed)
    out = {"setup_s": time.monotonic() - args.t0}
    # the inputs live for the whole run: keep the cyclic collector from
    # rescanning them during the timed calls
    gc.freeze()
    speed = Speedometer()
    speed.sample(EDGE_SAMPLES)
    out["setup_scaled_s"] = out["setup_s"] * speed.factor(speed.starts[-1])
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    session.warm_up(args.seed)
    if args.mode == "measure":
        speed.sample(EDGE_SAMPLES)
        if args.count:
            for _ in range(args.count):
                speed.maybe_sample()
                session.issue()
        else:
            start = time.perf_counter()
            while (time.perf_counter() - start < args.seconds
                   or len(session.latencies) < args.min_samples
                   or len(session.latencies) % workload.block):
                speed.maybe_sample()
                session.issue()
        speed.sample(EDGE_SAMPLES)
        out.update(session.report())
        out["latencies"] = session.latencies
        out["scaled"] = speed.scale(session.starts, session.latencies)
        out["kernel_samples"], out["kernel_median_s"] = speed.summary()
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from qbench.tracer import Tracer

        tracer = Tracer()
        query_span = tracer.query_span()

        def traced_call(execute, query):
            tracer.open(query_span)
            try:
                return execute(query)
            finally:
                tracer.close()

        with tracer:
            for _ in range(args.count or workload.traced):
                session.issue(traced_call)
        out.update(session.report())
        # the query spans cover the traced wall time, and the per-layer
        # self times partition it
        out["traced_s"] = tracer.root_s
        out["metrics"] = tracer.metrics()
        out["missing_entry_points"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
