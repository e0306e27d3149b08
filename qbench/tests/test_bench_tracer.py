"""The tracer partitions traced time by layer, leaves nothing behind and
repeats its counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiform
from qbench import tracer as tracing
from qbench.run import spec_metrics
from qbench.worker import Session
from qbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _installed_wrappers():
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("quasiform"):
            continue
        for key, value in vars(module).items():
            if getattr(value, "__qbench_traced__", False):
                found.append(f"{name}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, "__qbench_traced__", False):
                        found.append(f"{name}.{key}.{attr}")
    return found


def _traced_session(name, count, tmp_path):
    session = Session(WORKLOADS[name], seed=3)
    tracer = tracing.Tracer()
    query = tracer.query_span()

    def call(execute, q):
        tracer.open(query)
        try:
            return execute(q)
        finally:
            tracer.close()

    with tracer:
        assert _installed_wrappers()
        for _ in range(count):
            session.issue(call)
    tracer.write(str(tmp_path / "trace"))
    return session, tracer


@pytest.mark.parametrize("name,count", [("invariants-tower", 4),
                                        ("ruling-verify", 3),
                                        ("rank-stream", 40)])
def test_self_times_add_up_to_traced_wall_time(name, count, tmp_path):
    session, tracer = _traced_session(name, count, tmp_path)
    assert session.failed == 0
    assert sum(tracer.self_s) == pytest.approx(tracer.root_s, rel=1e-9)
    assert all(s >= 0 for s in tracer.self_s)
    # recomputed offline from the saved spans
    spans = tracing.load_spans(str(tmp_path / "trace"))
    offline = tracing.self_times(spans)
    assert sum(offline.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    for layer, seconds in offline.items():
        online = tracer.self_s[tracing.LAYERS.index(layer)]
        assert seconds == pytest.approx(online, rel=1e-6, abs=1e-9)
    roots = sum(e - s for s, e, p in zip(spans["starts"], spans["ends"],
                                         spans["parents"]) if p < 0)
    assert roots == pytest.approx(tracer.root_s, rel=1e-9)
    assert len(spans["starts"]) == len(tracer.starts) > count


def test_no_wrapper_remains_after_a_traced_run(tmp_path):
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name.startswith("quasiform")}
    _traced_session("compare-pool", 2, tmp_path)
    assert _installed_wrappers() == []
    for name, namespace in before.items():
        after = vars(sys.modules[name])
        for key, value in namespace.items():
            assert after[key] is value, f"{name}.{key} was not restored"


def test_wrappers_cover_names_imported_elsewhere():
    original = quasiform.gf2poly.poly_lcm
    with tracing.Tracer() as tracer:
        assert quasiform.sqlinalg.poly_lcm is quasiform.gf2poly.poly_lcm
        assert quasiform.sqlinalg.poly_lcm is not original
        ratfn = quasiform.gf2poly.RatFn
        assert ratfn.__sub__ is ratfn.__add__
        assert tracer.missing == []
    assert quasiform.sqlinalg.poly_lcm is original


def test_layer_metrics_are_reported(tmp_path):
    _, tracer = _traced_session("ruling-verify", 3, tmp_path)
    metrics = tracer.metrics()
    # run.py adds the overhead, from a second, untraced process
    for name, _ in spec_metrics("per_layer"):
        assert name in metrics or name == "trace.overhead_frac", name
    assert metrics["sqlinalg.linear_solve_calls"] > 0
    assert metrics["fieldtower.max_depth"] >= 1
    assert metrics["cli.calls"] == 3


def _traced_counts(name, hash_seed):
    proc = subprocess.run(
        [sys.executable, "qbench/worker.py", "trace", "--workload", name,
         "--seed", "5", "--t0", "0", "--count", "6"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v for k, v in metrics.items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("name", ["rank-stream", "compare-pool"])
def test_traced_counts_depend_on_the_seed_alone(name):
    # two fresh processes, each with its own string hashing
    first = _traced_counts(name, "1")
    assert first["trace.spans"] > 6
    assert _traced_counts(name, "2") == first
