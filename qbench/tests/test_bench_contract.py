"""Failures are counted, and the command keeps its output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qbench import oracles, run, speed
from qbench.worker import Session
from qbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_wrong_oracle_answer_counts_as_failure(monkeypatch):
    session = Session(WORKLOADS["rank-stream"], seed=4)
    monkeypatch.setattr(oracles, "total_index", lambda coeffs: len(coeffs))
    for _ in range(30):
        session.issue()
    checked = [q for q in session.inputs[:30]
               if not q.twin and all(len(c) == 1 for c in q.coeffs)]
    assert session.failed == len(checked) > 0
    assert session.messages and "expected" in session.messages[0]


def test_raising_query_counts_as_failure(monkeypatch):
    workload = WORKLOADS["compare-pool"]
    session = Session(workload, seed=4)

    def broken(query):
        raise ArithmeticError("injected")

    monkeypatch.setattr(workload, "execute", broken)
    session.issue()
    report = session.report()
    assert report["failed"] == report["raised"] == report["attempted"] == 1
    assert "injected" in report["messages"][0]


def test_command_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "rank-stream",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        run.spec_metrics("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_measured_run_ends_on_a_whole_block():
    workload = WORKLOADS["ruling-verify"]
    proc = subprocess.run(
        [sys.executable, "qbench/worker.py", "measure", "--workload",
         workload.name, "--seed", "1", "--t0", "0", "--seconds", "0",
         "--min-samples", str(workload.block + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["attempted"] == 2 * workload.block
    assert len(report["latencies"]) == report["attempted"]
    assert len(report["scaled"]) == report["attempted"]
    assert all(x > 0 for x in report["scaled"])
    assert report["kernel_samples"] >= 2 * speed.EDGE_SAMPLES


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "qbench", tmp_path / "qbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "rank-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", ["no-such-workload"])
def test_unknown_workload_fails(workload):
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
