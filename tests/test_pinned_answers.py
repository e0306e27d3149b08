"""The benchmark's answers, pinned: the SHA-256 of the first queries'
answers on each workload at seed 7.  A change that keeps every answer
keeps these hashes; a change to the workloads themselves (a benchmark
change to `qbench/workloads.py`) updates them in the same commit."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

# workload -> (queries answered, SHA-256 of their answers)
PINNED = {
    "rank-stream": (
        400,
        "7187b2dd7d95f35c3e22e8a8d2293e34b2add4d04155cee0a7ef92ef10a92522"),
    "invariants-tower": (
        120,
        "8a19db896f926575c936c95ea15a377fabb9139a69140d2da13a482e526a70b8"),
    "ruling-verify": (
        60,
        "181a135f66cde978819ea525ec58d3be6cf1f1082b9ac3407ab5943774977ad5"),
    "compare-pool": (
        198,
        "3c79913fdc61047a20b085af6f8fefdf30d7018f81b051117ec6118d0688e39d"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_answers_match_their_pinned_hash(name, monkeypatch):
    """Each answer is hashed as `json.dumps(answer, sort_keys=True)` and a
    newline, in query order."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from qbench.workloads import WORKLOADS

    count, expected = PINNED[name]
    workload = WORKLOADS[name]
    digest = hashlib.sha256()
    for query in itertools.islice(workload.timed(7), count):
        answer = workload.execute(query)
        digest.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == expected
