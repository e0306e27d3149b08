"""The benchmark's answers, pinned: the SHA-256 of the first queries'
answers on each workload at seed 7, and the decisions taken to reach
them.  A change that keeps every answer keeps these hashes; a change to
the workloads themselves (a benchmark change to `qbench/workloads.py`)
updates them in the same commit.

The decision counts are the witness verdicts (`_gfnum.numeric_verdict`),
the conclusive ones among them, the exact eliminations (`_elim.solve`,
`solvable`, `nullspace`), and the function fields built
(`splitting.function_field`): a form keeps the field it built, so a call
counts only when it returns a field object not returned before.  A change
that alters a count updates its pin and says why in CHANGES.md."""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from quasiform import _elim, _gfnum, splitting

# workload -> (queries answered, SHA-256 of their answers, decision counts)
PINNED = {
    "rank-stream": (
        400,
        "7187b2dd7d95f35c3e22e8a8d2293e34b2add4d04155cee0a7ef92ef10a92522",
        dict(numeric_verdict=1625, conclusive=1611, solve=0, solvable=14,
             nullspace=0, function_field=0)),
    "invariants-tower": (
        120,
        "8a19db896f926575c936c95ea15a377fabb9139a69140d2da13a482e526a70b8",
        dict(numeric_verdict=290, conclusive=290, solve=0, solvable=0,
             nullspace=0, function_field=0)),
    "ruling-verify": (
        60,
        "181a135f66cde978819ea525ec58d3be6cf1f1082b9ac3407ab5943774977ad5",
        dict(numeric_verdict=264, conclusive=264, solve=96, solvable=0,
             nullspace=0, function_field=96)),
    "compare-pool": (
        198,
        "3c79913fdc61047a20b085af6f8fefdf30d7018f81b051117ec6118d0688e39d",
        dict(numeric_verdict=1927, conclusive=1908, solve=0, solvable=14,
             nullspace=12, function_field=66)),
}


@pytest.fixture
def decisions(monkeypatch):
    """Calls per decision function, conclusive verdicts, and distinct
    function fields, counted at every binding in the library."""
    counts = dict.fromkeys(("numeric_verdict", "conclusive", "solve",
                            "solvable", "nullspace", "function_field"), 0)
    # every field returned, by identity: a form returns its own field again
    fields = {}

    def counting(real):
        def spy(*args):
            result = real(*args)
            if real.__name__ == "function_field":
                if id(result) in fields:
                    return result
                fields[id(result)] = result
            counts[real.__name__] += 1
            if real.__name__ == "numeric_verdict" and result is not None:
                counts["conclusive"] += 1
            return result
        return spy

    for real in (_gfnum.numeric_verdict, _elim.solve, _elim.solvable,
                 _elim.nullspace, splitting.function_field):
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "quasiform"
                    and getattr(module, real.__name__, None) is real):
                monkeypatch.setattr(module, real.__name__, counting(real))
    return counts


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_answers_match_their_pinned_hash(name, decisions,
                                                   monkeypatch):
    """Each answer is hashed as `json.dumps(answer, sort_keys=True)` and a
    newline, in query order."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from qbench.workloads import WORKLOADS

    count, expected, counts = PINNED[name]
    workload = WORKLOADS[name]
    digest = hashlib.sha256()
    for query in itertools.islice(workload.timed(7), count):
        answer = workload.execute(query)
        digest.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == expected
    assert decisions == counts
