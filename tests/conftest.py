import sys
from pathlib import Path

import pytest

# the oracles module lives next to the tests, not in the package
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def ranked(monkeypatch):
    """The coefficient tuples `QuasilinearForm.independent` hands to
    k2_rank, in call order."""
    import quasiform.forms

    calls = []
    real = quasiform.forms.k2_rank

    def recording(gens):
        calls.append(tuple(gens))
        return real(gens)

    monkeypatch.setattr(quasiform.forms, "k2_rank", recording)
    return calls


@pytest.fixture
def systems(monkeypatch):
    """Every square system built, as (tower, first entry of each column),
    and the right-hand side of every greedy step k2_rank takes."""
    from quasiform import sqlinalg

    built, steps = [], []

    class Recording(sqlinalg._SquareBlocks):
        def __init__(self, columns):
            super().__init__(columns)
            built.append((self.tower, [col[0] for col in columns]))

        def solvable(self, cols, target):
            steps.append(target)
            return super().solvable(cols, target)

    monkeypatch.setattr(sqlinalg, "_SquareBlocks", Recording)
    return built, steps
