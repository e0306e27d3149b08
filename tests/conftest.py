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
