"""Every entry point the benchmark's tracer wraps, and every name the
package exports, still exists; the exports are exactly the names the
package imports from its modules.

The tracer (qbench/tracer.py) looks each name up in quasiform.<layer> and
only reports a missing one, whose per-layer figures then read 0; this test
turns a rename or deletion into a failure.  It reads the table and never
installs the tracer.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

TRACER = Path(__file__).resolve().parents[1] / "qbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("_qbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    missing = []
    for layer, entries in _entry_points().items():
        module = importlib.import_module(f"quasiform.{layer}")
        for entry in entries:
            owner_name, _, attr = entry.rstrip("*").rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{layer}.{entry}")
    assert missing == []


def test_every_exported_name_resolves():
    import quasiform

    missing = [name for name in quasiform.__all__
               if not hasattr(quasiform, name)]
    assert missing == []
    assert len(set(quasiform.__all__)) == len(quasiform.__all__)


def test_exports_are_the_names_imported_from_the_package():
    import quasiform

    tree = ast.parse(Path(quasiform.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(quasiform.__all__) == imported
    assert quasiform.__all__ == sorted(imported)
    for name in quasiform.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(quasiform, name), ModuleType)
