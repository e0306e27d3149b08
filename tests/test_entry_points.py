"""Every entry point the benchmark's tracer wraps, and every name the
package exports, still exists; the exports are exactly the names the
package imports from its modules.

The tracer (qbench/tracer.py) looks each name up in quasiform.<layer> and
only reports a missing one, whose per-layer figures then read 0; this test
turns a rename or deletion into a failure.  It reads the table and never
installs the tracer.

A function, class or method that nothing in the package calls fails too,
unless `UNCALLED` lists it with the reason it stays.
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


PAPER = "paper construction, kept"
PUBLIC = "public API, kept"
TRACED = "traced in ENTRY_POINTS; delete after ROADMAP item 2"

# module.qualname -> why it stays although nothing in src/ calls it
UNCALLED = {
    "birational.essdim_domination_check": PAPER,
    "forms.generic_subform": PAPER,
    "pfister.quasi_pfister": PAPER,
    "splitting.check_hl_bound": PAPER,
    "dsl.Script.render": PUBLIC,
    "dsl.scripts_equivalent": PUBLIC,
    "dsl.tokenize": PUBLIC,
    "fieldtower.FieldTower.element": PUBLIC,
    "fieldtower.FieldTower.extend_inseparable": PUBLIC,
    "fieldtower.FieldTower.scalar": PUBLIC,
    "fieldtower.TowerHom.apply": PUBLIC,
    "forms.invariants": PUBLIC,
    "gf2poly.RatFn.square_root": PUBLIC,
    "splitting.total_index_over": PUBLIC,
    "forms.isotropic_vectors_basis": TRACED,
    "gf2poly.RatFn.square_coordinates": TRACED,
    "sqlinalg.isotropic_kernel_basis": TRACED,
    "sqlinalg.k2_membership": TRACED,
    "sqlinalg.square_nullspace": TRACED,
    "sqlinalg.tower_linear_solve": TRACED,
}


def _uncalled_names():
    """Functions, classes and methods of the package whose name occurs in
    no module of it (as a name or an attribute) outside their own body.
    Dunder methods are called by the language; the package's __init__
    only re-exports, so its imports are no call."""
    package = Path(importlib.import_module("quasiform").__file__).parent
    defined, seen = {}, {}

    def walk(node, owner, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{owner}.{child.name}" if owner else child.name
                defined[f"{module}.{qualname}"] = child.name
                walk(child, qualname if isinstance(child, ast.ClassDef)
                     else owner, f"{module}.{qualname}", module)
                continue
            if isinstance(child, ast.Name):
                seen.setdefault(child.id, set()).add(scope)
            elif isinstance(child, ast.Attribute):
                seen.setdefault(child.attr, set()).add(scope)
            walk(child, owner, scope, module)

    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), "", path.stem, path.stem)
    return {key for key, name in defined.items()
            if not (name.startswith("__") and name.endswith("__"))
            and not seen.get(name, set()) - {key}}


def test_every_uncalled_name_is_listed_with_its_reason():
    # a new name with no caller fails here; one that gains a caller, or
    # is deleted, leaves the list
    assert _uncalled_names() == set(UNCALLED)
