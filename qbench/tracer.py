"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps each layer's entry functions and operators in place:
module functions are rebound under every name any quasiform module holds
them by (so `from .gf2poly import poly_gcd` elsewhere is patched too) and
methods are rebound on their class, aliases included.  `uninstall` puts
every original back.  The untraced runs never import this module.

A span is opened per wrapped call, with its parent, start and end kept in
flat arrays; `write` saves them when the run ends.  A span's self time is
its duration minus the time its child spans cover, accumulated per layer
as spans close.  Calls are single-threaded, so children never overlap.

Metric names drop the leading underscore of private modules (`_gfnum` is
reported as `gfnum`), since a metric name starts with a letter.
"""

import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# layer -> entry points; "Class.method" or "function", looked up in
# quasiform.<layer>.  Functions that recurse into themselves are marked
# with a trailing "*": nested calls then run unwrapped.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "gf2poly": ("Poly.__mul__", "Poly.__add__", "RatFn.__add__",
                "RatFn.__mul__", "RatFn.square_coordinates", "poly_gcd",
                "poly_divmod_exact", "poly_lcm"),
    "_gfnum": ("numeric_verdict",),
    "_elim": ("solve", "solvable", "nullspace"),
    "sqlinalg": ("solve_square_system_multi", "solve_square_system",
                 "square_system_solvable", "square_nullspace_multi",
                 "square_nullspace", "tower_square_root",
                 "tower_linear_solve", "k2_membership", "greedy_independent",
                 "k2_rank", "kernel_from_coefficients", "span_saturate",
                 "isotropic_kernel_basis", "SquareRelation.__init__"),
    "fieldtower": ("TowerElem.__mul__", "TowerElem.__add__",
                   "TowerElem.invert", "TowerElem.square",
                   "TowerElem.__pow__*", "FieldTower._mul*",
                   "FieldTower.extend_inseparable", "FieldTower.embed",
                   "TowerHom.apply"),
    "forms": ("total_index", "anisotropic_part", "invariants",
              "is_anisotropic", "is_isometric", "decide_similar",
              "generic_subform", "isotropic_vectors_basis",
              "QuasilinearForm.evaluate", "QuasilinearForm.over",
              "QuasilinearForm.scale"),
    "splitting": ("function_field", "total_index_over", "splitting_pattern",
                  "first_witt_index", "essential_dimension"),
    "pfister": ("norm_degree", "norm_field_slots", "is_quasi_pfister_neighbor",
                "albert_multiply", "special_neighbor_ruling",
                "QuasiPfisterForm.__init__"),
    "maps": ("RationalMap.__init__", "RationalMap.verify",
             "projectively_equal"),
    "birational": ("is_isotropic_over", "essdim_domination_check",
                   "decide_stably_equivalent", "decide_birational",
                   "construct_ruling", "unique_self_map_check",
                   "is_regular_quadric", "_pull_basis",
                   "RulingCertificate.verify", "RulingDecomposition.verify"),
    "dsl": ("parse",),
    "cli": ("run",),
}

# "query" is the span the benchmark opens around each call; its self time
# is the part of a call that no wrapped entry point covers
LAYERS = ("query",) + tuple(ENTRY_POINTS)


def metric_layer(layer: str) -> str:
    return layer.lstrip("_")


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.span_names: List[str] = []          # "layer:qualname"
        self.span_layer: List[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self._stack: List[int] = []
        self._covered: List[float] = []
        self.self_s = [0.0] * len(LAYERS)
        self.root_s = 0.0                        # time covered by spans
        self.calls = [0] * len(LAYERS)
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._forms_seen: set = set()
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        self.span_names.append(f"{layer}:{qualname}")
        self.span_layer.append(LAYERS.index(layer))
        return len(self.span_names) - 1

    def open(self, nid: int) -> None:
        stack = self._stack
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        stack.append(len(self.starts))
        self._covered.append(0.0)
        self.starts.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        idx = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        layer = self.span_layer[self.name_ids[idx]]
        self.self_s[layer] += duration - self._covered.pop()
        self.calls[layer] += 1
        if self._covered:
            self._covered[-1] += duration
        else:
            self.root_s += duration

    def query_span(self) -> int:
        """Name id for the benchmark's own per-query span."""
        return self._name_id("query", "query")

    @property
    def innermost(self) -> Optional[int]:
        return self.name_ids[self._stack[-1]] if self._stack else None

    # -- counters ----------------------------------------------------------

    def _counters(self) -> Dict[Tuple[str, str], Callable]:
        """Hooks (args, result) -> None for the entry points with counters,
        keyed by (layer, entry); every counter they feed starts at 0."""
        counts = self.counts

        def counter(*keys: str) -> None:
            for key in keys:
                counts[key] = 0

        def poly_mul(args, result):
            counts["gf2poly.mul_calls"] += 1
            counts["gf2poly.mul_term_pairs"] += (len(args[0].terms)
                                                 * len(args[1].terms))

        def gfnum(args, result):
            counts["gfnum.conclusive_calls"] += result is not None

        def elim(name):
            def hook(args, result):
                matrix = args[0]
                ncols = args[1] if name == "nullspace" else (
                    len(matrix[0]) if matrix else 0)
                counts["elim.matrix_entries"] += len(matrix) * ncols
            return hook

        def tower(key):
            counter(key)

            def hook(args, result):
                counts[key] += 1
                counts["fieldtower.max_depth"] = max(
                    counts["fieldtower.max_depth"], args[0].tower.depth)
            return hook

        def function_field(args, result):
            counts["splitting.function_field_calls"] += 1
            self._forms_seen.add(args[0])

        def plain(key):
            counter(key)

            def hook(args, result):
                counts[key] += 1
            return hook

        counter("gf2poly.mul_calls", "gf2poly.mul_term_pairs",
                "gfnum.conclusive_calls", "elim.matrix_entries",
                "fieldtower.max_depth", "splitting.function_field_calls")
        return {
            ("gf2poly", "Poly.__mul__"): poly_mul,
            ("gf2poly", "poly_gcd"): plain("gf2poly.gcd_calls"),
            ("gf2poly", "poly_divmod_exact"): plain("gf2poly.divexact_calls"),
            ("_gfnum", "numeric_verdict"): gfnum,
            ("_elim", "solve"): elim("solve"),
            ("_elim", "solvable"): elim("solvable"),
            ("_elim", "nullspace"): elim("nullspace"),
            ("sqlinalg", "square_system_solvable"):
                plain("sqlinalg.solvable_calls"),
            ("sqlinalg", "k2_membership"): plain("sqlinalg.membership_calls"),
            ("sqlinalg", "square_nullspace_multi"):
                plain("sqlinalg.nullspace_calls"),
            ("sqlinalg", "tower_linear_solve"):
                plain("sqlinalg.linear_solve_calls"),
            ("fieldtower", "TowerElem.__mul__"): tower("fieldtower.mul_calls"),
            ("fieldtower", "TowerElem.invert"):
                tower("fieldtower.invert_calls"),
            ("splitting", "function_field"): function_field,
        }

    # -- installation ------------------------------------------------------

    def _wrapper(self, fn: Callable, nid: int, hook: Optional[Callable],
                 reentrant: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if reentrant and tracer.innermost == nid:
                return fn(*args, **kwargs)
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__qbench_traced__ = True
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        import quasiform  # noqa: F401  (loads every layer)

        package = [m for n, m in sorted(sys.modules.items())
                   if n == "quasiform" or n.startswith("quasiform.")]
        counters = self._counters()
        for layer, entries in ENTRY_POINTS.items():
            module = sys.modules[f"quasiform.{layer}"]
            for entry in entries:
                reentrant = entry.endswith("*")
                name = entry.rstrip("*")
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                traced = self._wrapper(fn, self._name_id(layer, name),
                                       counters.get((layer, name)),
                                       reentrant)
                # every binding of the same object: imports by name into
                # other modules, and aliases such as __sub__ = __add__
                owners = [owner] if cls_name else package
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._rebind(target, key, traced)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer figure of the run, keyed by metric name: each
        layer's self time and call count, every counter, and the ratios."""
        out: Dict[str, float] = dict(self.counts)
        for i, layer in enumerate(LAYERS):
            if layer != "query":
                out[f"{metric_layer(layer)}.self_s"] = self.self_s[i]
                out[f"{metric_layer(layer)}.calls"] = self.calls[i]
        verdicts = out["gfnum.calls"]
        out["gfnum.conclusive_ratio"] = (
            out["gfnum.conclusive_calls"] / verdicts if verdicts else 0.0)
        ff_calls = out["splitting.function_field_calls"]
        out["splitting.function_field_distinct_ratio"] = (
            len(self._forms_seen) / ff_calls if ff_calls else 0.0)
        out["trace.spans"] = len(self.starts)
        return out

    def write(self, path: str) -> None:
        """Spans as a JSON header plus flat binary arrays in `path`.spans."""
        arrays = (("starts", self.starts), ("ends", self.ends),
                  ("parents", self.parents), ("name_ids", self.name_ids))
        with open(path + ".spans", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "span_names": self.span_names,
            "layers": [LAYERS[i] for i in self.span_layer],
            "arrays": [[key, arr.typecode, len(arr)] for key, arr in arrays],
            "missing_entry_points": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def load_spans(path: str) -> Dict[str, object]:
    """Read back what `Tracer.write` saved."""
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    with open(path + ".spans", "rb") as fh:
        for key, typecode, length in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, length)
            header[key] = arr
    return header


def self_times(spans: Dict[str, object]) -> Dict[str, float]:
    """Per-layer self time recomputed offline from saved spans."""
    starts, ends, parents = spans["starts"], spans["ends"], spans["parents"]
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: Dict[str, float] = {}
    for i, nid in enumerate(spans["name_ids"]):
        layer = spans["layers"][nid]
        out[layer] = out.get(layer, 0.0) + ends[i] - starts[i] - covered[i]
    return out
