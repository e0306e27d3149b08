"""The benchmark's four workloads.

Each workload is a deterministic stream of queries drawn from its seed, an
`execute` step that makes one call into the library's public API, and a
`check` step that compares the answer with an oracle from `oracles`.
Inputs are bounded on purpose: query cost spans four orders of magnitude
over this domain, and NOTES.md lists the heavy inputs left out for now.

Warm-up queries come from a disjoint seed over different variable names,
so no warm-up input equals a timed one.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import quasiform
from quasiform import cli, dsl
from quasiform.fieldtower import FieldTower
from quasiform.forms import QuasilinearForm
from quasiform.gf2poly import Poly

from . import oracles
from .oracles import Exponents

# a coefficient is a sum of monomials, each given by its exponent vector
Coeff = Tuple[Exponents, ...]


@dataclass(frozen=True)
class Query:
    payload: object                 # a QuasilinearForm or a script text
    coeffs: Tuple[Coeff, ...]       # the form's coefficients (p then q)
    split: int = 0                  # compare: len(p); coeffs[split:] is q
    twin: bool = False              # must agree with the query before it


def _mono(rng: random.Random, nvars: int, max_exp: int) -> Exponents:
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def _add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def _double(a: Exponents) -> Exponents:
    return tuple(2 * x for x in a)


def _with_parity(rng: random.Random, mask: int, nvars: int) -> Exponents:
    """A monomial of exponent <= 2 in the given parity class."""
    return tuple(1 if mask >> i & 1 else rng.choice((0, 2))
                 for i in range(nvars))


def _expr(names: Sequence[str], exps: Exponents) -> str:
    factors = [n if e == 1 else f"{n}^{e}"
               for n, e in zip(names, exps) if e]
    return "*".join(factors) or "1"


def _form_text(names: Sequence[str], forms: Dict[str, Sequence[Exponents]],
               command: str) -> str:
    lines = [f"field F2({', '.join(names)});"]
    for fname, coeffs in forms.items():
        body = ", ".join(_expr(names, c) for c in coeffs)
        lines.append(f"form {fname} = <{body}>;")
    lines.append(command + ";")
    return "\n".join(lines) + "\n"


def _build_form(field: FieldTower, coeffs: Sequence[Coeff]) -> QuasilinearForm:
    names = field.base_vars
    elems = []
    for terms in coeffs:
        monos = [tuple((n, e) for n, e in zip(names, t) if e) for t in terms]
        elems.append(field.scalar(Poly(monos, names)))
    return QuasilinearForm(field, elems)


def _monomials(coeffs: Sequence[Coeff]) -> List[Exponents]:
    return [c[0] for c in coeffs]


class Workload:
    """Base class: subclasses define `queries`, `execute` and `check`."""

    name = ""
    timed_names: Tuple[str, ...] = ()
    warmup_names: Tuple[str, ...] = ()
    # queries generated before the first timed one; the stream extends
    # past this lazily, outside the timed calls
    prebuilt = 0
    # a measured run ends on a whole number of blocks, so every run holds
    # the same mix of query kinds whatever the speed of the host
    block = 1
    # queries in a traced run, whole blocks: a fixed number, so that its
    # counts depend on the code and the seed alone
    traced = 0

    def queries(self, seed: int, names: Tuple[str, ...]) -> Iterator[Query]:
        raise NotImplementedError

    def execute(self, query: Query):
        raise NotImplementedError

    def check(self, query: Query, answer, previous) -> List[str]:
        """Oracle disagreements; `previous` is the answer to the query
        before this one."""
        raise NotImplementedError

    def timed(self, seed: int) -> Iterator[Query]:
        return self.queries(seed, self.timed_names)

    def warmup(self, seed: int) -> Iterator[Query]:
        return self.queries(seed, self.warmup_names)


class RankStream(Workload):
    name = "rank-stream"
    timed_names = ("a", "b", "c", "d")
    warmup_names = ("e", "f", "g", "h")
    prebuilt = 4000
    traced = 2000

    def queries(self, seed, names):
        rng = random.Random(f"{self.name}/{seed}/{names}")
        field = FieldTower.rational(names)
        seen = set()
        while True:
            dim = rng.randint(2, 8)
            coeffs = [(_mono(rng, 4, 3),) for _ in range(dim)]
            binomial = rng.random() < 0.3
            if binomial:
                slot = rng.randrange(dim)
                other = _mono(rng, 4, 3)
                if other == coeffs[slot][0]:
                    continue
                coeffs[slot] = (coeffs[slot][0], other)
            # hashes of integer tuples are stable across processes; keeping
            # only them stops the set from growing peak_rss_mb by much
            key = hash(tuple(sorted(coeffs)))
            if key in seen:
                continue
            seen.add(key)
            yield Query(_build_form(field, coeffs), tuple(coeffs))
            if not binomial:
                continue
            # the same form permuted and rescaled by squares is isometric
            while True:
                order = list(range(dim))
                rng.shuffle(order)
                squares = [_double(_mono(rng, 4, 1)) for _ in range(dim)]
                twin = [tuple(_add(t, sq) for t in coeffs[i])
                        for i, sq in zip(order, squares)]
                key = hash(tuple(sorted(twin)))
                if key not in seen:
                    break
            seen.add(key)
            yield Query(_build_form(field, twin), tuple(twin), twin=True)

    def execute(self, query):
        return quasiform.total_index(query.payload)

    def check(self, query, answer, previous):
        if query.twin:
            if answer != previous:
                return [f"twin forms disagree: {previous!r} then {answer!r}"]
            return []
        if all(len(c) == 1 for c in query.coeffs):
            expected = oracles.total_index(_monomials(query.coeffs))
            if answer != expected:
                return [f"total index: expected {expected}, got {answer!r}"]
        elif not isinstance(answer, int) or \
                not 0 <= answer < len(query.coeffs):
            return [f"total index {answer!r} out of range"]
        return []


class InvariantsTower(Workload):
    name = "invariants-tower"
    timed_names = ("a", "b", "c")
    warmup_names = ("x", "y", "z")
    prebuilt = 600
    # a fixed repeating mix, so every run has the same one; the median
    # falls inside the dimension 3 class and p90 inside the dimension 4
    # class rather than on the gap between them.  Dimension 5 costs about
    # six times dimension 4 (NOTES.md)
    dims = (3, 3, 4)
    block = len(dims)
    traced = 120

    def queries(self, seed, names):
        rng = random.Random(f"{self.name}/{seed}/{names}")
        for dim in itertools.cycle(self.dims):
            classes = rng.sample(range(8), dim)
            coeffs = [_with_parity(rng, m, 3) for m in classes]
            text = _form_text(names, {"q": coeffs}, "invariants q")
            yield Query(text, tuple((c,) for c in coeffs))

    def execute(self, query):
        return cli.run(dsl.parse(query.payload))["results"][0]

    def check(self, query, answer, previous):
        return oracles.check_invariants(_monomials(query.coeffs), answer)


class RulingVerify(Workload):
    name = "ruling-verify"
    timed_names = ("a", "b", "c", "d")
    warmup_names = ("w", "x", "y", "z")
    prebuilt = 800
    # per block of five: four scaled 2-fold quasi-Pfister forms (i1 = 2,
    # ruled) and one 3-dim form (i1 = 1, not ruled); 6-dim neighbours of
    # 3-fold forms cost 0.4-5.4 s each and wait in NOTES.md
    kinds = ("pfister2", "pfister2", "pfister2", "pfister2", "dim3")
    block = len(kinds)
    traced = 150

    @staticmethod
    def _independent_slots(rng, count):
        while True:
            slots = [_mono(rng, 4, 2) for _ in range(count)]
            if oracles.gf2_rank(oracles.parity(s) for s in slots) == count:
                return slots

    def _coeffs(self, rng, kind):
        if kind == "dim3":
            classes = rng.sample(range(1, 16), 2) + [0]
            rng.shuffle(classes)
            return [_with_parity(rng, m, 4) for m in classes]
        slots = self._independent_slots(rng, 2)
        products = [(0,) * 4]
        for s in slots:
            products += [_add(p, s) for p in products]
        scale = _mono(rng, 4, 1)
        return [_add(p, scale) for p in products]

    def queries(self, seed, names):
        rng = random.Random(f"{self.name}/{seed}/{names}")
        while True:
            block = list(self.kinds)
            rng.shuffle(block)
            for kind in block:
                coeffs = self._coeffs(rng, kind)
                text = _form_text(names, {"q": coeffs}, "ruling q")
                yield Query(text, tuple((c,) for c in coeffs))

    def execute(self, query):
        script = dsl.parse(query.payload)
        return cli.run(script, verify_certificates=True)["results"][0]

    def check(self, query, answer, previous):
        return oracles.check_ruling(_monomials(query.coeffs), answer)


class ComparePool(Workload):
    name = "compare-pool"
    timed_names = ("a", "b", "c")
    warmup_names = ("x", "y", "z")
    prebuilt = 792
    block = 66                      # one pool: every pair of 12 forms
    traced = 3 * block

    @staticmethod
    def _rescaled(rng, coeffs):
        """The same classes times squares: an isometric form."""
        while True:
            out = [_add(c, _double(_mono(rng, 3, 1))) for c in coeffs]
            if out != coeffs:
                return out

    @staticmethod
    def _translated(rng, coeffs):
        """Times a non-square monomial: a similar form."""
        while True:
            m = _mono(rng, 3, 1)
            if any(m):
                return [_add(c, m) for c in coeffs]

    def pool(self, rng) -> List[List[Exponents]]:
        """Twelve anisotropic monomial forms of dim 3-6 whose pairs take
        every verdict both ways.

        Each class is given by its least monomial (exponents 0 and 1);
        only the rescaled and translated copies carry higher exponents.
        Five 4-dim forms give ten 4-dim pairs, the costliest kind, so p90
        falls among them rather than on the edge of a smaller group.  Both
        keep p50 and p90 from moving with the seed (NOTES.md)."""
        def form(classes):
            return [tuple(m >> i & 1 for i in range(3)) for m in classes]

        t = rng.randrange(8)
        u, v = rng.sample(range(1, 8), 2)
        plane = [t, t ^ u, t ^ v, t ^ u ^ v]        # an affine plane
        rng.shuffle(plane)
        while True:                                 # not an affine plane
            skew = rng.sample(range(8), 4)
            if oracles.gf2_rank(m ^ skew[0] for m in skew) == 3:
                break
        pfister = form(plane)
        n3a = form(plane[:3])
        d4 = form(skew)
        m5 = form(rng.sample(range(8), 5))
        forms = [
            pfister,                                # 2-fold, up to a factor
            self._rescaled(rng, pfister),           # isometric to it
            n3a,                                    # its neighbours
            form(plane[1:]),
            self._translated(rng, n3a),             # similar to n3a
            m5,                                     # neighbours of 3-folds
            self._rescaled(rng, m5),
            form(rng.sample(range(8), 6)),
            form(rng.sample(range(8), 6)),
            d4,                                     # not a neighbour
            self._translated(rng, d4),
            form(rng.sample(range(8), 4)),          # plane or not, at random
        ]
        rng.shuffle(forms)
        return forms

    def queries(self, seed, names):
        rng = random.Random(f"{self.name}/{seed}/{names}")
        while True:
            forms = self.pool(rng)
            pairs = list(itertools.combinations(range(len(forms)), 2))
            rng.shuffle(pairs)
            for i, j in pairs:
                p, q = forms[i], forms[j]
                text = _form_text(names, {"p": p, "q": q}, "compare p q")
                yield Query(text, tuple((c,) for c in p + q), split=len(p))

    def execute(self, query):
        return cli.run(dsl.parse(query.payload))["results"][0]

    def check(self, query, answer, previous):
        mono = _monomials(query.coeffs)
        return oracles.check_compare(mono[:query.split], mono[query.split:],
                                     answer)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (RankStream(), InvariantsTower(), RulingVerify(),
                        ComparePool())
}
