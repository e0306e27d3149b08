"""One-sided numeric certificates for polynomial linear systems.

Evaluating a polynomial matrix at a point of GF(2^15)^n can only lower
ranks: every minor that vanishes identically vanishes at the point.  Two
rank observations at a single point are therefore conclusive:

* rank A(p) = #rows forces rank A = #rows symbolically, and the rank of
  the augmented matrix [A|b] is squeezed to the same value, so A x = b is
  solvable over the rational function field.
* rank A(p) = #cols together with rank [A|b](p) = #cols + 1 forces
  rank [A|b] > rank A symbolically, so A x = b is unsolvable.
* rank A(p) = #cols alone forces rank A = #cols, so the kernel of A is
  zero; this is the verdict asked for when there is no right-hand side.

A point witnessing none of these proves nothing, and the caller must fall
back to exact elimination.  Points come from a fixed seed, drawn once per
system build (`Witness`), so outcomes are reproducible.

Field arithmetic goes through log and antilog tables of GF(2^15)* with
respect to x, modulo x^15 + x + 1: a product is EXP[LOG[a] + LOG[b]] and a
monomial at a point is EXP[sum of e * LOG[x_v] mod ORDER], exact because
witness points have no zero coordinate.  The tables are `array('H')` (about
200 KB) and are built on first use, so importing the package stays cheap.
The build doubles as the self-check: it walks the powers of x and requires
x^ORDER = 1 while x^(ORDER/p) != 1 for each prime p of ORDER = 7*31*151.
That gives x multiplicative order 2^15 - 1, which no reducible modulus of
degree 15 allows (its ring has fewer units), so the modulus is irreducible,
x is primitive and LOG is a bijection onto 0..ORDER-1.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from typing import (Collection, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .gf2poly import MAX_EXPONENT, Poly, slot_shifts

_DEG = 15
_MODMASK = (1 << _DEG) | 0b11  # x^15 + x + 1
_ORDER = (1 << _DEG) - 1
_ORDER_PRIMES = (7, 31, 151)
# witness points tried per system before exact elimination decides
_TRIALS = 4


@lru_cache(maxsize=None)
def _tables() -> Tuple[array, array]:
    """(EXP, LOG) with EXP[i] = x^i for 0 <= i < 2*ORDER, so that a sum of
    two logs indexes EXP without reduction, and LOG[x^i] = i; LOG[0] is
    unused."""
    exp = array("H", bytes(4 * _ORDER))
    log = array("H", bytes(2 << _DEG))
    a = 1
    for i in range(_ORDER):
        exp[i] = a
        log[a] = i
        a <<= 1
        if a >> _DEG:
            a ^= _MODMASK
    if a != 1 or any(exp[_ORDER // p] == 1 for p in _ORDER_PRIMES):
        raise AssertionError("field modulus is not primitive")
    exp[_ORDER:] = exp[:_ORDER]
    return exp, log


def _eval_poly(p: Poly, logs: List[Tuple[int, int]], exp: array) -> int:
    """p at the point whose coordinates have the logarithms `logs`, given
    as (slot offset, logarithm) for every variable that may occur."""
    acc = 0
    for t in p.packed:
        s = 0
        for sh, lg in logs:
            s += (t >> sh & MAX_EXPONENT) * lg
        acc ^= exp[s % _ORDER]
    return acc


def _rank(rows: List[List[int]], exp: array, log: array) -> int:
    rank = 0
    ncols = len(rows[0]) if rows else 0
    # rows are replaced, never changed in place, so the caller's stay intact
    rows = list(rows)
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        # scale the pivot row to a leading 1: multiply by x^(ORDER - LOG)
        inv = _ORDER - log[rows[rank][col]]
        prow = [exp[log[e] + inv] if e else 0 for e in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            f = rows[i][col]
            if i != rank and f:
                lf = log[f]
                rows[i] = [e ^ exp[lf + log[pe]] if pe else e
                           for e, pe in zip(rows[i], prow)]
        rank += 1
    return rank


class Witness:
    """The witness points of one system of column blocks, and the block
    entries evaluated there.

    `blocks[j]` maps a row key to the `width` polynomial entries of column
    block j; a key missing from a block is a zero row there.  One
    generator draws the points over every variable of the blocks, in name
    order, so all the system's verdicts share them.  Point k is drawn when
    a verdict first needs it, and an entry of block j is evaluated there
    when a verdict first reads it at point k: each entry at most once per
    point, and of a block read only as right-hand side only the first.
    """

    __slots__ = ("blocks", "width", "_offsets", "_rng", "_points", "_values",
                 "_evaluated")

    def __init__(self, blocks: Sequence[Dict[Hashable, List[Poly]]],
                 width: int):
        used = 0
        for block in blocks:
            for entries in block.values():
                for p in entries:
                    used |= p.packed_or()
        shifts = slot_shifts(used)
        self.blocks = blocks
        self.width = width
        self._offsets = [shifts[n] for n in sorted(shifts)]
        self._rng = random.Random(0x51D2)
        self._points: List[List[Tuple[int, int]]] = []
        # per point, per block: row key -> the entry values evaluated so
        # far, or None, and how many entries per key that is
        self._values: List[List[Optional[Dict[Hashable, List[int]]]]] = []
        self._evaluated: List[List[int]] = []

    def at(self, k: int, j: int, width: Optional[int] = None
           ) -> Dict[Hashable, List[int]]:
        """Block j's first `width` entries (all by default) at point k,
        keyed by row."""
        if width is None:
            width = self.width
        while len(self._points) <= k:
            # the log of a uniform point of GF(2^15)*, per variable
            self._points.append([(sh, self._rng.randrange(_ORDER))
                                 for sh in self._offsets])
            self._values.append([None] * len(self.blocks))
            self._evaluated.append([0] * len(self.blocks))
        values = self._values[k][j]
        done = self._evaluated[k][j]
        if done < width:
            logs, exp = self._points[k], _tables()[0]
            if values is None:
                values = self._values[k][j] = {
                    key: [_eval_poly(p, logs, exp) for p in entries[:width]]
                    for key, entries in self.blocks[j].items()}
            else:
                for key, entries in self.blocks[j].items():
                    values[key].extend(
                        _eval_poly(p, logs, exp) for p in entries[done:width])
            self._evaluated[k][j] = width
        return values


def numeric_verdict(witness: Witness, rows: Collection[Hashable],
                    cols: Sequence[int],
                    target: Optional[int] = None) -> Optional[bool]:
    """Solvability of the system with the row keys `rows`, in the unknowns
    of the blocks `cols`, with the first entries of block `target` as
    right-hand side, when a witness point settles it; with no target,
    whether the kernel is zero.

    True and False are proofs; None means no trial point was conclusive
    and exact elimination must decide.  A zero kernel is only ever proved,
    so without target the verdict is True or None.
    """
    nrows = len(rows)
    ncols = len(cols) * witness.width
    if not nrows or (target is None and nrows < ncols):
        return None
    rows = list(rows)
    exp, log = _tables()
    pad = [0] * witness.width
    for k in range(_TRIALS):
        at = [witness.at(k, j) for j in cols]
        plain = []
        for key in rows:
            row: List[int] = []
            for values in at:
                row.extend(values.get(key, pad))
            plain.append(row)
        r = _rank(plain, exp, log)
        if target is None:
            if r == ncols:
                return True
        elif r == nrows:
            return True
        elif r == ncols and ncols < nrows:
            rhs = witness.at(k, target, 1)
            augmented = [row + [rhs[key][0] if key in rhs else 0]
                         for row, key in zip(plain, rows)]
            if _rank(augmented, exp, log) == ncols + 1:
                return False
    return None
