"""One-sided numeric certificates for polynomial linear systems.

Evaluating a polynomial matrix at a point of GF(2^15)^n can only lower
ranks: every minor that vanishes identically vanishes at the point.  One
elimination of the augmented matrix [A|b] at a point gives rank A(p), its
pivots among the columns of A, and rank [A|b](p) together, and three
observations are conclusive:

* rank A(p) = #rows forces rank A = #rows symbolically, and the rank of
  [A|b] is squeezed to the same value, so A x = b is solvable over the
  rational function field.
* rank [A|b](p) = #cols + 1 forces rank [A|b] = #cols + 1 symbolically,
  above rank A <= #cols, so A x = b is unsolvable.
* rank A(p) = #cols forces rank A = #cols, so the kernel of A is zero;
  this is the verdict asked for when there is no right-hand side.

A point witnessing none of these proves nothing, and the caller must fall
back to exact elimination.  Points come from a fixed seed, drawn once per
system build (`Witness`) when a verdict first needs them, so outcomes are
reproducible; every entry of the system is evaluated once at each.

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


def _rank(rows: List[List[int]], split: int, exp: array, log: array
          ) -> Tuple[int, int]:
    """(rank of the first `split` columns, rank of all columns) of `rows`,
    from one elimination: pivots are taken column by column, so those among
    the first `split` columns count the rank of that block."""
    rank = left = 0
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
        left += col < split
    return left, rank


class Witness:
    """The witness points of one system of column blocks, and every block
    entry evaluated there.

    `blocks[j]` maps a row key to the `width` polynomial entries of column
    block j; a key missing from a block is a zero row there.  One
    generator draws the points over every variable of the blocks, in name
    order, so all the system's verdicts share them.  Point k is drawn when
    a verdict first needs it, and every entry of every block is evaluated
    there at once: each entry once per point.
    """

    __slots__ = ("blocks", "width", "_offsets", "_rng", "_values")

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
        # per point drawn, per block: row key -> the entry values there
        self._values: List[List[Dict[Hashable, List[int]]]] = []

    def at(self, k: int) -> List[Dict[Hashable, List[int]]]:
        """Every block's entries at point k, keyed by row."""
        exp = _tables()[0]
        while len(self._values) <= k:
            # the log of a uniform point of GF(2^15)*, per variable
            logs = [(sh, self._rng.randrange(_ORDER)) for sh in self._offsets]
            self._values.append([
                {key: [_eval_poly(p, logs, exp) for p in entries]
                 for key, entries in block.items()}
                for block in self.blocks])
        return self._values[k]


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
    exp, log = _tables()
    pad = [0] * witness.width
    for k in range(_TRIALS):
        at = witness.at(k)
        selected = [at[j] for j in cols]
        matrix = []
        for key in rows:
            row: List[int] = []
            for values in selected:
                row.extend(values.get(key, pad))
            if target is not None:
                row.append(at[target].get(key, pad)[0])
            matrix.append(row)
        # rank [A|b] = ncols + 1 already forces rank A = ncols < nrows
        rank_a, rank_ab = _rank(matrix, ncols, exp, log)
        if target is None:
            if rank_a == ncols:
                return True
        elif rank_a == nrows:
            return True
        elif rank_ab == ncols + 1:
            return False
    return None
