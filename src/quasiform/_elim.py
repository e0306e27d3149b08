"""Fraction-free linear algebra over GF(2) polynomial matrices.

Forward elimination is one-step Bareiss: a pivot step replaces row_i by
(piv*row_i + row_i[col]*row_piv) / prev, where prev is the pivot of the
previous step.  By Sylvester's identity the division is exact and every
entry stays a minor of the input matrix, which bounds growth without any
gcd computation.

Rows whose entry in the pivot column vanishes are not touched; a row
skipped since step l differs from its up-to-date value by the factor
prev/pivot_l (the intermediate factors telescope), so it is brought
current with one multiplication and one exact division when next needed.
Rows left stale at the end are valid equations up to a nonzero scalar,
which solving and kernel extraction never notice.

Pivoting is full: each step picks the entry with fewest terms over all
remaining rows and columns (ties by lowest column then row index), which
keeps the surviving minors small and is deterministic.

Every entry point takes a system as its rows and `ncols`, the number of
unknowns: `solve` and `solvable` take the rows [A | b] with A `ncols`
wide, the layout `_gfnum.numeric_verdict` reads, and `nullspace` the rows
of A alone.  The rows may be empty: every unknown is then free and set to
zero, so `solve` returns `ncols` zeros and `nullspace` the identity basis.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .gf2poly import Poly, RatFn, poly_divmod_exact, strip_monomial_content


class _Eliminator:
    def __init__(self, rows: List[List[Poly]]):
        self.rows = [strip_monomial_content(list(r)) for r in rows]
        self.used = [False] * len(rows)
        # pivot value current as of the step each row last participated in;
        # None marks "step zero" where the divisor is 1
        self.last: List[Optional[Poly]] = [None] * len(rows)
        self.prev: Optional[Poly] = None

    def _current(self, i: int) -> List[Poly]:
        """Row i rescaled to the present step: row * prev / last."""
        r = self.rows[i]
        if self.last[i] is self.prev:
            return r
        out = r
        if self.prev is not None and not self.prev.is_one:
            out = [e * self.prev for e in out]
        li = self.last[i]
        if li is not None and not li.is_one:
            out = [e if e.is_zero else poly_divmod_exact(e, li) for e in out]
        self.rows[i] = out
        self.last[i] = self.prev
        return out

    def forward(self, ncols: int) -> List[Tuple[int, int]]:
        pivots: List[Tuple[int, int]] = []
        free_cols = list(range(ncols))
        while free_cols:
            # full pivoting by fewest terms keeps the minors small
            best = None
            for i, r in enumerate(self.rows):
                if self.used[i]:
                    continue
                for col in free_cols:
                    if r[col].is_zero:
                        continue
                    key = (len(r[col].packed), col, i)
                    if best is None or key < best:
                        best = key
            if best is None:
                break
            _, col, pi = best
            free_cols.remove(col)
            prow = self._current(pi)
            self.used[pi] = True
            pivots.append((pi, col))
            pv = prow[col]
            for i, r in enumerate(self.rows):
                if self.used[i] or r[col].is_zero:
                    continue
                r = self._current(i)
                f = r[col]
                new = [pv * r[j] + f * prow[j] for j in range(len(r))]
                if self.prev is not None and not self.prev.is_one:
                    new = [e if e.is_zero else poly_divmod_exact(e, self.prev)
                           for e in new]
                self.rows[i] = new
                self.last[i] = pv
            self.prev = pv
        for i in range(len(self.rows)):
            self.rows[i] = strip_monomial_content(self.rows[i])
        return pivots


def _back_substitute(rows: List[List[Poly]], pivots: List[Tuple[int, int]],
                     ncols: int, rhs_col: Optional[int],
                     free_values: dict) -> List[RatFn]:
    x: List[Optional[RatFn]] = [None] * ncols
    pivot_cols = {c for _, c in pivots}
    for col in range(ncols):
        if col not in pivot_cols:
            x[col] = free_values.get(col, RatFn.zero())
    for pi, col in reversed(pivots):
        r = rows[pi]
        acc = RatFn.from_poly(r[rhs_col]) if rhs_col is not None else RatFn.zero()
        for j in range(ncols):
            if j == col or r[j].is_zero:
                continue
            xj = x[j]
            assert xj is not None, "back-substitution order violated"
            if not xj.is_zero:
                acc = acc + RatFn.from_poly(r[j]) * xj
        x[col] = acc / RatFn.from_poly(r[col])
    return [v if v is not None else RatFn.zero() for v in x]


def _consistent_forward(rows: List[List[Poly]], ncols: int
                        ) -> Optional[Tuple[List[List[Poly]],
                                            List[Tuple[int, int]]]]:
    """Forward pass on the rows [A | b]: the reduced rows and the pivots,
    or None when a row without pivot keeps a nonzero right-hand side."""
    e = _Eliminator(rows)
    pivots = e.forward(ncols)
    pivot_rows = {pi for pi, _ in pivots}
    if any(not r[ncols].is_zero
           for i, r in enumerate(e.rows) if i not in pivot_rows):
        return None
    return e.rows, pivots


def solve(rows: List[List[Poly]], ncols: int) -> Optional[List[RatFn]]:
    """One solution of A x = b from the rows [A | b], A having `ncols`
    columns, over the fraction field, or None.

    Free unknowns are set to zero, so the returned solution is deterministic.
    """
    reduced = _consistent_forward(rows, ncols)
    if reduced is None:
        return None
    return _back_substitute(*reduced, ncols, ncols, {})


def solvable(rows: List[List[Poly]], ncols: int) -> bool:
    """Whether A x = b has a solution, from the rows [A | b] as for solve,
    skipping back-substitution.

    The forward pass settles consistency, so this avoids the rational
    function arithmetic that producing an explicit solution would cost.
    """
    return _consistent_forward(rows, ncols) is not None


def nullspace(rows: List[List[Poly]], ncols: int) -> List[List[RatFn]]:
    """Basis of the right kernel of the rows of A, `ncols` wide, over the
    fraction field."""
    e = _Eliminator(rows)
    pivots = e.forward(ncols)
    pivot_cols = {c for _, c in pivots}
    return [_back_substitute(e.rows, pivots, ncols, None, {f: RatFn.one()})
            for f in range(ncols) if f not in pivot_cols]
