"""Semilinear linear algebra over the subfield of squares of a field tower.

The central problem: given g_1,...,g_k and t in a tower K, find c_1,...,c_k
in K with c_1^2 g_1 + ... + c_k^2 g_k = t.  Such relations cut out the
isotropic subspaces of quasilinear forms, so rank, kernel and membership all
reduce to this one solver.

Reduction to commutative linear algebra over F = GF(2)(base variables):

1. write each unknown as c_i = sum over generator masks m of x_{i,m} y^m with
   x_{i,m} in F; then c_i^2 = sum x_{i,m}^2 Theta_m with Theta_m = (y^m)^2;
2. the equation splits into one F-equation per generator mask mu, with
   coefficients (Theta_m g_i)_mu;
3. clear denominators per F-equation by one common polynomial, then split it
   by exponent parity: F is a free module over F^2 with basis the square-free
   variable monomials, so coefficients match class by class;
4. inside one parity class every quantity is a square; taking square roots
   (Frobenius is injective) leaves an ordinary linear system over F, solved
   fraction-free.

Each generator owns a block of columns in that system (`_SquareBlocks`).  The
blocks are built once per query, so the greedy rank loop (`_independent`)
only selects columns.  Every decision on them first reads the blocks'
values at one witness point (`_gfnum`); the polynomial system is assembled
only for exact elimination (`_elim`): a decision the point does not settle,
and every root vector or kernel vector.  Both take the rows [A | b] as one
rule lays them out (`_SquareBlocks._layout`), with the number of unknowns.

Every relation the public solvers return is re-verified exactly in the
tower before being handed out.  The exact solve without a verdict
(`_SquareBlocks.solve`) checks nothing itself: its callers prove what it
returns, `greedy_independent` by `SquareRelation`, and
`birational.construct_ruling` by handing them to a `RulingCertificate`,
whose `verify` is their proof.  The checks run on roots cleared of
denominators (`clear_denominators`, `square_combination_vanishes`):
scaling the roots by one nonzero base scalar D scales sum c_i^2 g_i by
D^2, so the cleared sum vanishes exactly when the original one does, and
squaring and multiplying polynomial coefficients takes no gcd.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import _elim, _gfnum
from .errors import ZeroGenerator
from .fieldtower import FieldTower, TowerElem, _elem
from .gf2poly import (Poly, RatFn, common_denominator, numerator_over,
                      parity_split)
# not called here: qbench/tests/test_bench_tracer.py checks with this name
# that the tracer also rebinds functions imported into other modules
from .gf2poly import poly_lcm  # noqa: F401


def clear_denominators(elems: Sequence[TowerElem]) -> List[TowerElem]:
    """The elements times one common base scalar D, the lcm of their
    denominators, so that every coefficient is a polynomial.

    Each coefficient is one exact division of D by its own denominator;
    no gcd is taken.  D is nonzero, so identities are decided exactly on
    the cleared elements: a linear one sum f_i x_i = 0 is scaled by D, and
    a square-coefficient relation sum x_i^2 g_i = 0 by D^2."""
    den = common_denominator(c for e in elems for c in e.coeffs.values())
    if den.is_one:
        return list(elems)
    return [_elem(e.tower, {m: RatFn.from_poly(numerator_over(c, den))
                            for m, c in e.coeffs.items()})
            for e in elems]


def square_combination(roots: Sequence[TowerElem],
                       gens: Sequence[TowerElem]) -> TowerElem:
    """sum_i roots_i^2 * gens_i, in the tower of the (nonempty) gens."""
    acc = gens[0].tower.zero()
    for c, g in zip(roots, gens):
        acc = acc + c.square() * g
    return acc


def square_combination_vanishes(roots: Sequence[TowerElem],
                                *gen_rows: Sequence[TowerElem]) -> bool:
    """Whether sum_i roots_i^2 * row_i = 0 for every (nonempty) row of
    generators, decided on the roots cleared of denominators once: that
    scales each sum by D^2 for one nonzero D."""
    cleared = clear_denominators(roots)
    return all(square_combination(cleared, row).is_zero for row in gen_rows)


_RowKey = Tuple[int, int, Tuple[str, ...]]
_ZERO = Poly.zero()


class _SquareBlocks:
    """The square system of a fixed list of columns, built once and then
    restricted to any choice of unknowns and right-hand side.

    Column j holds one tower element per equation e; the system is
    sum_j c_j^2 * columns[j][e] = target[e].  Each (equation, mu)
    component is scaled by one common denominator, taken over every column
    and mask, so that any subset of the columns, with any other column as
    target, reads off the same rows.
    `blocks[j]` maps a row key (e, mu, parity class) to the nmasks entries
    of column j's unknowns x_{j,m}, the coefficient of x_{j,m}^2 being
    (Theta_m * columns[j][e])_mu; a target column contributes its m = 0
    entry.  Only keys with a nonzero entry are stored.  `rows` is the one
    rule for which keys a choice of unknowns and target has, and `_layout`
    the one rule for the rows [A | b] on them: from the polynomial blocks
    for exact elimination (`system`), and from their values at the witness
    point for a verdict (`verdict`).  Both hand the rows on whole, with
    len(cols) * nmasks unknowns.
    """

    __slots__ = ("tower", "nmasks", "blocks", "_point")

    def __init__(self, columns: Sequence[Sequence[TowerElem]]):
        tower = columns[0][0].tower
        nmasks = 1 << tower.depth
        blocks: List[Dict[_RowKey, List[Poly]]] = [{} for _ in columns]
        for e in range(len(columns[0])):
            # products[j][m] = Theta_m * columns[j][e] as mask -> RatFn
            products = [[tower._mul(tower._theta_mask(m), col[e].coeffs)
                         for m in range(nmasks)] for col in columns]
            by_mu: Dict[int, List[RatFn]] = {}
            for per_mask in products:
                for p in per_mask:
                    for mu, fn in p.items():
                        by_mu.setdefault(mu, []).append(fn)
            dens = {mu: common_denominator(fns) for mu, fns in by_mu.items()}
            for block, per_mask in zip(blocks, products):
                for m, p in enumerate(per_mask):
                    for mu, fn in p.items():
                        num = numerator_over(fn, dens[mu])
                        # split by exponent parity: inside one class every
                        # quantity is a square, so take square roots
                        for parity, root in parity_split(num).items():
                            key = (e, mu, tuple(sorted(parity)))
                            entries = block.get(key)
                            if entries is None:
                                entries = block[key] = [_ZERO] * nmasks
                            entries[m] = root
        self.tower = tower
        self.nmasks = nmasks
        self.blocks = blocks
        self._point: Optional[List[Dict[_RowKey, List[int]]]] = None

    def rows(self, cols: Sequence[int], target: Optional[int] = None
             ) -> Set[_RowKey]:
        """The row keys of the system in the unknowns of `cols` with the
        rhs of column `target`: every key of a selected block, and every
        key where the target's m = 0 entry is nonzero.  The other rows are
        zero in both."""
        blocks = self.blocks
        keys = set()
        for j in cols:
            keys.update(blocks[j])
        if target is not None:
            keys.update(k for k, v in blocks[target].items()
                        if not v[0].is_zero)
        return keys

    def _layout(self, blocks, zero, keys, cols, target):
        """The rows [A | b] on `keys`, read off the polynomial blocks or
        their values at the witness point (`zero` fills a missing entry):
        A in the unknowns of `cols`, column-major as _coeff_vectors reads a
        solution, then b, the m = 0 entry of column `target` if given."""
        pad = [zero] * self.nmasks
        rows = []
        for key in keys:
            row = []
            for j in cols:
                row.extend(blocks[j].get(key, pad))
            if target is not None:
                row.append(blocks[target].get(key, pad)[0])
            rows.append(row)
        return rows

    def system(self, keys: Set[_RowKey], cols: Sequence[int],
               target: Optional[int] = None) -> List[List[Poly]]:
        """The rows [A | b] (A alone without target) on `keys`, in key
        order, for exact elimination (`_elim`)."""
        return self._layout(self.blocks, _ZERO, sorted(keys), cols, target)

    def verdict(self, keys: Set[_RowKey], cols: Sequence[int],
                target: Optional[int] = None) -> Optional[bool]:
        """The witness verdict (`_gfnum.numeric_verdict`) on the system on
        `keys`, read at the witness point; the first verdict evaluates
        every block there.  No point settles a system without rows, nor a
        kernel test with fewer rows than unknowns (rank A(p) <= #rows), so
        those are left to exact elimination without drawing one."""
        ncols = len(cols) * self.nmasks
        if not keys or (target is None and len(keys) < ncols):
            return None
        if self._point is None:
            self._point = _gfnum.evaluate(self.blocks)
        return _gfnum.numeric_verdict(
            self._layout(self._point, 0, keys, cols, target), ncols)

    def solvable(self, cols: Sequence[int], target: int) -> bool:
        """Decision only: the witness when it settles the system, exact
        elimination on the built system otherwise."""
        keys = self.rows(cols, target)
        verdict = self.verdict(keys, cols, target)
        if verdict is not None:
            return verdict
        return _elim.solvable(self.system(keys, cols, target),
                              len(cols) * self.nmasks)

    def solve(self, cols: Sequence[int],
              target: int) -> Optional[List[TowerElem]]:
        """Roots c_j for the columns in `cols` by exact elimination alone,
        or None when unsolvable; no verdict is taken.  For a caller that
        already knows the system solvable: a dependent generator of the
        greedy rank, a relation that a theorem says exists.  The roots are
        not checked here; the caller proves the relation, or hands it to
        a step that does."""
        sol = _elim.solve(self.system(self.rows(cols, target), cols, target),
                          len(cols) * self.nmasks)
        if sol is None:
            return None
        return _coeff_vectors(sol, len(cols), self.nmasks, self.tower)

    def roots(self, cols: Sequence[int],
              target: int) -> Optional[List[TowerElem]]:
        """Roots c_j for the columns in `cols`, or None when unsolvable.
        A witness proof of unsolvability skips the exact solve; a solution
        always comes from exact elimination (`solve`)."""
        if self.verdict(self.rows(cols, target), cols, target) is False:
            return None
        return self.solve(cols, target)


def _coeff_vectors(
    solution: Sequence[RatFn], ngens: int, nmasks: int, tower: FieldTower
) -> List[TowerElem]:
    out = []
    for i in range(ngens):
        coeffs = {}
        for m in range(nmasks):
            v = solution[i * nmasks + m]
            if not v.is_zero:
                coeffs[m] = v
        out.append(TowerElem(tower, coeffs))
    return out


def solve_square_system_multi(
    gen_rows: Sequence[Sequence[TowerElem]],
    targets: Sequence[TowerElem],
) -> Optional[List[TowerElem]]:
    """Shared roots c_i with sum_i c_i^2 * gen_rows[e][i] = targets[e] for
    every equation e, or None when the system has no solution.  A numeric
    proof of unsolvability skips exact elimination; roots always come from
    it, and are checked against every equation before they are returned.
    A caller that proves its relations itself solves on `_SquareBlocks`
    instead (`birational.construct_ruling`)."""
    if not gen_rows:
        return []
    if not gen_rows[0]:
        return [] if all(t.is_zero for t in targets) else None
    ngens = len(gen_rows[0])
    blocks = _SquareBlocks(list(zip(*gen_rows)) + [targets])
    roots = blocks.roots(range(ngens), ngens)
    if roots is None:
        return None
    # char 2: sum c_i^2 g_i = t exactly when sum c_i^2 g_i + 1^2 t = 0
    if not square_combination_vanishes(
            roots + [roots[0].tower.one()],
            *(list(row) + [t] for row, t in zip(gen_rows, targets))):
        raise AssertionError("semilinear solver produced an invalid relation")
    return roots


def solve_square_system(
    gens: Sequence[TowerElem], target: TowerElem
) -> Optional[List[TowerElem]]:
    """Roots c_i with sum c_i^2 * g_i = target, or None when impossible."""
    return solve_square_system_multi([list(gens)], [target])


def square_system_solvable(
    gens: Sequence[TowerElem], target: TowerElem
) -> bool:
    """Whether sum c_i^2 * g_i = target has a solution, without finding one.

    Skipping the explicit solution keeps rank computations in polynomial
    arithmetic end to end, which matters over towers with many variables.
    A numeric witness point settles most systems outright; exact
    elimination remains the authority whenever no witness is found.
    """
    if not gens:
        return target.is_zero
    return square_span_contains(gens, [target])


def square_span_contains(gens: Sequence[TowerElem],
                         elems: Sequence[TowerElem]) -> bool:
    """Whether every element lies in the span of the (nonempty) gens over
    the squares.  One square system holds gens and elems as columns, so
    its witness point serves every decision: each element is one target
    against the columns of gens."""
    blocks = _SquareBlocks([(g,) for g in gens] + [(e,) for e in elems])
    cols = range(len(gens))
    return all(blocks.solvable(cols, len(gens) + k) for k in range(len(elems)))


def square_nullspace_multi(
    gen_rows: Sequence[Sequence[TowerElem]],
) -> Optional[List[TowerElem]]:
    """One nonzero vector of shared roots annihilating every equation,
    sum_i c_i^2 * gen_rows[e][i] = 0 for each e, or None when the kernel
    is zero.  A numeric proof of a zero kernel skips exact elimination;
    the vector comes from it (`_elim.nullspace`) and is checked against
    every equation before it is returned.  With no equation there are no
    unknowns to count, so the kernel is undefined: ValueError."""
    if not gen_rows:
        raise ValueError("nullspace query needs at least one equation")
    if not gen_rows[0]:
        return None
    ngens = len(gen_rows[0])
    blocks = _SquareBlocks(list(zip(*gen_rows)))
    keys = blocks.rows(range(ngens))
    if blocks.verdict(keys, range(ngens)):
        return None
    vec = _elim.nullspace(blocks.system(keys, range(ngens)),
                          ngens * blocks.nmasks)
    if vec is None:
        return None
    roots = _coeff_vectors(vec, ngens, blocks.nmasks, blocks.tower)
    if not square_combination_vanishes(roots, *gen_rows):
        raise AssertionError("nullspace vector fails to annihilate")
    return roots


def square_nullspace(gens: Sequence[TowerElem]) -> Optional[List[TowerElem]]:
    """One nonzero root vector (c_1,...,c_k) with sum c_i^2 g_i = 0, or
    None: square_nullspace_multi on one equation."""
    return square_nullspace_multi([list(gens)])


def tower_square_root(x: TowerElem) -> Optional[TowerElem]:
    """Square root of x inside its own tower, if x is a square there."""
    if x.is_zero:
        return x
    roots = solve_square_system([x.tower.one()], x)
    return roots[0] if roots is not None else None


def tower_linear_solve(
    columns: Sequence[Sequence[TowerElem]], rhs: Sequence[TowerElem]
) -> Optional[List[TowerElem]]:
    """Solve sum f_i * column_i = rhs for f_i in the tower (ordinary
    K-linearity, no squares); columns are vectors of equal length."""
    if not columns:
        return [] if all(r.is_zero for r in rhs) else None
    tower = columns[0][0].tower
    s = tower.depth
    nmasks = 1 << s
    height = len(rhs)
    # unknown (i, m): f_i = sum_m x_{i,m} y^m ; row (component, mu)
    expanded: List[List[Dict[int, RatFn]]] = []
    for col in columns:
        if len(col) != height:
            raise ValueError("column height mismatch")
        per_mask = []
        for m in range(nmasks):
            ym = {m: RatFn.one()}
            per_mask.append([tower._mul(ym, v.coeffs) for v in col])
        expanded.append(per_mask)

    rows: List[List[Poly]] = []
    for comp in range(height):
        for mu in range(nmasks):
            fns: List[RatFn] = []
            for i in range(len(columns)):
                for m in range(nmasks):
                    fn = expanded[i][m][comp].get(mu)
                    fns.append(fn if fn is not None else RatFn.zero())
            rf = rhs[comp].coeffs.get(mu)
            fns.append(rf if rf is not None else RatFn.zero())
            if all(f.is_zero for f in fns):
                continue
            den = common_denominator(fns)
            rows.append([numerator_over(f, den) for f in fns])
    sol = _elim.solve(rows, len(columns) * nmasks)
    if sol is None:
        return None
    return _coeff_vectors(sol, len(columns), nmasks, tower)


class SquareRelation:
    """Certificate that target = sum_i roots_i^2 * generators_i: the target
    lies in the span of the generators over the squares.  The constructor
    raises AssertionError when the relation does not hold."""

    __slots__ = ("target", "generators", "roots")

    def __init__(self, target: TowerElem, generators: List[TowerElem],
                 roots: List[TowerElem]):
        self.target = target
        self.generators = list(generators)
        self.roots = list(roots)
        if not self.verify():
            raise AssertionError("square relation fails to verify")

    def verify(self) -> bool:
        if len(self.roots) != len(self.generators):
            return False
        if not self.generators:
            return self.target.is_zero
        tower = self.target.tower
        if any(x.tower != tower for x in self.roots + self.generators):
            return False
        # char 2: sum c_i^2 g_i = t exactly when sum c_i^2 g_i + 1^2 t = 0
        return square_combination_vanishes(self.roots + [tower.one()],
                                           self.generators + [self.target])

    def __repr__(self) -> str:
        return (f"SquareRelation({self.target} = "
                + " + ".join(f"({c})^2*({g})"
                             for c, g in zip(self.roots, self.generators))
                + ")")


def k2_membership(
    target: TowerElem, gens: Sequence[TowerElem]
) -> Optional[SquareRelation]:
    """Certificate that target lies in the span of gens over squares."""
    if not gens:
        raise ValueError("membership query needs at least one generator")
    # SquareRelation checks the relation, so the roots skip the solver's
    # check of the same sum
    blocks = _SquareBlocks([(g,) for g in gens] + [(target,)])
    roots = blocks.roots(range(len(gens)), len(gens))
    if roots is None:
        return None
    return SquareRelation(target, list(gens), roots)


def _independent(gens: Sequence[TowerElem]
                 ) -> Tuple[Optional[_SquareBlocks], List[int]]:
    """The greedy rank: the square system with every generator as a column
    of one equation, and the indices of the earliest maximal sub-list
    independent over the squares.

    The system is built once; each step selects the columns of the
    independent generators found so far and tests the next generator's
    own block as right-hand side, decision only: the numeric witness when
    it is conclusive, exact elimination otherwise.  A single nonzero
    generator is independent and takes no step, so it gets no system
    (None)."""
    for j, g in enumerate(gens):
        if g.is_zero:
            raise ZeroGenerator(f"generator {j} is zero")
    if len(gens) == 1:
        return None, [0]
    blocks = _SquareBlocks([(g,) for g in gens])
    indep = [0]
    for j in range(1, len(gens)):
        if not blocks.solvable(indep, j):
            indep.append(j)
    return blocks, indep


def greedy_independent(
    gens: Sequence[TowerElem],
) -> Tuple[List[int], Dict[int, SquareRelation]]:
    """Earliest-first maximal independent subset over squares.

    Returns the independent indices and, for every dependent generator, the
    relation expressing it over the independent ones before it.  The
    indices come from the greedy rank (`_independent`), whose step has
    already decided each dependent generator solvable; it then takes one
    exact solve on the same system, with the columns its step selected,
    and no second verdict.  Every relation is re-verified by
    SquareRelation.  The relation over an independent set is unique, so it
    does not depend on how the system was scaled.
    """
    gens = list(gens)
    if not gens:
        return [], {}
    blocks, indep = _independent(gens)
    relations: Dict[int, SquareRelation] = {}
    for j in range(1, len(gens)):
        if j not in indep:
            before = [i for i in indep if i < j]
            relations[j] = SquareRelation(gens[j], [gens[i] for i in before],
                                          blocks.solve(before, j))
    return indep, relations


def k2_rank(gens: Sequence[TowerElem]) -> Tuple[int, List[TowerElem]]:
    """Rank of the generators over the subfield of squares, with the
    earliest maximal independent sub-list, read off the greedy rank
    (`_independent`).  No relation certificates are materialized;
    greedy_independent produces those when they are needed.
    """
    gens = list(gens)
    if not gens:
        raise ZeroGenerator("rank of an empty generator list")
    _, indep = _independent(gens)
    return len(indep), [gens[i] for i in indep]


def kernel_from_coefficients(coeffs: Sequence[TowerElem]) -> List[List[TowerElem]]:
    """Basis of {x : sum a_i x_i^2 = 0} for coefficients a_i in a tower.

    Each dependent coefficient a_j = sum c_i^2 a_i contributes the vector
    with 1 in slot j and c_i in the independent slots; these are independent
    and there are dim - rank of them, so they form a basis.
    """
    if not coeffs:
        return []
    tower = coeffs[0].tower
    indep, relations = greedy_independent(coeffs)
    basis = []
    one = tower.one()
    zero = tower.zero()
    for j, rel in sorted(relations.items()):
        vec = [zero] * len(coeffs)
        vec[j] = one
        for slot, c in zip(indep, rel.roots):
            vec[slot] = c
        basis.append(vec)
    return basis


def span_saturate(field: FieldTower,
                  elements: Sequence[TowerElem]) -> List[TowerElem]:
    """Basis over squares of the field generated by 1 and the elements.

    In characteristic 2, e^2 lies in the subfield of squares K^2 for every
    e in K.  So for a field L with K^2 <= L <= K and e outside L,
    L(e) = L + L*e has twice the dimension of L.  Each element outside the
    current span is adjoined by appending its products with the basis so
    far; an element inside it changes nothing.  The basis is therefore in
    binary counter order: the element at index m is the product of the
    adjoined elements over the set bits of m, as in
    QuasiPfisterForm.expansion, and the adjoined elements sit at the
    powers of two.  The loop is `_saturate`, started here from [1];
    `splitting._norm_basis` starts it from a basis it has already proved.
    """
    return _saturate([field.one()], elements)


def _saturate(basis: Sequence[TowerElem],
              elements: Sequence[TowerElem]) -> List[TowerElem]:
    """Extend `basis`, a basis over squares of a field L with
    K^2 <= L <= K in binary counter order, by each element outside the
    span so far (see span_saturate)."""
    basis = list(basis)
    for e in elements:
        if not e.is_zero and not square_system_solvable(basis, e):
            basis = basis + [e * s for s in basis]
    return basis


def isotropic_kernel_basis(q, K: Optional[FieldTower] = None
                           ) -> List[List[TowerElem]]:
    """kernel_from_coefficients of the form q, over the tower K when
    given."""
    return kernel_from_coefficients((q if K is None else q.over(K)).coeffs)
