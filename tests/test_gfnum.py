"""The GF(2^15) witness: table arithmetic against the bitwise oracle, and
every verdict the library takes on the systems that rank queries, square
solves and similarity decisions build, re-decided by exact elimination."""

import itertools
import random
from pathlib import Path

import pytest

from quasiform import _elim, _gfnum, total_index
from quasiform.fieldtower import FieldTower
from quasiform.forms import decide_similar, is_anisotropic
from quasiform.gf2poly import Poly, slot_shifts
from quasiform.sqlinalg import (
    _SquareBlocks,
    k2_rank,
    solve_square_system_multi,
)

from oracles import (
    eval_poly,
    gf_matrix_rank,
    gf_mul,
    gf_pow,
    sample_monomial_form,
    sample_poly_elem,
    tower_sampler,
    witness_point,
)

ORDER = _gfnum._ORDER


def test_mul_and_pow_match_bitwise_reference_on_every_value():
    exp, log = _gfnum._tables()
    a = 0x5A3C
    for b in range(1, 1 << 15):
        assert exp[log[a] + log[b]] == gf_mul(a, b)
        assert exp[log[b] + log[a]] == gf_mul(b, a)
    for e in range(3 * ORDER // 2, 3 * ORDER // 2 + 200):
        assert exp[log[a] * e % ORDER] == gf_pow(a, e)
    for b in range(1, 1 << 15, 97):
        assert exp[log[b] * 12345 % ORDER] == gf_pow(b, 12345)


def test_mul_and_pow_match_bitwise_reference_on_random_pairs():
    exp, log = _gfnum._tables()
    rng = random.Random(2718)
    for _ in range(3000):
        a, b = rng.randrange(1, 1 << 15), rng.randrange(1, 1 << 15)
        assert exp[log[a] + log[b]] == gf_mul(a, b)
        e = rng.randrange(4 * ORDER)
        assert exp[log[a] * e % ORDER] == gf_pow(a, e)


def test_inverse_through_pow():
    exp, log = _gfnum._tables()
    for a in range(1, 1 << 15):
        assert exp[log[exp[log[a] * (ORDER - 1) % ORDER]] + log[a]] == 1


def test_tables_prove_x_primitive():
    exp, log = _gfnum._tables()
    assert len(exp) == 2 * ORDER
    assert sorted(exp[:ORDER]) == list(range(1, 1 << 15))
    for i in range(0, ORDER, 101):
        assert log[exp[i]] == i and exp[i + ORDER] == exp[i]


@pytest.fixture
def verdicts(monkeypatch):
    """Every witness verdict the library takes, re-decided as it is taken
    by exact elimination on the system it stands for, which must agree
    with a conclusive verdict.  Records (has rhs, verdict, exact, tower
    depth); exact is the solvability of the system with a right-hand
    side, and without one whether the kernel is zero."""
    records = []
    verdict_of = _SquareBlocks.verdict

    def checking(blocks, keys, cols, target=None):
        verdict = verdict_of(blocks, keys, cols, target)
        assert keys == blocks.rows(cols, target)
        rows = blocks.system(keys, cols, target)
        ncols = len(cols) * blocks.nmasks
        if target is None:
            assert verdict in (True, None)
            exact = _elim.nullspace(rows, ncols) is None
        else:
            exact = _elim.solvable(rows, ncols)
        assert verdict is None or verdict == exact
        records.append((target is not None, verdict, exact,
                        blocks.tower.depth))
        return verdict

    monkeypatch.setattr(_SquareBlocks, "verdict", checking)
    return records


def test_verdicts_agree_with_elimination_on_rank_stream_forms(
        verdicts, monkeypatch):
    """The benchmark's own rank-stream inputs: monomial and binomial forms
    over F2(a,b,c,d), built by `qbench.workloads._build_form`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from qbench.workloads import WORKLOADS

    for query in itertools.islice(WORKLOADS["rank-stream"].timed(3), 400):
        total_index(query.payload)
    assert len(verdicts) > 1000
    assert {v for _, v, _, _ in verdicts} == {True, False, None}


def test_verdicts_agree_with_elimination_on_monomial_and_binomial_forms(
        verdicts):
    F = FieldTower.rational(("a", "b", "c", "d"))
    rng = random.Random(15)
    for _ in range(40):
        q, _ = sample_monomial_form(rng, F, rng.randrange(2, 8), 3)
        coeffs = list(q.coeffs)
        slot = rng.randrange(len(coeffs))
        coeffs[slot] = coeffs[slot] + sample_poly_elem(rng, F, 3, 1)
        if coeffs[slot].is_zero:
            coeffs[slot] = F.one()
        for gens in (list(q.coeffs), coeffs):
            k2_rank(gens)
    assert {v for _, v, _, _ in verdicts} == {True, False, None}


def test_one_rank_takes_one_verdict_per_step_from_one_point_set(
        monkeypatch):
    """The benchmark counts `gfnum.calls` as decisions: k2_rank on a dim-8
    form takes one verdict per greedy step, all on one system, whose one
    witness point comes from one seeded generator drawing once per
    variable of the system."""
    F = FieldTower.rational(("a", "b", "c", "d"))
    q, _ = sample_monomial_form(random.Random(8), F, 8, 3)
    systems = []
    verdict_of = _SquareBlocks.verdict

    def counting(blocks, *args):
        systems.append(blocks)
        return verdict_of(blocks, *args)

    seeds, draws = [], []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(_SquareBlocks, "verdict", counting)
    monkeypatch.setattr(_gfnum.random, "Random", CountingRandom)
    k2_rank(q.coeffs)
    assert len(systems) == 7
    blocks = systems[0]
    assert all(b is blocks for b in systems)
    used = 0
    for block in blocks.blocks:
        for entries in block.values():
            for p in entries:
                used |= p.packed_or()
    assert seeds == [0x51D2]
    assert draws and draws == [(ORDER,)] * len(slot_shifts(used))


def test_a_verdict_ranks_one_matrix_per_point_and_each_point_is_evaluated_once(
        monkeypatch):
    """A verdict ranks [A | b] once, at the system's one witness point, and
    a system evaluates every entry of every block exactly once, inside its
    first verdict: k2_rank on a dim-8 form over F2(a,b,c,d), and on a form
    with a dependent coefficient over a depth-1 tower, whose greedy step
    proves unsolvability."""
    ranks = [0]
    evaluated = {}
    asking = []             # the system whose verdict is running
    verdicts = []
    rank_of, eval_of = _gfnum._rank, _gfnum._eval_poly
    verdict_of = _SquareBlocks.verdict

    def rank(*args):
        ranks[0] += 1
        return rank_of(*args)

    def evaluate(*args):
        # an entry is only evaluated inside a verdict
        evaluated[asking[-1]] = evaluated.get(asking[-1], 0) + 1
        return eval_of(*args)

    def verdict(blocks, keys, cols, target=None):
        before = ranks[0], evaluated.get(blocks, 0)
        asking.append(blocks)
        try:
            v = verdict_of(blocks, keys, cols, target)
        finally:
            asking.pop()
        verdicts.append((blocks, v, ranks[0] - before[0],
                         evaluated.get(blocks, 0) - before[1]))
        return v

    monkeypatch.setattr(_gfnum, "_rank", rank)
    monkeypatch.setattr(_gfnum, "_eval_poly", evaluate)
    monkeypatch.setattr(_SquareBlocks, "verdict", verdict)

    F = FieldTower.rational(("a", "b", "c", "d"))
    q, _ = sample_monomial_form(random.Random(8), F, 8, 3)
    k2_rank(q.coeffs)
    _, _, fraction, element = tower_sampler(19, depth=1)
    gens = [element() for _ in range(3)]
    gens.append(fraction(1).square() * gens[0] + fraction(1).square() * gens[2])
    k2_rank(gens)

    assert False in {v for _, v, _, _ in verdicts}
    assert {count for _, _, count, _ in verdicts} == {1}
    seen = set()
    for blocks, _, _, count in verdicts:
        entries = sum(len(e) for block in blocks.blocks
                      for e in block.values())
        assert count == (0 if blocks in seen else entries)
        seen.add(blocks)
    assert len(seen) >= 2 and set(evaluated) == seen


def test_a_kernel_test_with_fewer_rows_than_unknowns_draws_no_point(
        monkeypatch):
    """No point proves a zero kernel from fewer rows than unknowns, so such
    a verdict is None without evaluating the system, and exact elimination
    decides.  Over F2(a) the columns 1, a, a^3 give one row per parity
    class: two rows for three unknowns, and two for the two of 1, a."""
    drawn = []
    evaluate = _gfnum.evaluate

    def drawing(blocks):
        drawn.append(blocks)
        return evaluate(blocks)

    monkeypatch.setattr(_gfnum, "evaluate", drawing)
    F = FieldTower.rational(("a",))
    a = F.var("a")
    blocks = _SquareBlocks([[F.one()], [a], [a ** 3]])
    keys = blocks.rows([0, 1, 2])
    assert len(keys) == 2
    assert blocks.verdict(keys, [0, 1, 2]) is None
    assert drawn == []
    assert _elim.nullspace(blocks.system(keys, [0, 1, 2]), 3) is not None
    assert blocks.verdict(blocks.rows([0, 1]), [0, 1]) is True
    assert drawn == [blocks.blocks]


def test_one_elimination_ranks_a_and_the_augmented_matrix():
    """_rank gives the rank of the first `split` columns and of all of
    them, as the bitwise oracle finds them, on seeded GF(2^15) matrices
    with zero rows, zero columns, dependent rows and every split."""
    exp, log = _gfnum._tables()
    rng = random.Random(1915)
    gaps = set()
    for _ in range(300):
        nrows, width = rng.randrange(0, 6), rng.randrange(1, 7)
        rows = [[rng.randrange(1 << 15) if rng.random() < 0.7 else 0
                 for _ in range(width)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            # a combination of two other rows
            c, d = rng.randrange(1, 1 << 15), rng.randrange(1, 1 << 15)
            rows[2] = [gf_mul(c, x) ^ gf_mul(d, y)
                       for x, y in zip(rows[0], rows[1])]
        if nrows and rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * width
        if rng.random() < 0.3:
            col = rng.randrange(width)
            for row in rows:
                row[col] = 0
        copy = [list(row) for row in rows]
        full = gf_matrix_rank(rows)
        for split in range(width + 1):
            left = gf_matrix_rank([row[:split] for row in rows])
            assert _gfnum._rank(rows, split, exp, log) == (left, full)
            gaps.add((split < width and nrows > width, full - left))
        assert rows == copy
    assert {(True, 0), (True, 1)} <= gaps


def test_verdicts_agree_with_elimination_over_a_tower_with_denominators(
        verdicts):
    K, rng, fraction, element = tower_sampler(16)

    for _ in range(6):
        gens = [element() for _ in range(rng.randrange(2, 4))]
        # a generator in the span over squares, with rational roots
        combo = K.zero()
        for g in gens[:2]:
            combo = combo + fraction(1).square() * g
        if not combo.is_zero:
            gens.insert(rng.randrange(2, len(gens) + 1), combo)
        assert any(not fn.den.is_one for g in gens
                   for fn in g.coeffs.values())
        k2_rank(gens)
    # the sampler's own square tests take verdicts at depths 0 and 1
    assert {e for _, _, e, depth in verdicts if depth == 2} == {True, False}


def _square_systems(seed):
    """Square systems sum_i c_i^2 rows[e][i] = targets[e] with one or two
    equations: polynomial entries over F2(a,b,c,d), then entries with
    denominators over the depth-2 tower.  Half the targets are
    combinations over squares of the columns, so both answers occur."""
    F = FieldTower.rational(("a", "b", "c", "d"))
    rng = random.Random(seed)

    def poly(degree, terms):
        return lambda: sample_poly_elem(rng, F, degree, terms)

    cases = [(rng, poly(3, 2), poly(2, 1), poly(3, 2))] * 30
    K, krng, fraction, element = tower_sampler(seed + 1)
    cases += [(krng, element, lambda: fraction(1), element)] * 8
    for r, entry, root, target in cases:
        rows = [[entry() for _ in range(r.randrange(1, 4))]]
        if r.random() < 0.5:
            rows.append([entry() for _ in rows[0]])
        if r.random() < 0.5:
            roots = [root() for _ in rows[0]]
            targets = [sum((c.square() * g for c, g in zip(roots, row)),
                           row[0].tower.zero()) for row in rows]
        else:
            targets = [target() for _ in rows]
        yield rows, targets


def test_square_solves_are_none_exactly_when_elimination_finds_no_solution(
        verdicts):
    outcomes = set()
    for seed in (18, 20):
        for rows, targets in _square_systems(seed):
            del verdicts[:]
            solved = solve_square_system_multi(rows, targets)
            # one verdict per solve
            [(_, verdict, exact, depth)] = verdicts
            assert (solved is None) == (not exact)
            outcomes.add((verdict, depth, exact))
    # the witness proved unsolvability, and both answers occurred over
    # both fields
    assert False in {v for v, _, _ in outcomes}
    assert {(depth, e) for _, depth, e in outcomes} == \
        {(0, True), (0, False), (2, True), (2, False)}


def test_zero_kernel_proofs_agree_with_nullspace_on_similarity_systems(
        verdicts):
    """Every system that decide_similar decides for sampled compare pairs:
    the isometry tests, and the similarity systems, where a zero-kernel
    verdict must match exact elimination finding no kernel vector."""
    F = FieldTower.rational(("a", "b", "c"))
    rng = random.Random(20)
    forms = []
    while len(forms) < 8:
        q, _ = sample_monomial_form(rng, F, rng.randrange(3, 5), 2)
        if is_anisotropic(q):
            forms.append(q)
            # a monomial multiple is similar, so its kernel is nonzero
            forms.append(q.scale(sample_poly_elem(rng, F, 2, 1)))
    del verdicts[:]
    for i, p in enumerate(forms):
        for q in forms[i + 1:]:
            if p.dim == q.dim:
                decide_similar(p, q)
    kernels = {(v, zero) for rhs, v, zero, _ in verdicts if not rhs}
    assert (True, True) in kernels and (None, False) in kernels
    assert {e for rhs, _, e, _ in verdicts if rhs} == {True, False}


def _ratio_jacobian_oracle(fractions):
    """ratio_jacobian_rank built another way: the columns
    c_1 dc_{i+1} + c_{i+1} dc_1 (c_i = num_i den_i) as polynomials, by
    Poly products and derivatives, evaluated bitwise at the witness point
    and ranked by the oracle's elimination."""
    monos = [m for f in fractions for p in f for m in p.terms]
    names = {v for m in monos for v, _ in m}
    odd = sorted({v for m in monos for v, e in m if e % 2})
    point = witness_point(names)
    cs = [num * den for num, den in fractions]
    rows = [[eval_poly(cs[0] * c.derivative(v) + c * cs[0].derivative(v),
                       point) for c in cs[1:]] for v in odd]
    return gf_matrix_rank(rows), len(odd)


def test_ratio_jacobian_rank_matches_symbolic_derivatives():
    """Values and partials read in one pass over the terms agree with the
    polynomial columns built by Poly arithmetic, on fractions over
    F2(a,b,c,d) in some or all of the variables, with exponents up to 3."""
    F = FieldTower.rational(("a", "b", "c", "d"))
    rng = random.Random(29)
    shapes = set()
    for _ in range(150):
        used = FieldTower.rational(tuple(
            v for v in F.base_vars if rng.random() < 0.7) or ("c",))
        fractions = []
        for _ in range(rng.randrange(1, 7)):
            num = sample_poly_elem(rng, used, 3, 3).coeffs[0].num
            den = (Poly.one() if rng.random() < 0.5
                   else sample_poly_elem(rng, used, 2, 2).coeffs[0].num)
            fractions.append((num, den))
        expected = _ratio_jacobian_oracle(fractions)
        assert _gfnum.ratio_jacobian_rank(fractions) == expected
        rank, rows = expected
        cols = len(fractions) - 1
        shapes.add((rank == min(rows, cols), rows < cols))
    # full and deficient ranks, with more rows than columns and fewer
    assert shapes == {(True, True), (True, False), (False, True),
                      (False, False)}

