"""The GF(2^15) witness: table arithmetic against the bitwise oracle, and
numeric verdicts against exact elimination on the systems that rank
queries, square solves and similarity decisions build."""

import random

import quasiform.forms
from quasiform import _elim, _gfnum
from quasiform.fieldtower import FieldTower
from quasiform.forms import decide_similar, is_anisotropic
from quasiform.sqlinalg import (
    _generator_blocks,
    _SquareBlocks,
    solve_square_system_multi,
)

from oracles import gf_mul, gf_pow, sample_monomial_form, sample_poly_elem

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


def _rank_systems(gens):
    """Every system k2_rank decides for gens, in order, with the exact
    verdict that drives the greedy loop."""
    blocks = _generator_blocks(gens)
    indep = [0]
    for j in range(1, len(gens)):
        matrix, rhs = blocks.system(indep, j)
        exact = _elim.solvable(matrix, rhs)
        yield matrix, rhs, exact
        if not exact:
            indep.append(j)


def _checked_outcomes(gens):
    """Exact outcomes of every system k2_rank decides for gens, after
    checking that each conclusive witness verdict agrees with them."""
    outcomes = []
    for matrix, rhs, exact in _rank_systems(gens):
        verdict = _gfnum.numeric_verdict(matrix, rhs)
        assert verdict is None or verdict == exact
        outcomes.append((verdict, exact))
    return outcomes


def test_verdicts_agree_with_elimination_on_monomial_and_binomial_forms():
    F = FieldTower.rational(("a", "b", "c", "d"))
    rng = random.Random(15)
    verdicts = set()
    for _ in range(40):
        q, _ = sample_monomial_form(rng, F, rng.randrange(2, 8), 3)
        coeffs = list(q.coeffs)
        slot = rng.randrange(len(coeffs))
        coeffs[slot] = coeffs[slot] + sample_poly_elem(rng, F, 3, 1)
        if coeffs[slot].is_zero:
            coeffs[slot] = F.one()
        for gens in (list(q.coeffs), coeffs):
            verdicts.update(v for v, _ in _checked_outcomes(gens))
    assert verdicts == {True, False, None}


def _depth_two_sampler(seed):
    """The tower F2(a,b,c)(y)(z) with denominators in both defining
    elements, and samplers of fractions and of fractions times a
    generator monomial in it."""
    F = FieldTower.rational(("a", "b", "c"))
    a, b, c = F.var("a"), F.var("b"), F.var("c")
    K1 = F.extend_inseparable(a * (b + F.one()).invert(), "y")
    theta = F.embed(b * (c + F.one()).invert(), K1) + K1.gen(0)
    K = K1.extend_inseparable(theta, "z")
    rng = random.Random(seed)

    def fraction(degree):
        return (sample_poly_elem(rng, K, degree, 2)
                * sample_poly_elem(rng, K, 1, 2).invert())

    def element():
        mono = K.one()
        for i in range(K.depth):
            if rng.random() < 0.5:
                mono = mono * K.gen(i)
        return fraction(2) * mono

    return K, rng, fraction, element


def test_verdicts_agree_with_elimination_over_a_tower_with_denominators():
    K, rng, fraction, element = _depth_two_sampler(16)

    exact = set()
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
        exact.update(e for _, e in _checked_outcomes(gens))
    assert exact == {True, False}


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
    K, krng, fraction, element = _depth_two_sampler(seed + 1)
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


def test_square_solves_are_none_exactly_when_elimination_finds_no_solution():
    verdicts, exact_outcomes = set(), set()
    for seed in (18, 20):
        for rows, targets in _square_systems(seed):
            ngens = len(rows[0])
            blocks = _SquareBlocks(list(zip(*rows)) + [targets])
            matrix, rhs = blocks.system(range(ngens), ngens)
            exact = _elim.solvable(matrix, rhs)
            verdicts.add(_gfnum.numeric_verdict(matrix, rhs))
            exact_outcomes.add((blocks.tower.depth, exact))
            assert (solve_square_system_multi(rows, targets) is None) == \
                (not exact)
    # the witness proved unsolvability, and both answers occurred over
    # both fields
    assert False in verdicts
    assert exact_outcomes == {(0, True), (0, False), (2, True), (2, False)}


def test_zero_kernel_proofs_agree_with_nullspace_on_similarity_systems(
        monkeypatch):
    """Every similarity system that decide_similar builds for sampled
    compare pairs: a zero-kernel verdict must match an empty exact
    nullspace."""
    systems = []
    original = quasiform.forms.square_nullspace_multi

    def recording(gen_rows):
        systems.append(gen_rows)
        return original(gen_rows)

    monkeypatch.setattr(quasiform.forms, "square_nullspace_multi", recording)
    F = FieldTower.rational(("a", "b", "c"))
    rng = random.Random(20)
    forms = []
    while len(forms) < 8:
        q, _ = sample_monomial_form(rng, F, rng.randrange(3, 5), 2)
        if is_anisotropic(q):
            forms.append(q)
            # a monomial multiple is similar, so its kernel is nonzero
            forms.append(q.scale(sample_poly_elem(rng, F, 2, 1)))
    for i, p in enumerate(forms):
        for q in forms[i + 1:]:
            if p.dim == q.dim:
                decide_similar(p, q)
    outcomes = set()
    for gen_rows in systems:
        ngens = len(gen_rows[0])
        blocks = _SquareBlocks(list(zip(*gen_rows)))
        matrix, _ = blocks.system(range(ngens))
        verdict = _gfnum.numeric_verdict(matrix)
        assert verdict in (True, None)
        kernel = _elim.nullspace(matrix, ngens * blocks.nmasks)
        if verdict:
            assert kernel == []
        outcomes.add((verdict, bool(kernel)))
    assert (True, False) in outcomes and (None, True) in outcomes
