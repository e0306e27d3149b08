"""The GF(2^15) witness: table arithmetic against the bitwise oracle, and
numeric verdicts against exact elimination on the systems rank queries
build."""

import random

from quasiform import _elim, _gfnum
from quasiform.fieldtower import FieldTower
from quasiform.sqlinalg import _generator_blocks

from oracles import gf_mul, gf_pow, sample_monomial_form, sample_poly_elem

ORDER = _gfnum._ORDER


def test_mul_and_pow_match_bitwise_reference_on_every_value():
    a = 0x5A3C
    for b in range(1 << 15):
        assert _gfnum._mul(a, b) == gf_mul(a, b)
        assert _gfnum._mul(b, a) == gf_mul(b, a)
    for e in range(3 * ORDER // 2, 3 * ORDER // 2 + 200):
        assert _gfnum._pow(a, e) == gf_pow(a, e)
    for b in range(1, 1 << 15, 97):
        assert _gfnum._pow(b, 12345) == gf_pow(b, 12345)


def test_mul_and_pow_match_bitwise_reference_on_random_pairs():
    rng = random.Random(2718)
    for _ in range(3000):
        a, b = rng.randrange(1 << 15), rng.randrange(1 << 15)
        assert _gfnum._mul(a, b) == gf_mul(a, b)
        e = rng.randrange(4 * ORDER)
        assert _gfnum._pow(a, e) == gf_pow(a, e)
    assert _gfnum._pow(0, 0) == 1 and _gfnum._pow(0, 5) == 0


def test_inverse_through_pow():
    for a in range(1, 1 << 15):
        assert _gfnum._mul(_gfnum._pow(a, ORDER - 1), a) == 1


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


def test_verdicts_agree_with_elimination_over_a_tower_with_denominators():
    F = FieldTower.rational(("a", "b", "c"))
    a, b, c = F.var("a"), F.var("b"), F.var("c")
    K1 = F.extend_inseparable(a * (b + F.one()).invert(), "y")
    theta = F.embed(b * (c + F.one()).invert(), K1) + K1.gen(0)
    K = K1.extend_inseparable(theta, "z")
    rng = random.Random(16)

    def fraction(degree):
        return (sample_poly_elem(rng, K, degree, 2)
                * sample_poly_elem(rng, K, 1, 2).invert())

    def element():
        mono = K.one()
        for i in range(K.depth):
            if rng.random() < 0.5:
                mono = mono * K.gen(i)
        return fraction(2) * mono

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
