"""Self-tests for the oracle helpers; nothing here exercises the library's
decision procedures, only the oracles that later cross-check them."""

import random

import pytest

from quasiform.fieldtower import FieldTower

from oracles import (
    GF_MODULUS,
    GF_ORDER,
    bits_is_irreducible,
    brute_isotropy_kernel,
    check_isotropy_exact,
    eval_elem,
    gf_inv,
    gf_matrix_rank,
    gf_mul,
    gf_pow,
    gf_sqrt,
    karpenko_violations,
    monomial_total_index,
    monomials_up_to,
    tower_point,
)


def test_modulus_is_irreducible():
    assert bits_is_irreducible(GF_MODULUS)


def test_reducible_polynomials_are_rejected():
    # x^2, x^2 + x, x^4 + x^2 + 1 = (x^2+x+1)^2, and x^15 + 1
    for f in (0b100, 0b110, 0b10101, (1 << 15) | 1):
        assert not bits_is_irreducible(f)
    # x^2 + x + 1 is the unique irreducible quadratic
    assert bits_is_irreducible(0b111)


def test_gf_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        x = rng.randrange(GF_ORDER)
        y = rng.randrange(GF_ORDER)
        z = rng.randrange(GF_ORDER)
        assert gf_mul(x, y) == gf_mul(y, x)
        assert gf_mul(x, gf_mul(y, z)) == gf_mul(gf_mul(x, y), z)
        assert gf_mul(x, y ^ z) == gf_mul(x, y) ^ gf_mul(x, z)
        assert gf_mul(x, 1) == x
    for _ in range(50):
        x = rng.randrange(1, GF_ORDER)
        assert gf_mul(x, gf_inv(x)) == 1
        s = gf_sqrt(x)
        assert gf_mul(s, s) == x


def test_gf_multiplicative_order():
    # the nonzero elements form a cyclic group of order 2^15 - 1
    rng = random.Random(2)
    for _ in range(20):
        x = rng.randrange(1, GF_ORDER)
        assert gf_pow(x, GF_ORDER - 1) == 1


def test_matrix_rank_identity_and_dependence():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert gf_matrix_rank(ident) == 4
    rows = [[1, 2, 3], [4, 5, 6], [1 ^ 4, 2 ^ 5, 3 ^ 6]]
    assert gf_matrix_rank(rows) == 2


def test_eval_elem_respects_arithmetic():
    F = FieldTower.rational(("a", "b"))
    a, b = F.var("a"), F.var("b")
    K = F.extend_inseparable(a * b + F.one(), "y")
    y = K.gen_by_name("y")
    ak, bk = F.embed(a, K), F.embed(b, K)
    rng = random.Random(3)
    x1 = ak * y + bk
    x2 = (ak + y).invert()
    for _ in range(5):
        point = tower_point(K, rng)
        v1, v2 = eval_elem(x1, point), eval_elem(x2, point)
        assert eval_elem(x1 + x2, point) == v1 ^ v2
        assert eval_elem(x1 * x2, point) == gf_mul(v1, v2)
        assert eval_elem(x1.square(), point) == gf_mul(v1, v1)
        # the generator value satisfies its relation
        yv = eval_elem(K.gen_by_name("y"), point)
        theta = eval_elem(ak * bk + K.one(), point)
        assert gf_mul(yv, yv) == theta


def test_karpenko_violations_flag_the_excluded_levels():
    # quasi-Pfister, generic and neighbour patterns keep the bound
    for dims in ((8, 4, 2, 1), (5, 4, 3, 2, 1), (7, 4, 2, 1), (6, 4, 2, 1),
                 (2, 1), (1,)):
        assert karpenko_violations(dims) == []
    # i_1 = 2 at d = 7 and i_1 = 3 at d = 8 leave an odd d - i_1 = 5
    assert karpenko_violations((7, 5, 4, 2, 1)) == [(7, 2)]
    assert karpenko_violations((8, 5, 4, 2, 1)) == [(8, 3)]
    assert karpenko_violations((4, 0)) == [(4, 4)]


def test_monomial_total_index_parity():
    # <1, a^2> has coefficients in one parity class; <1, a> has two
    assert monomial_total_index([(0, 0), (2, 0)]) == 1
    assert monomial_total_index([(0, 0), (1, 0)]) == 0
    # 1, a, a*b^2, a^3: spans over squares of 1 and a only
    assert monomial_total_index([(0, 0), (1, 0), (1, 2), (3, 0)]) == 2


def test_monomials_up_to_counts():
    assert len(monomials_up_to(2, 3)) == 10
    assert monomials_up_to(1, 2) == [(0,), (1,), (2,)]


def test_brute_kernel_finds_square_dependence():
    # <a, a^3>: (x1, x2) = (a, 1) is isotropic since a*a^2 + a^3 = 0
    basis = brute_isotropy_kernel([(1,), (3,)], entry_degree=3)
    assert basis, "kernel should be nonzero"
    for vec in basis:
        assert check_isotropy_exact([(1,), (3,)], vec)
        assert any(entry for entry in vec)


def test_brute_kernel_empty_for_anisotropic():
    # <1, a> is anisotropic and stays so for bounded-degree entries
    assert brute_isotropy_kernel([(0,), (1,)], entry_degree=3) == []


def test_check_isotropy_exact_rejects():
    # x = (1, 1) in <1, a>: value 1 + a != 0
    assert not check_isotropy_exact([(0,), (1,)], [[(0,)], [(0,)]])
