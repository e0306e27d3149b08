"""Polynomial and rational function arithmetic over GF(2), cross-checked by
random evaluation in GF(2^15)."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasiform import gf2poly
from quasiform.errors import DivisionByZero, UnknownVariable
from quasiform.gf2poly import (
    Poly,
    RatFn,
    common_denominator,
    numerator_over,
    poly_divmod_exact,
    poly_gcd,
    poly_lcm,
)

from oracles import GF_ORDER, eval_poly, eval_ratfn, gf_mul

VARS = ("a", "b")
A = Poly.variable("a", VARS)
B = Poly.variable("b", VARS)
ONE = Poly.one()
ZERO = Poly.zero()


def polys(max_terms=4, max_exp=3):
    """Small random polynomials built from the generators by arithmetic."""
    monomial = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))

    def build(exps):
        acc = ZERO
        for i, j in exps:
            acc = acc + A ** i * B ** j
        return acc

    return st.lists(monomial, min_size=0, max_size=max_terms).map(build)


def nonzero_polys(**kw):
    return polys(**kw).filter(lambda p: not p.is_zero)


def assert_eval_equal(p, q, seed=0, trials=4):
    rng = random.Random(seed)
    for _ in range(trials):
        point = {v: rng.randrange(GF_ORDER) for v in VARS}
        assert eval_poly(p, point) == eval_poly(q, point)


class TestPolyBasics:
    def test_zero_one(self):
        assert ZERO.is_zero and not ZERO.is_one
        assert ONE.is_one and not ONE.is_zero
        assert A + A == ZERO
        assert ONE + ONE == ZERO
        assert A * ZERO == ZERO
        assert A * ONE == A

    def test_equality_ignores_ambient_variables(self):
        assert Poly.variable("a", ("a",)) == A
        assert hash(Poly.variable("a", ("a",))) == hash(A)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(UnknownVariable):
            Poly.variable("c", VARS)
        with pytest.raises(UnknownVariable):
            Poly(((("c", 1),),), VARS)

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(A * A * B + ONE) == "a^2*b+1"

    def test_str_orders_terms_by_degree_then_named_monomial(self):
        """Seeded polynomials against the printing rule: terms by
        descending total degree, then by named monomial (the sorted
        (name, exponent) pairs), each joined with * in name order.  The
        names are interned in an order that is not theirs."""
        names = ("zz", "b", "a_2", "a", "x10", "x9")
        rng = random.Random(11)
        for _ in range(300):
            monos = set()
            for _ in range(rng.randint(0, 8)):
                monos.add(tuple(sorted(
                    (v, rng.choice((1, 1, 2, 3, 9, 10, 12, 32767)))
                    for v in rng.sample(names, rng.randint(0, 4)))))
            expected = "+".join(
                "*".join(v if e == 1 else f"{v}^{e}" for v, e in m) or "1"
                for m in sorted(monos,
                                key=lambda m: (-sum(e for _, e in m), m)))
            assert str(Poly(monos, names)) == (expected or "0")

    def test_pow(self):
        assert A ** 0 == ONE
        assert A ** 5 == A * A * A * A * A
        with pytest.raises(ValueError):
            A ** -1

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + p == ZERO

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_frobenius(self, p, q):
        assert (p + q).square() == p.square() + q.square()
        assert (p * q).square() == p.square() * q.square()

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_square_root_roundtrip(self, p):
        assert p.square().square_root() == p
        f = RatFn(p, B + ONE)
        assert f.square().square_root() == f

    def test_square_root_none_for_nonsquare(self):
        assert A.square_root() is None
        assert (A + ONE).square().square_root() == A + ONE
        assert (A * B + ONE).square_root() is None

    @given(polys())
    @settings(max_examples=30, deadline=None)
    def test_evaluation_matches_oracle(self, p):
        # structural equality and numeric evaluation agree on p*(p+1)
        assert_eval_equal(p * (p + ONE), p.square() + p)


class TestDerivative:
    def test_basic(self):
        assert A.derivative("a") == ONE
        assert A.derivative("b") == ZERO
        assert (A * A).derivative("a") == ZERO
        assert (A * A * A).derivative("a") == A * A
        assert (A * B).derivative("a") == B
        assert (A * B).derivative("b") == A

    def test_constants_have_zero_derivative(self):
        assert RatFn.one().derivative("a") == RatFn.zero()
        assert ONE.derivative("b") == ZERO

    def test_unused_name_gets_no_slot(self):
        # declared but never used by any polynomial
        p = Poly(((("a", 1),),), ("a", "unused_by_any_poly"))
        slots = len(gf2poly._SLOT_NAME)
        assert p.derivative("unused_by_any_poly") == ZERO
        assert RatFn(ONE, p).derivative("unused_by_any_poly") == RatFn.zero()
        assert len(gf2poly._SLOT_NAME) == slots

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, p, q):
        lhs = (p * q).derivative("a")
        rhs = p.derivative("a") * q + p * q.derivative("a")
        assert lhs == rhs

    @given(polys())
    @settings(max_examples=30, deadline=None)
    def test_squares_have_zero_derivative(self, p):
        assert p.square().derivative("a") == ZERO
        assert p.square().derivative("b") == ZERO


class TestGcd:
    @given(nonzero_polys(), nonzero_polys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, p, q):
        g = poly_gcd(p, q)
        assert not g.is_zero
        assert poly_divmod_exact(p, g) * g == p
        assert poly_divmod_exact(q, g) * g == q

    @given(nonzero_polys(), nonzero_polys(), nonzero_polys())
    @settings(max_examples=25, deadline=None)
    def test_gcd_common_factor(self, p, q, r):
        # over GF(2) there are no unit multiples to normalize away
        assert poly_gcd(p * r, q * r) == poly_gcd(p, q) * r

    @given(nonzero_polys(), nonzero_polys())
    @settings(max_examples=25, deadline=None)
    def test_lcm_gcd_product(self, p, q):
        assert poly_lcm(p, q) * poly_gcd(p, q) == p * q

    def test_gcd_monomial_fast_path(self):
        p = A ** 3 * B + A ** 2 * B ** 2
        assert poly_gcd(p, A ** 2 * B ** 3) == A ** 2 * B
        assert poly_gcd(A ** 2 * B ** 3, p) == A ** 2 * B
        assert poly_gcd(p, ONE) == ONE

    def test_divmod_exact_requires_divisibility(self):
        product = (A + B) * (A * B + ONE)
        assert poly_divmod_exact(product, A + B) == A * B + ONE
        with pytest.raises(Exception):
            poly_divmod_exact(A, B)


class TestRatFn:
    def test_reduction(self):
        f = RatFn(A * A * B, A * B * B)
        assert f.num == A and f.den == B
        assert RatFn(ZERO, A).is_zero
        assert RatFn(A, A).is_one

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFn(A, ZERO)

    @given(nonzero_polys(), nonzero_polys(), nonzero_polys(),
           nonzero_polys())
    @settings(max_examples=30, deadline=None)
    def test_field_axioms_by_evaluation(self, p, q, r, s):
        f = RatFn(p, q)
        g = RatFn(r, s)
        rng = random.Random(7)
        for _ in range(4):
            point = {v: rng.randrange(GF_ORDER) for v in VARS}
            try:
                fv, gv = eval_ratfn(f, point), eval_ratfn(g, point)
                sv = eval_ratfn(f + g, point)
                pv = eval_ratfn(f * g, point)
            except ZeroDivisionError:
                continue
            assert sv == fv ^ gv
            assert pv == gf_mul(fv, gv)

    @given(nonzero_polys(), nonzero_polys())
    @settings(max_examples=30, deadline=None)
    def test_invert(self, p, q):
        f = RatFn(p, q)
        assert (f * f.invert()).is_one
        assert f.invert().invert() == f

    def test_reduced_invariant(self):
        f = RatFn((A + B) * A, (A + B) * B)
        assert poly_gcd(f.num, f.den).is_one


VARS3 = ("a", "b", "c")
A3, B3, C3 = (Poly.variable(v, VARS3) for v in VARS3)
ONE3 = Poly.one()
# denominators are products of these, so that they share factors
FACTORS = (A3, B3 + ONE3, A3 + C3, A3 * B3 + C3, C3 * C3 + A3 + ONE3)


def fractions3():
    """Random fractions over F2(a,b,c) with overlapping denominators."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    num = st.lists(exps, max_size=3).map(
        lambda monos: Poly([tuple((v, e) for v, e in zip(VARS3, m) if e)
                            for m in monos], VARS3))
    den = st.lists(st.sampled_from(FACTORS), max_size=3).map(
        lambda fs: functools.reduce(lambda x, y: x * y, fs, ONE3))
    return st.builds(RatFn, num, den)


class TestCommonDenominator:
    @given(st.lists(fractions3(), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_lcm_clears_every_fraction(self, fns):
        den = common_denominator(fns)
        assert den == functools.reduce(poly_lcm, (f.den for f in fns), ONE3)
        rng = random.Random(len(fns))
        for f in fns:
            poly_divmod_exact(den, f.den)  # raises unless f.den divides den
            num = numerator_over(f, den)
            for _ in range(4):
                point = {v: rng.randrange(1, GF_ORDER) for v in VARS3}
                try:
                    value = eval_ratfn(f, point)
                except ZeroDivisionError:
                    continue
                assert eval_poly(num, point) == gf_mul(
                    value, eval_poly(den, point))

    def test_all_polynomial(self):
        fns = [RatFn.from_poly(A3 + B3), RatFn.zero()]
        assert common_denominator(fns).is_one
        assert common_denominator([]).is_one
        assert [numerator_over(f, common_denominator(fns)) for f in fns] \
            == [A3 + B3, Poly.zero()]
