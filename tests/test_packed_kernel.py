"""The packed exponent-vector kernel of `gf2poly` against GF(2^15)
evaluation, its exponent limit, and its presentation.

The variables are interned in the order pz, pa, pm, so the slot order
differs from the name order that witness points and printing follow.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import quasiform.cli as cli
from quasiform.dsl import parse
from quasiform.errors import ResourceLimit
from quasiform.gf2poly import (
    MAX_EXPONENT,
    Poly,
    RatFn,
    parity_split,
    poly_divmod_exact,
    poly_gcd,
)

from oracles import GF_ORDER, eval_poly, eval_ratfn, gf_mul, gf_pow

VARS = ("pa", "pm", "pz")
PZ, PA, PM = (Poly.variable(n, VARS) for n in ("pz", "pa", "pm"))
ONE = Poly.one()
ZERO = Poly.zero()


def polys(max_terms=5, max_exp=4):
    """Random polynomials through the public constructor."""
    exps = st.tuples(*[st.integers(0, max_exp)] * len(VARS))

    def build(monos):
        return Poly([tuple((v, e) for v, e in zip(VARS, m) if e)
                     for m in monos], VARS)

    return st.lists(exps, max_size=max_terms).map(build)


def nonzero_polys(**kw):
    return polys(**kw).filter(bool)


def points(seed, n=4):
    rng = random.Random(seed)
    return [{v: rng.randrange(1, GF_ORDER) for v in VARS} for _ in range(n)]


def assert_values(p, value, seed=0):
    """p evaluates to value(point) at random GF(2^15) points."""
    for point in points(seed):
        assert eval_poly(p, point) == value(point)


def monomial(names):
    return Poly([tuple((v, 1) for v in sorted(names))], VARS)


class TestRingOperations:
    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_add_mul(self, p, q):
        assert_values(p + q,
                      lambda x: eval_poly(p, x) ^ eval_poly(q, x))
        assert_values(p * q,
                      lambda x: gf_mul(eval_poly(p, x), eval_poly(q, x)))
        assert len((p * q).terms) <= len(p.terms) * len(q.terms)

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_square_and_root(self, p):
        sq = p.square()
        assert_values(sq, lambda x: gf_pow(eval_poly(p, x), 2))
        assert sq == p * p
        assert sq.square_root() == p
        if any(e % 2 for m in p.terms for _, e in m):
            assert p.square_root() is None

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_derivative(self, p):
        # d/dv of m = v^e * rest is e * v^(e-1) * rest: kept for odd e
        for v in VARS:
            expect = Poly([tuple((n, e - (n == v)) for n, e in m
                                 if e - (n == v))
                           for m in p.terms if dict(m).get(v, 0) % 2],
                          VARS)
            assert p.derivative(v) == expect

    @given(polys(max_terms=3, max_exp=3), polys(max_terms=3, max_exp=3))
    @settings(max_examples=40, deadline=None)
    def test_view_decodes_named_sorted_monomials(self, p, q):
        for m in (p * q).terms:
            assert list(m) == sorted(m)
            assert all(e > 0 for _, e in m)
        assert Poly((p * q).terms, VARS) == p * q


class TestDivision:
    @given(nonzero_polys(max_terms=4, max_exp=3),
           nonzero_polys(max_terms=4, max_exp=3),
           nonzero_polys(max_terms=3, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_gcd(self, p, q, r):
        g = poly_gcd(p, q)
        cp = poly_divmod_exact(p, g)
        cq = poly_divmod_exact(q, g)
        assert_values(cp * g, lambda x: eval_poly(p, x))
        assert_values(cq * g, lambda x: eval_poly(q, x))
        assert poly_gcd(cp, cq).is_one
        assert poly_gcd(p * r, q * r) == g * r

    @given(nonzero_polys(max_terms=4, max_exp=3),
           nonzero_polys(max_terms=4, max_exp=3))
    @settings(max_examples=40, deadline=None)
    def test_divmod_exact(self, p, d):
        assert poly_divmod_exact(p * d, d) == p
        if not (p + ONE).is_zero:
            # p*d + d is divisible by d, p*d + 1 only by d = 1
            assert poly_divmod_exact(p * d + d, d) == p + ONE
        if not d.is_one:
            with pytest.raises(ValueError):
                poly_divmod_exact(p * d + ONE, d)

    def test_borrow_is_not_divisible(self):
        # pz * pa^2 / pa^3 would borrow from the pz slot
        with pytest.raises(ValueError):
            poly_divmod_exact(PZ * PA ** 2, PA ** 3)
        with pytest.raises(ValueError):
            poly_divmod_exact(PZ * PA ** 2 + PM, PA ** 3 + ONE)


class TestSquareCoordinates:
    # small fractions: the sum of eight classes can meet gcds far slower
    # than these inputs suggest
    @given(polys(max_terms=3, max_exp=3), nonzero_polys(max_terms=2, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_reassembly(self, n, d):
        f = RatFn(n, d)
        total = RatFn.zero()
        for names, c in f.square_coordinates().items():
            assert names <= set(VARS)
            total = total + c.square() * RatFn.from_poly(monomial(names))
        assert total == f
        for point in points(1):
            if eval_poly(f.den, point):
                assert eval_ratfn(total, point) == eval_ratfn(f, point)


class TestParitySplit:
    """p = sum over square-free monomials mu of c_mu^2 * mu, one c_mu per
    exponent parity class of p's terms; every square system is split by
    it.  The identity is one of polynomials and takes no gcd, so the
    inputs can be larger than for RatFn.square_coordinates."""

    @given(polys(max_terms=12, max_exp=9))
    @settings(max_examples=80, deadline=None)
    def test_reassembly(self, p):
        split = parity_split(p)
        assert set(split) == {frozenset(v for v, e in term if e % 2)
                              for term in p.terms}
        total = ZERO
        for names, c in split.items():
            assert not c.is_zero
            total = total + c * c * monomial(names)
        assert total == p


class TestIdentity:
    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_equal_over_other_variables(self, p, q):
        wide = VARS + ("pw",)
        p2 = Poly(p.terms, wide)
        q2 = Poly(q.terms, ("pz", "pm", "pa"))
        assert p2 == p and hash(p2) == hash(p)
        assert p2 * q2 == p * q and hash(p2 * q2) == hash(p * q)

    def test_str_unchanged(self):
        # strings as the named-monomial representation printed them
        cases = [
            (ZERO, "0"),
            (ONE, "1"),
            (PA, "pa"),
            (PZ * PA, "pa*pz"),
            ((PA + PM + PZ + ONE) ** 3,
             "pa*pm^2+pa*pz^2+pa^2*pm+pa^2*pz+pa^3+pm*pz^2+pm^2*pz+pm^3"
             "+pz^3+pa^2+pm^2+pz^2+pa+pm+pz+1"),
            ((PA * PM + PZ) ** 2 * (PA + ONE),
             "pa^3*pm^2+pa^2*pm^2+pa*pz^2+pz^2"),
            (PA ** 7 * PZ + PM ** 7 * PA + PZ ** 7 * PM,
             "pa*pm^7+pa^7*pz+pm*pz^7"),
            ((PZ + ONE) * (PA + ONE) * (PM + ONE),
             "pa*pm*pz+pa*pm+pa*pz+pm*pz+pa+pm+pz+1"),
            (Poly([(("pm", 3), ("pz", 1)), (("pa", 2),), ()], VARS),
             "pm^3*pz+pa^2+1"),
            (RatFn(PA * PZ + PZ, PA * PA + ONE), "(pz)/(pa+1)"),
            (RatFn(PM ** 3 + PM, PZ * PM), "(pm^2+1)/(pz)"),
        ]
        for value, text in cases:
            assert str(value) == text


class TestExponentLimit:
    def test_largest_exponent_round_trips(self):
        top = Poly([(("pm", MAX_EXPONENT), ("pz", 1))], VARS)
        assert str(top) == f"pm^{MAX_EXPONENT}*pz"
        assert PM ** MAX_EXPONENT * PZ == top
        assert list(top.terms) == [(("pm", MAX_EXPONENT), ("pz", 1))]
        assert poly_divmod_exact(top, PM ** MAX_EXPONENT) == PZ
        half = PM ** (MAX_EXPONENT // 2)
        assert half.square() * PM == PM ** MAX_EXPONENT
        assert RatFn(ONE, PM ** MAX_EXPONENT).invert() == RatFn.from_poly(
            PM ** MAX_EXPONENT)

    def test_constructor_rejects_larger(self):
        with pytest.raises(ResourceLimit, match=str(MAX_EXPONENT)):
            Poly([(("pa", MAX_EXPONENT + 1),)], VARS)

    def test_product_crossing_the_limit(self):
        top = PA ** MAX_EXPONENT
        with pytest.raises(ResourceLimit, match=str(MAX_EXPONENT)):
            top * PA
        # a carry out of the pa slot would land in another variable's slot
        with pytest.raises(ResourceLimit):
            (top + PM) * (PA * PZ + ONE)
        with pytest.raises(ResourceLimit):
            PA ** (MAX_EXPONENT + 1)
        assert top * PM == Poly([(("pa", MAX_EXPONENT), ("pm", 1))], VARS)

    def test_square_crossing_the_limit(self):
        below = PZ ** ((MAX_EXPONENT + 1) // 2 - 1)
        assert below.square() == PZ ** (MAX_EXPONENT - 1)
        with pytest.raises(ResourceLimit, match=str(MAX_EXPONENT)):
            (below * PZ + PA).square()
        with pytest.raises(ResourceLimit):
            RatFn(ONE, below * PZ).square()

    def test_dsl_literal_above_the_limit_exits_3(self, tmp_path, capsys):
        script = tmp_path / "big.qf"
        script.write_text(f"field F2(a, b); form q = <1, a^{MAX_EXPONENT + 1},"
                          " b>; invariants q;", encoding="utf-8")
        assert cli.main(["run", str(script)]) == 3
        err = capsys.readouterr().err
        assert "resource limit" in err and str(MAX_EXPONENT) in err

    def test_dsl_literal_at_the_limit_parses(self):
        script = parse(f"field F2(a, b); form q = <1, a^{MAX_EXPONENT}*b>;")
        (coeff,) = script.form_by_name("q").form.coeffs[1:]
        assert str(coeff) == f"a^{MAX_EXPONENT}*b"
