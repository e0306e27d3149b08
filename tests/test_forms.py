"""Quasilinear forms: construction, invariants, isometry, similarity, and
generic subforms, cross-checked against the parity oracle."""

import random
from pathlib import Path

import pytest

import quasiform.cli as cli
from quasiform.dsl import parse
from quasiform.errors import (
    BadCodimension,
    DimensionMismatch,
    IsotropicInput,
    ZeroCoefficient,
    ZeroElement,
)
from quasiform.fieldtower import FieldTower
from quasiform.forms import (
    FormInvariants,
    QuasilinearForm,
    anisotropic_part,
    decide_similar,
    generic_subform,
    invariants,
    is_anisotropic,
    is_isometric,
    isotropic_vectors_basis,
    total_index,
)
from quasiform.splitting import function_field

from oracles import (
    monomial_form,
    monomial_similar,
    monomial_total_index,
    sample_monomial_exponents,
    sample_monomial_form,
)


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b"))


@pytest.fixture
def elems(F):
    return F.one(), F.var("a"), F.var("b")


class TestConstruction:
    def test_rejects_zero_coefficient(self, F, elems):
        one, a, _ = elems
        with pytest.raises(ZeroCoefficient):
            QuasilinearForm(F, [one, F.zero()])
        with pytest.raises(ZeroCoefficient):
            QuasilinearForm(F, [])

    def test_rejects_foreign_tower(self, F, elems):
        G = FieldTower.rational(("a", "b"))
        K = F.extend_transcendental(("u",))
        with pytest.raises(ValueError):
            QuasilinearForm(F, [K.one()])
        # equal towers are interchangeable
        QuasilinearForm(F, [G.one()])

    def test_evaluate(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a])
        assert q.evaluate([b, one]) == b.square() + a
        with pytest.raises(DimensionMismatch):
            q.evaluate([one])

    def test_scale_and_subform(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        assert q.scale(a).coeffs == (a, a.square(), a * b)
        assert q.subform([0, 2]).coeffs == (one, b)
        with pytest.raises(ZeroElement):
            q.scale(F.zero())

    def test_over(self, F, elems):
        one, a, b = elems
        K = F.extend_inseparable(a, "y")
        q = QuasilinearForm(F, [one, a]).over(K)
        assert q.field == K
        assert total_index(q) == 1


class TestInvariants:
    def test_against_parity_oracle(self, F):
        rng = random.Random(31)
        for _ in range(50):
            dim = rng.randrange(1, 7)
            form, exps = sample_monomial_form(rng, F, dim, 3)
            inv = invariants(form)
            expected = monomial_total_index(exps)
            assert inv == FormInvariants(dim=dim, total_index=expected,
                                         anisotropic_dim=dim - expected)
            assert is_anisotropic(form) == (expected == 0)

    def test_anisotropic_part(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, a ** 3, b])
        part = anisotropic_part(q)
        assert part.dim == 3
        assert is_anisotropic(part)
        assert part.coeffs == (one, a, b)

    def test_isotropic_vectors_evaluate_to_zero(self, F):
        rng = random.Random(32)
        for _ in range(20):
            form, exps = sample_monomial_form(rng, F, rng.randrange(2, 6), 3)
            basis = isotropic_vectors_basis(form)
            assert len(basis) == total_index(form)
            for vec in basis:
                assert form.evaluate(vec).is_zero


class TestRankOwner:
    """A form object ranks its coefficients once; only an anisotropic part
    and a subform of a form ranked anisotropic start out ranked."""

    def test_every_invariant_reads_one_rank(self, F, elems, ranked):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, a ** 3, b])
        assert total_index(q) == 1
        assert not is_anisotropic(q)
        assert invariants(q).anisotropic_dim == 3
        assert is_isometric(q, q)
        part = anisotropic_part(q)
        assert is_anisotropic(part)
        assert ranked == [q.coeffs]

    def test_subform_of_an_unranked_isotropic_form(self, F, elems, ranked):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, a * b ** 2])
        sub = q.subform([1, 2])
        assert ranked == []
        assert not is_anisotropic(sub)
        assert ranked == [sub.coeffs]
        # a form ranked isotropic passes nothing on to its subforms
        assert not is_anisotropic(q)
        sub = q.subform([0, 1])
        assert is_anisotropic(sub)
        assert ranked[-1] == sub.coeffs and len(ranked) == 3

    def test_subform_of_a_form_ranked_anisotropic(self, F, elems, ranked):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        assert is_anisotropic(q)
        assert is_anisotropic(q.subform([0, 2]))
        assert ranked == [q.coeffs]
        # a repeated coordinate is no subform on distinct coordinates
        twice = q.subform([1, 1])
        assert not is_anisotropic(twice)
        assert ranked == [q.coeffs, twice.coeffs]

    def test_subform_rejects_indices_out_of_range(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        assert is_anisotropic(q)
        # -2 names coefficient 1 a second time: <a, a> is isotropic
        with pytest.raises(DimensionMismatch):
            q.subform([1, -2])
        with pytest.raises(DimensionMismatch):
            q.subform([0, 3])

    def test_scaled_form_starts_unranked(self, F, elems, ranked):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        assert is_anisotropic(q)
        assert is_anisotropic(q.scale(a))
        assert len(ranked) == 2

    @pytest.mark.parametrize("text", [
        "form p = <1, a, b>; form q = <1, a, c>;",          # not similar
        "form p = <1, a, b>; form q = <a^2*c, a*c, b*c>;",  # similar
    ])
    def test_compare_ranks_each_input_once(self, text, ranked):
        script = parse("field F2(a, b, c);" + text + "compare p q;")
        p, q = (script.form_by_name(n).form for n in "pq")
        cli.run(script)
        base = [g for g in ranked if g[0].tower == p.field]
        assert base.count(p.coeffs) == 1
        assert base.count(q.coeffs) == 1


class TestBenchmarkInputPath:
    """qbench builds its forms as `field.scalar(Poly(monos, names))`
    (`qbench.workloads._build_form`); the same forms built from `F.var`
    must come out equal, so a change to that path fails here too."""

    @pytest.mark.parametrize("names", [("a", "b", "c", "d"),
                                       ("bench_x", "bench_y")])
    def test_named_monomials_give_the_monomial_form(self, names,
                                                    monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from qbench.workloads import _build_form

        field = FieldTower.rational(names)
        rng = random.Random(len(names))
        for _ in range(20):
            exps = [sample_monomial_exponents(rng, len(names), 4)
                    for _ in range(rng.randrange(1, 7))]
            q = _build_form(field, [(e,) for e in exps])
            assert q.field == field
            assert q.coeffs == monomial_form(field, exps).coeffs


class TestIsometry:
    def test_square_scaling_is_isometric(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        assert is_isometric(q, q.scale(b.square()))

    def test_permutation_is_isometric(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b])
        p = QuasilinearForm(F, [b, one, a])
        assert is_isometric(q, p)

    def test_adding_square_multiples_is_isometric(self, F, elems):
        # <1, a> = <1 + a, a> since (x+y, y) is a change of basis with
        # q(x+y, y) = x^2 + (1+a)y^2 ... value sets coincide over squares
        one, a, _ = elems
        q = QuasilinearForm(F, [one, a])
        p = QuasilinearForm(F, [one + a, a])
        assert is_isometric(q, p)

    def test_represented_factor_is_isometric(self, F, elems):
        # <a, a^2> = a<1, a> and a is a value of <1, a>, so they coincide
        one, a, _ = elems
        assert is_isometric(QuasilinearForm(F, [one, a]),
                            QuasilinearForm(F, [a, a.square()]))

    def test_non_isometric(self, F, elems):
        one, a, b = elems
        assert not is_isometric(QuasilinearForm(F, [one, a]),
                                QuasilinearForm(F, [one, b]))
        # b<1, a> is similar to <1, a> but not isometric: b is not a value
        assert not is_isometric(QuasilinearForm(F, [one, a]),
                                QuasilinearForm(F, [b, a * b]))

    def test_dimension_mismatch_is_false(self, F, elems):
        one, a, _ = elems
        assert not is_isometric(QuasilinearForm(F, [one]),
                                QuasilinearForm(F, [one, a]))


class TestSimilarity:
    def test_scaled_form_is_similar(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a])
        factor = decide_similar(q, q.scale(a))
        assert factor is not None
        assert is_isometric(q.scale(factor), q.scale(a))

    def test_pfister_absorbs_represented_values(self, F, elems):
        one, a, b = elems
        p = QuasilinearForm(F, [one, a, b, a * b])
        factor = decide_similar(p, p.scale(a + b))
        assert factor is not None
        assert is_isometric(p.scale(factor), p.scale(a + b))

    def test_not_similar(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a])
        p = QuasilinearForm(F, [one, b])
        assert decide_similar(q, p) is None

    def test_errors(self, F, elems):
        one, a, _ = elems
        q = QuasilinearForm(F, [one, a])
        with pytest.raises(DimensionMismatch):
            decide_similar(q, QuasilinearForm(F, [one]))
        iso = QuasilinearForm(F, [a, a ** 3])
        with pytest.raises(IsotropicInput):
            decide_similar(iso, iso)

    def test_dimension_one_factor_is_the_quotient(self, F, elems):
        # no equation is left for d = 1: the factor is b/a itself
        _, a, b = elems
        factor = decide_similar(QuasilinearForm(F, [a]),
                                QuasilinearForm(F, [b]))
        assert factor == b * a.invert()

    def test_against_the_parity_translate_oracle(self):
        F = FieldTower.rational(("a", "b", "c"))
        rng = random.Random(41)
        by_dim = {}
        for dim in range(1, 6):
            forms = by_dim[dim] = []
            while len(forms) < 8:
                q, exps = sample_monomial_form(rng, F, dim, 3)
                if not is_anisotropic(q):
                    continue
                # a translated copy: every class moved by one shift x, each
                # coefficient times its own square, in shuffled order
                x = sample_monomial_exponents(rng, 3, 3)
                moved = [tuple(e + s + 2 * r for e, s, r in zip(
                    ex, x, sample_monomial_exponents(rng, 3, 1)))
                    for ex in exps]
                rng.shuffle(moved)
                forms.append((q, exps))
                forms.append((monomial_form(F, moved), moved))
        similar = 0
        for forms in by_dim.values():
            for i, (p, pe) in enumerate(forms):
                for q, qe in forms[i + 1:]:
                    expected = monomial_similar(pe, qe)
                    similar += expected
                    for x, y in ((p, q), (q, p)):
                        factor = decide_similar(x, y)
                        assert (factor is not None) == expected
                        if factor is not None:
                            assert is_isometric(x.scale(factor), y)
        # both verdicts occur among the 140 pairs
        assert 0 < similar < 140

    def test_over_a_function_field(self):
        F = FieldTower.rational(("a", "b", "c"))
        a, b, c = (F.var(n) for n in "abc")
        ff = function_field(QuasilinearForm(F, [F.one(), a, b]))
        K = ff.tower
        q = QuasilinearForm(F, [F.one(), a, c]).over(K)
        assert is_anisotropic(q)
        s = ff.generic_point[-1] + F.embed(c, K)
        coeffs = list(q.scale(s).coeffs)
        coeffs = coeffs[1:] + coeffs[:1]
        q2 = QuasilinearForm(K, coeffs)
        assert not is_isometric(q, q2)
        for x, y in ((q, q2), (q2, q)):
            factor = decide_similar(x, y)
            assert factor is not None
            assert is_isometric(x.scale(factor), y)


class TestGenericSubform:
    def test_dimension_and_anisotropy(self, F, elems):
        one, a, b = elems
        q = QuasilinearForm(F, [one, a, b, a * b])
        for j in (1, 2):
            sub = generic_subform(q, j)
            assert sub.dim == q.dim - j
            assert is_anisotropic(sub)

    def test_codimension_zero_is_identity(self, F, elems):
        one, a, _ = elems
        q = QuasilinearForm(F, [one, a])
        assert generic_subform(q, 0) == q

    def test_bad_codimension(self, F, elems):
        one, a, _ = elems
        q = QuasilinearForm(F, [one, a])
        with pytest.raises(BadCodimension):
            generic_subform(q, 1)
        with pytest.raises(BadCodimension):
            generic_subform(q, -1)

    def test_isotropic_input_rejected(self, F, elems):
        one, a, _ = elems
        iso = QuasilinearForm(F, [a, a ** 3, one])
        with pytest.raises(IsotropicInput):
            generic_subform(iso, 1)
