"""Quasi-Pfister forms: subset-product expansion, norm fields and degrees,
neighbor detection, the Albert product, and special neighbor rulings."""

import pytest

from quasiform import pfister
from quasiform.errors import (
    BadDecomposition,
    InconsistencyDetected,
    IndexMismatch,
    IsotropicInput,
    ZeroSlot,
)
from quasiform.fieldtower import FieldTower
from quasiform.forms import QuasilinearForm, is_anisotropic
from quasiform.pfister import (
    NormField,
    QuasiPfisterForm,
    albert_multiply,
    is_quasi_pfister_neighbor,
    norm_degree,
    norm_field_slots,
    quasi_pfister,
    special_neighbor_ruling,
)
from quasiform.sqlinalg import span_saturate, square_span_contains

from oracles import FROZEN, tower_sampler


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b", "c"))


class TestExpansion:
    def test_two_fold(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        assert P.n == 2 and P.dim == 4
        assert P.expansion == (F.one(), a, b, a * b)
        assert P.form().coeffs == P.expansion

    def test_binary_counter_order(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        P = QuasiPfisterForm(F, (a, b, c))
        # index m selects the product of slots whose bit is set in m
        assert P.expansion[0b101] == a * c
        assert P.expansion[0b110] == b * c
        assert P.expansion[0b111] == a * b * c

    def test_empty_slots(self, F):
        P = QuasiPfisterForm(F, ())
        assert P.dim == 1 and P.expansion == (F.one(),)

    def test_zero_slot_rejected(self, F):
        with pytest.raises(ZeroSlot):
            QuasiPfisterForm(F, (F.zero(),))

    def test_evaluate_matches_form(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        vec = [F.one(), a, b + F.one(), a * b]
        assert P.evaluate(vec) == P.form().evaluate(vec)
        with pytest.raises(IndexMismatch):
            P.evaluate([F.one()])


class TestNormDegree:
    def test_pfister_forms_are_their_own_norm_fields(self, F):
        a, b = F.var("a"), F.var("b")
        q = quasi_pfister([a, b], F)
        degree, nf = norm_degree(q)
        assert degree == FROZEN["pfister2"]["norm_degree"]
        assert len(nf.basis) == degree
        slots = norm_field_slots(nf)
        assert len(slots) == 2

    def test_five_dim_form(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        q = QuasilinearForm(F, [F.one(), a, b, a * b, c])
        assert norm_degree(q)[0] == FROZEN["five_dim"]["norm_degree"]

    def test_scaling_invariance(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        q = QuasilinearForm(F, [F.one(), a, b])
        assert norm_degree(q)[0] == norm_degree(q.scale(c))[0]

    def test_norm_field_multiplication_table(self, F):
        a, b = F.var("a"), F.var("b")
        _, nf = norm_degree(QuasilinearForm(F, [F.one(), a, b]))
        table = nf.multiplication_table()
        for (i, j), rel in table.items():
            assert rel.verify()
            assert rel.target == nf.basis[i] * nf.basis[j]

    def test_isotropic_rejected(self, F):
        a = F.var("a")
        with pytest.raises(IsotropicInput):
            norm_degree(QuasilinearForm(F, [a, a ** 3]))

    def test_slots_expand_to_basis_in_binary_counter_order(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        forms = [[F.one(), a, b], [F.one(), a, b, a * b, c],
                 [c, a * c, b * c ** 3], [a, b, c, a * b * c],
                 [F.one(), a + b, a * b + c]]
        for coeffs in forms:
            degree, nf = norm_degree(QuasilinearForm(F, coeffs))
            slots = norm_field_slots(nf)
            assert 1 << len(slots) == degree
            assert QuasiPfisterForm(F, slots).expansion == nf.basis

    def test_slots_reject_a_basis_out_of_counter_order(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        nf = NormField(F, [F.one(), a, b, c, a * b, a * c, b * c, a * b * c])
        with pytest.raises(InconsistencyDetected):
            norm_field_slots(nf)


def _anisotropic_chain(K, element, dim):
    """Anisotropic forms of dim 1..dim over K, each the one before plus a
    drawn element; a draw that makes the form isotropic is dropped."""
    forms, coeffs = [], []
    for _ in range(20 * dim):
        if len(coeffs) == dim:
            break
        q = QuasilinearForm(K, coeffs + [element(1)])
        if is_anisotropic(q):
            forms.append(q)
            coeffs = list(q.coeffs)
    assert len(coeffs) == dim
    return forms


class TestNormDegreeStartsFromTheRank:
    """norm_degree takes <<e_1, e_2>> from the anisotropy it has just
    checked and saturates only by e_3, ...; the basis is the one
    span_saturate builds from [1] over all of e_1, e_2, …, with
    e_i = a_1 a_(i+1), which spans what the ratios a_(i+1)/a_1 span."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("depth,dim", [(0, 6), (1, 5), (2, 5)])
    def test_basis_equals_span_saturate(self, seed, depth, dim):
        K, _, _, element = tower_sampler(seed, depth)
        for q in _anisotropic_chain(K, element, dim):
            a_1 = q.coeffs[0]
            expected = span_saturate(q.field, [a_1 * a for a in q.coeffs[1:]])
            degree, nf = norm_degree(q)
            assert list(nf.basis) == expected
            assert degree == len(expected)
            # the products differ from the ratios by the square a_1^2
            inv = a_1.invert()
            ratios = span_saturate(q.field, [inv * a for a in q.coeffs[1:]])
            assert len(ratios) == degree
            assert square_span_contains(expected, ratios)
            assert square_span_contains(ratios, expected)

    def test_builds_a_system_only_past_the_second_doubling(self, F, systems):
        built, _ = systems
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        forms = [[a], [F.one(), a], [F.one(), a, b], [F.one(), a, b, a * b],
                 [c, a * c, b * c ** 3, a * b * c], [F.one(), a, b, c, a * b],
                 [F.one(), a, b, a * b, c, a * c]]
        for coeffs in forms:
            q = QuasilinearForm(F, coeffs)
            assert is_anisotropic(q)
            del built[:]
            norm_degree(q)
            assert len(built) == max(0, q.dim - 3)

    def test_isotropic_form_builds_nothing_after_its_rank(self, F, systems):
        built, _ = systems
        a, b = F.var("a"), F.var("b")
        for coeffs in [[a, a ** 3], [F.one(), a, b, a * b ** 2]]:
            q = QuasilinearForm(F, coeffs)
            q.independent()
            del built[:]
            with pytest.raises(IsotropicInput):
                norm_degree(q)
            assert built == []


class TestNeighborDetection:
    def test_three_dim_neighbor(self, F):
        a, b = F.var("a"), F.var("b")
        q = QuasilinearForm(F, [F.one(), a, b])
        P = is_quasi_pfister_neighbor(q)
        assert P is not None
        assert P.dim == 4
        assert set(P.expansion) == {F.one(), a, b, a * b}

    def test_pfister_form_is_its_own_neighbor(self, F):
        a, b = F.var("a"), F.var("b")
        q = quasi_pfister([a, b], F)
        P = is_quasi_pfister_neighbor(q)
        assert P is not None and P.dim == 4

    def test_small_form_is_not_a_neighbor(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        # dim 4 with norm degree 8: 2*4 <= 8, too small
        q = QuasilinearForm(F, [F.one(), a, b, c])
        assert is_quasi_pfister_neighbor(q) is None


class TestAlbertProduct:
    def test_multiplicativity_symbolic(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        names = [f"s{i}" for i in range(4)] + [f"t{i}" for i in range(4)]
        K = F.extend_transcendental(names)
        x = [K.var(f"s{i}") for i in range(4)]
        y = [K.var(f"t{i}") for i in range(4)]
        z = albert_multiply(P, x, y)
        assert P.evaluate(z) == P.evaluate(x) * P.evaluate(y)

    def test_identity_element(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        e = [F.one(), F.zero(), F.zero(), F.zero()]
        x = [F.var("c"), a, b + F.one(), a * b]
        assert albert_multiply(P, e, x) == x
        assert albert_multiply(P, x, e) == x

    def test_length_mismatch(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        with pytest.raises(IndexMismatch):
            albert_multiply(P, [F.one()], [F.one()] * 4)


class TestSpecialRuling:
    def test_main_example(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        P = QuasiPfisterForm(F, (a, b))
        ruling = special_neighbor_ruling(P, (0, 1), (F.one(), c))
        assert len(ruling.coords) == 5
        assert ruling.target.dim == 5
        assert ruling.verify()
        assert ruling.certificate.verify()

    def test_block_forms_are_built_once(self, F, monkeypatch):
        # the ruling reuses the identity's forms; verify() rebuilds them,
        # and so does an ambient map's constructor, which verifies it
        calls = []
        real = pfister._block_forms

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pfister, "_block_forms", counted)
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        P = QuasiPfisterForm(F, (a, b))
        for multipliers in ((F.one(), c), (c,)):
            del calls[:]
            ruling = special_neighbor_ruling(P, (0, 1), multipliers)
            assert len(calls) == 1 + ruling.ambient
            del calls[:]
            assert ruling.certificate.verify() and len(calls) == 1

    def test_degenerate_one_block(self, F):
        # s = 1: the target quadric <b> has no points; the map lives on
        # ambient coordinates and carries the vanishing certificate
        a, b = F.var("a"), F.var("b")
        P1 = QuasiPfisterForm(F, (a,))
        ruling = special_neighbor_ruling(P1, (0, 1), (b,))
        assert ruling.ambient
        assert len(ruling.coords) == 1
        assert ruling.verify()

    def test_degree_one_self_map(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a,))
        ruling = special_neighbor_ruling(P, (0,), (F.one(), b))
        assert len(ruling.coords) == 3
        assert ruling.verify()

    def test_bad_indices(self, F):
        a, b = F.var("a"), F.var("b")
        P = QuasiPfisterForm(F, (a, b))
        with pytest.raises(BadDecomposition):
            special_neighbor_ruling(P, (), (F.one(),))
        with pytest.raises(BadDecomposition):
            special_neighbor_ruling(P, (1, 0), (F.one(),))
        with pytest.raises(BadDecomposition):
            special_neighbor_ruling(P, (0, 4), (F.one(),))
        with pytest.raises(BadDecomposition):
            special_neighbor_ruling(P, (0,), ())
        with pytest.raises(BadDecomposition):
            special_neighbor_ruling(P, (0,), (F.zero(),))

    def test_certificate_tamper_detected(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        P = QuasiPfisterForm(F, (a, b))
        ruling = special_neighbor_ruling(P, (0, 1), (F.one(), c))
        cert = ruling.certificate
        cert_bad = type(cert)(cert.P, cert.indices, cert.multipliers,
                              cert.lhs + cert.lhs.tower.one(), cert.rhs)
        assert not cert_bad.verify()

    def test_certificate_is_immutable(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        P = QuasiPfisterForm(F, (a, b))
        cert = special_neighbor_ruling(P, (0, 1), (F.one(), c)).certificate
        for name in ("P", "indices", "multipliers", "lhs", "rhs"):
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
        assert cert.verify()
