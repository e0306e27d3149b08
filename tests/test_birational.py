"""Birational geometry of quasilinear quadrics: isotropy over function
fields, domination, stable equivalence, rulings with certificates, unique
self-maps, and the regularity test."""

import random
import sys

import pytest

from quasiform import _elim, birational, cli, sqlinalg
from quasiform.birational import (
    DominationVerdict,
    FiberMap,
    RulingCertificate,
    RulingDecomposition,
    _pull_basis,
    _ruling_map,
    construct_ruling,
    decide_birational,
    decide_stably_equivalent,
    essdim_domination_check,
    is_isotropic_over,
    is_regular_quadric,
    unique_self_map_check,
)
from quasiform.dsl import parse
from quasiform.errors import (
    DimensionTooSmall,
    EmbeddingFailure,
    IsotropicInput,
    NotRuled,
    ZeroElement,
)
from quasiform.fieldtower import FieldTower, TowerElem
from quasiform.forms import (
    QuasilinearForm,
    anisotropic_part,
    is_anisotropic,
    total_index,
)
from quasiform.gf2poly import Poly, RatFn
from quasiform.maps import RationalMap
from quasiform.pfister import is_quasi_pfister_neighbor, quasi_pfister
from quasiform.splitting import (
    first_witt_index,
    function_field,
    splitting_pattern,
    total_index_over,
)
from quasiform.sqlinalg import (
    isotropic_kernel_basis,
    square_combination_vanishes,
    tower_linear_solve,
)

from oracles import (
    FROZEN,
    eval_elem,
    exponent_add,
    gf_inv,
    gf_mul,
    karpenko_violations,
    monomial_form,
    parity_rank,
    sample_form,
    sample_monomial_form,
    tower_point,
    tower_sampler,
)
from test_golden_reports import SCRIPTS


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b", "c"))


@pytest.fixture
def abc(F):
    return F.var("a"), F.var("b"), F.var("c")


class TestIsotropyOverFunctionFields:
    def test_form_splits_over_its_own_field(self, F, abc):
        a, b, _ = abc
        q = quasi_pfister([a, b], F)
        assert is_isotropic_over(q, q)

    def test_neighbor_splits_over_envelope(self, F, abc):
        a, b, _ = abc
        neighbor = QuasilinearForm(F, [F.one(), a, b])
        envelope = quasi_pfister([a, b], F)
        assert is_isotropic_over(neighbor, envelope)
        assert is_isotropic_over(envelope, neighbor)

    def test_unrelated_forms_stay_anisotropic(self, F, abc):
        a, _, c = abc
        p = QuasilinearForm(F, [F.one(), a])
        q = QuasilinearForm(F, [F.one(), c])
        assert not is_isotropic_over(p, q)
        assert not is_isotropic_over(q, p)

    def test_different_base_fields_rejected(self, F, abc):
        a, _, _ = abc
        G = FieldTower.rational(("t",))
        with pytest.raises(ValueError):
            is_isotropic_over(QuasilinearForm(F, [F.one(), a]),
                              QuasilinearForm(G, [G.one(), G.var("t")]))


@pytest.fixture
def fields_built(monkeypatch):
    """Every form whose function field `is_isotropic_over` builds."""
    built = []
    real = birational.function_field

    def recording(q):
        built.append(q)
        return real(q)

    monkeypatch.setattr(birational, "function_field", recording)
    return built


def _isotropy_samplers(seed):
    """Form samplers over F2(a,b), F2(a,b,c), F2(a,b,c,d), monomial and
    polynomial, and over the tower F2(a,b,c)(y), each with the largest
    dimension of p and of q it is asked for."""
    rng = random.Random(seed)
    for names, p_top, q_top in ((("a", "b"), 5, 4), (("a", "b", "c"), 6, 5),
                                (("a", "b", "c", "d"), 5, 4)):
        F = FieldTower.rational(names)
        yield ((lambda d, F=F: sample_monomial_form(rng, F, d, 2)[0]),
               p_top, q_top)
        yield (lambda d, F=F: sample_form(rng, F, d)), p_top, q_top
    K, _, _, element = tower_sampler(seed, 1)
    yield (lambda d: QuasilinearForm(K, [element(1) for _ in range(d)]),
           5, 3)


class TestIsotropyByDimensionCounts:
    """With r = dim p_an and [K:K^2] = 2^t, 2r > 2^t settles true (A),
    otherwise dim q > 2^(r-1) settles false (B), and otherwise, when p_an
    is a quasi-Pfister neighbour, N(q) <= N(p_an) decides (C), with no
    function field built (the proofs are in `is_isotropic_over`)."""

    def test_counts_agree_with_the_full_computation(self, fields_built):
        branches = dict.fromkeys(("A", "B", "C", "computed"), 0)
        isotropic_p = 0
        for sample, p_top, q_top in _isotropy_samplers(25):
            ps = [sample(d) for d in range(1, p_top + 1) for _ in range(2)]
            qs = []
            while len(qs) < 4:
                q = sample(2 + len(qs) % (q_top - 1))
                if is_anisotropic(q):
                    qs.append(q)
            by_rule = 0
            for p in ps:
                isotropic_p += not is_anisotropic(p)
                r = len(p.independent())
                for q in qs:
                    del fields_built[:]
                    got = is_isotropic_over(p, q)
                    assert got == (total_index_over(
                        p, function_field(q).tower) > total_index(p))
                    if 2 * r > 1 << len(p.field.base_vars):
                        branch = "A"
                    elif q.dim > 1 << (r - 1):
                        branch = "B"
                    else:
                        # where (C) runs, it decides by the neighbour test
                        neighbour = is_quasi_pfister_neighbor(
                            anisotropic_part(p)) is not None
                        branch = "C" if neighbour else "computed"
                    assert fields_built == (
                        [q] if branch == "computed" else [])
                    branches[branch] += 1
                    by_rule += branch == "C"
            assert by_rule, "(C) never ran on a sampler"
        assert isotropic_p and all(branches.values()), branches

    def test_a_settled_pair_builds_no_field(self, F, abc, fields_built,
                                            systems):
        a, b, c = abc
        one = F.one()
        big = QuasilinearForm(F, [one, a, b, c, a * b])
        small = QuasilinearForm(F, [one, a, b])
        built, _ = systems
        # (A): r = 5 > 2^(3-1); (B): r = 3, dim q = 5 > 2^(3-1)
        for p, q, answer in ((big, small, True), (small, big, False)):
            del built[:]
            assert is_isotropic_over(p, q) is answer
            assert fields_built == []
            assert all(tower.depth == 0 for tower, _ in built)
        # two anisotropic forms of dim > 2^(t-1) are stably equivalent
        other = QuasilinearForm(F, [a, b, c, b * c, a * b * c])
        assert decide_stably_equivalent(big, other)
        assert fields_built == []
        # (C), r = 4 and ndeg 4, which the Jacobian's rank 2 leaves open:
        # <<a,b>> stays anisotropic over k(<<a,c>>), as c is not in
        # N(<<a,b>>), and N(<a, b, c, abc>) = N(<<ab, ac>>) holds
        # N(<1, ab, ac>).  The systems rank q and p, take the one
        # saturation step past <<e_1, e_2>>, and test membership.
        for p, q, answer in (
                (quasi_pfister([a, b], F), quasi_pfister([a, c], F), False),
                (QuasilinearForm(F, [a, b, c, a * b * c]),
                 QuasilinearForm(F, [one, a * b, a * c]), True)):
            del built[:]
            assert is_isotropic_over(p, q) is answer
            assert fields_built == []
            assert [tower.depth for tower, _ in built] == [0] * 4
        # <1, a, b, c> has ndeg 8 = 2r, proved by the Jacobian: k(q) is
        # built once, with no saturation (the two depth-0 systems rank q
        # and p)
        p = QuasilinearForm(F, [one, a, b, c])
        q = quasi_pfister([a, b], F)
        del built[:]
        assert is_isotropic_over(p, q)
        assert fields_built == [q]
        assert sorted(tower.depth for tower, _ in built) == [0, 0, 1]
        assert {tower for tower, _ in built if tower.depth >= 1} == {
            function_field(q).tower}

    def test_errors_come_before_the_counts(self, F, abc):
        """q's errors are function_field's, and a q over another field
        raises ValueError before them."""
        a, b, c = abc
        one = F.one()
        # p settles by (A), p1 by (B), whatever q is
        p = QuasilinearForm(F, [one, a, b, c, a * b])
        p1 = QuasilinearForm(F, [a])
        line = QuasilinearForm(F, [b])
        isotropic = QuasilinearForm(F, [one, a, a * b ** 2])
        G = FieldTower.rational(("t",))
        for form in (p, p1):
            with pytest.raises(DimensionTooSmall,
                               match="function field needs dimension"):
                is_isotropic_over(form, line)
            with pytest.raises(IsotropicInput,
                               match="function field construction"):
                is_isotropic_over(form, isotropic)
            with pytest.raises(ValueError, match="different base fields"):
                is_isotropic_over(form, QuasilinearForm(G, [G.var("t")]))


class TestDomination:
    def test_equivalent(self, F, abc):
        a, b, _ = abc
        neighbor = QuasilinearForm(F, [F.one(), a, b])
        envelope = quasi_pfister([a, b], F)
        assert essdim_domination_check(neighbor, envelope) == \
            DominationVerdict.EQUIVALENT

    def test_strict_domination(self, F, abc):
        a, b, _ = abc
        small = QuasilinearForm(F, [F.one(), a])
        big = QuasilinearForm(F, [F.one(), a, b])
        assert essdim_domination_check(small, big) == \
            DominationVerdict.X_BELOW_Y
        assert essdim_domination_check(big, small) == \
            DominationVerdict.Y_BELOW_X

    def test_incomparable(self, F, abc):
        a, _, c = abc
        p = QuasilinearForm(F, [F.one(), a])
        q = QuasilinearForm(F, [F.one(), c])
        assert essdim_domination_check(p, q) == \
            DominationVerdict.INCOMPARABLE

    def test_never_inconsistent_on_samples(self):
        G = FieldTower.rational(("a", "b"))
        rng = random.Random(41)
        forms = []
        while len(forms) < 6:
            form, _ = sample_monomial_form(rng, G, rng.randrange(2, 5), 2)
            if is_anisotropic(form):
                forms.append(form)
        for x in forms:
            for y in forms:
                essdim_domination_check(x, y)


class TestStableAndBirationalEquivalence:
    def test_neighbors_of_same_envelope(self, F, abc):
        a, b, _ = abc
        p = QuasilinearForm(F, [F.one(), a, b])
        q = QuasilinearForm(F, [F.one(), a, a * b])
        assert decide_stably_equivalent(p, q)
        assert decide_birational(p, q)

    def test_neighbor_and_envelope_not_birational(self, F, abc):
        a, b, _ = abc
        neighbor = QuasilinearForm(F, [F.one(), a, b])
        envelope = quasi_pfister([a, b], F)
        assert decide_stably_equivalent(neighbor, envelope)
        assert not decide_birational(neighbor, envelope)

    def test_different_norm_fields_not_equivalent(self, F, abc):
        a, b, c = abc
        small = QuasilinearForm(F, [F.one(), a, b])
        big = quasi_pfister([a, b, c], F)
        assert not decide_stably_equivalent(small, big)

    def test_input_errors_do_not_depend_on_the_order(self, F, abc):
        a, b, c = abc
        isotropic = QuasilinearForm(F, [F.one(), a, a * b ** 2])
        line = QuasilinearForm(F, [a])
        G = FieldTower.rational(("t",))
        elsewhere = QuasilinearForm(G, [G.one(), G.var("t")])
        # the 5-dim form's isotropy is settled by its dimension alone
        for q in (QuasilinearForm(F, [F.one(), b]),
                  QuasilinearForm(F, [F.one(), a, b, c, a * b])):
            for bad, error in ((isotropic, IsotropicInput),
                               (line, DimensionTooSmall),
                               (elsewhere, ValueError)):
                with pytest.raises(error):
                    decide_stably_equivalent(bad, q)
                with pytest.raises(error):
                    decide_stably_equivalent(q, bad)


class TestRulings:
    def test_two_fold_decomposition(self, F, abc):
        a, b, _ = abc
        X = quasi_pfister([a, b], F)
        dec = construct_ruling(X)
        assert dec.r == 2
        assert dec.X == X
        assert dec.Y.dim == X.dim - (dec.r - 1)
        assert dec.Y.coeffs == X.coeffs[:3]
        assert len(dec.s_basis) == dec.r
        assert len(dec.psi.fibers) == dec.r
        assert dec.verify()

    def test_isotropic_basis_lies_on_x_over_ky(self, F, abc):
        a, b, _ = abc
        X = quasi_pfister([a, b], F)
        dec = construct_ruling(X)
        ffY = function_field(dec.Y)
        ext = X.over(ffY.tower)
        for vec in dec.s_basis:
            assert ext.evaluate(vec).is_zero

    def test_projection_is_an_isotropic_point(self, F, abc):
        a, b, _ = abc
        X = quasi_pfister([a, b], F)
        dec = construct_ruling(X)
        K = function_field(X).tower
        assert all(c.tower == K for c in dec.psi.pi)
        assert dec.Y.over(K).evaluate(dec.psi.pi).is_zero
        P = dec.phi[0].tower
        assert dec.X.over(P).evaluate(dec.phi).is_zero

    def test_not_ruled(self, F, abc):
        a, b, c = abc
        with pytest.raises(NotRuled):
            construct_ruling(QuasilinearForm(F, [F.one(), a, b, a * b, c]))
        G = FieldTower.rational(("t1", "t2", "t3"))
        with pytest.raises(NotRuled):
            construct_ruling(QuasilinearForm(
                G, [G.var("t1"), G.var("t2"), G.var("t3")]))

    def test_certificate_tampering_detected(self, F, abc):
        # the fibers are derived, so tampering moves s_i or pi: a basis
        # vector off X, pi off Y, or the basis out of order
        a, b, _ = abc
        X = quasi_pfister([a, b], F)
        dec = construct_ruling(X)
        cert = dec.certificate
        (s1, s2), pi = cert.s_basis, cert.pi
        off_x = (s1[0] + s1[0].tower.one(),) + s1[1:]
        off_y = pi[:1] + (pi[1] + pi[1].tower.one(),) + pi[2:]
        for s_basis, bad_pi in (((off_x, s2), pi), ((s1, s2), off_y),
                                ((s2, s1), pi)):
            assert not type(cert)(cert.X, cert.Y, s_basis, bad_pi).verify()
        assert cert.verify()

    def test_certificate_needs_one_fiber_per_basis_vector(self, F, abc):
        # one fiber is derived per basis vector, and r = X.dim - Y.dim + 1
        # vectors are needed: an extra or a missing one must not be
        # dropped by a zip
        a, b, _ = abc
        dec = construct_ruling(quasi_pfister([a, b], F))
        cert = dec.certificate
        assert len(cert.fibers) == len(cert.s_basis) == dec.r
        for s_basis in (cert.s_basis + (cert.s_basis[0],),
                        cert.s_basis[:1]):
            tampered = RulingCertificate(cert.X, cert.Y, s_basis, cert.pi)
            assert not tampered.verify()
            assert not RulingDecomposition(tampered).verify()
        assert cert.verify() and dec.verify()

    def test_ruling_over_a_base_with_an_inseparable_generator(self, F, abc):
        # the base generator z of k(Y) maps to itself in the pullback
        _, _, c = abc
        B = F.extend_inseparable(c, "z")
        X = quasi_pfister([B.var("a") * B.gen_by_name("z") + B.one(),
                           B.var("b")], B)
        dec = construct_ruling(X)
        assert dec.r == 2
        assert dec.verify()
        cert = dec.certificate
        pi = cert.pi
        off_y = pi[:1] + (pi[1] + pi[1].tower.one(),) + pi[2:]
        assert not type(cert)(cert.X, cert.Y, cert.s_basis, off_y).verify()

    def test_ruling_records_are_immutable(self, F, abc):
        a, b, _ = abc
        dec = construct_ruling(quasi_pfister([a, b], F))
        cert = dec.certificate
        for record, name in ((dec, "phi"), (dec, "certificate"),
                             (dec, "psi"), (dec, "r"), (cert, "fibers"),
                             (cert, "pi"), (cert, "s_basis")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert dec.verify()

    def test_decomposition_reads_its_data_off_the_certificate(self, F, abc):
        a, b, _ = abc
        dec = construct_ruling(quasi_pfister([a, b], F))
        cert = dec.certificate
        assert (dec.X, dec.Y, dec.s_basis) == (cert.X, cert.Y, cert.s_basis)
        assert dec.psi == FiberMap(cert.pi, cert.fibers)
        assert dec.r == len(cert.s_basis) == 2
        assert dec.phi == _ruling_map(cert.s_basis)
        assert len(dec.phi) == dec.X.dim

    def test_decomposition_of_a_tampered_certificate_fails(self, F, abc):
        # a projection moved off Y, or of the wrong length; a basis vector
        # off X still gives a phi, which is off X too, and only the
        # certificate says so
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        pi, (s1, s2) = cert.pi, cert.s_basis
        K = pi[0].tower
        off_y = pi[:1] + (pi[1] + K.var("a"),) + pi[2:]
        assert not cert.Y.over(K).evaluate(off_y).is_zero
        for bad_pi in (off_y, pi + (K.zero(),)):
            tampered = RulingCertificate(cert.X, cert.Y, cert.s_basis,
                                         bad_pi)
            assert not RulingDecomposition(tampered).verify()
        off_x = (s1[0] + s1[0].tower.one(),) + s1[1:]
        tampered = RulingCertificate(cert.X, cert.Y, (off_x, s2), pi)
        assert not tampered.verify()
        dec = RulingDecomposition(tampered)
        assert not dec.verify()
        assert not dec.X.over(dec.phi[0].tower).evaluate(dec.phi).is_zero

    def test_a_builder_bug_off_x_is_an_unverified_certificate(
            self, F, abc, monkeypatch):
        # the CLI reports certificate_verified false (exit 1), not an
        # input error
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        s1, s2 = cert.s_basis
        off_x = (s1, (s2[0] + s2[0].tower.one(),) + s2[1:])
        monkeypatch.setattr(cli, "construct_ruling", lambda X: (
            RulingDecomposition(RulingCertificate(
                cert.X, cert.Y, off_x, cert.pi))))
        script = parse("field F2(a, b, c); form x = <1, a, b, a*b>; "
                       "ruling x;")
        report = cli.run(script)
        (entry,) = report["results"]
        assert entry["ruled"] and entry["certificate_verified"] is False
        assert cli._assertions_failed(report)

    def test_one_ruling_map_per_ruling(self, F, abc, monkeypatch):
        calls = []
        real = birational._ruling_map

        def counted(s_basis):
            calls.append(s_basis)
            return real(s_basis)

        monkeypatch.setattr(birational, "_ruling_map", counted)
        a, b, c = abc
        for X in (quasi_pfister([a, b], F), QuasilinearForm(
                F, quasi_pfister([a, b, c], F).coeffs[:7])):
            del calls[:]
            dec = construct_ruling(X)
            assert dec.verify()
            assert calls == [dec.s_basis]
            del calls[:]
            script = parse("field F2(a, b, c); form x = <"
                           + ", ".join(str(k) for k in X.coeffs)
                           + ">; ruling x;")
            (report,) = cli.run(script, verify_certificates=True)["results"]
            assert report["certificate_verified"] and len(calls) == 1

    def test_certificate_rejects_a_projection_off_its_subquadric(
            self, F, abc):
        # pi moved off Y in one coordinate: the pull-back's hom rejects
        # y's relation at it, the one proof of Y(pi) = 0.  pi of the wrong
        # length, over another field, or outside Y's chart x_1 = 1
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        pi = cert.pi
        K = pi[0].tower
        ff_y = function_field(cert.Y)
        off_y = pi[:1] + (pi[1] + K.one(),) + pi[2:]
        assert not cert.Y.over(K).evaluate(off_y).is_zero
        with pytest.raises(EmbeddingFailure):
            _pull_basis(ff_y, cert.s_basis, off_y, K)
        # s_1 starts with Y's generic point over y: a zero of Y over k(Y)
        foreign = cert.s_basis[0][:cert.Y.dim]
        assert cert.Y.over(ff_y.tower).evaluate(foreign).is_zero
        for bad in (off_y, pi[:-1], pi + (K.zero(),), foreign,
                    (K.zero(),) + pi[1:]):
            assert not RulingCertificate(cert.X, cert.Y, cert.s_basis,
                                         bad).verify()
        assert cert.verify()

    def test_certificate_over_another_field_is_false(self, F, abc):
        # pi over the base field instead of k(X), and a basis over k(X)
        # instead of k(Y)
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        K = cert.pi[0].tower
        base_pi = tuple(F.one() for _ in cert.pi)
        over_kx = tuple(tuple(K.one() for _ in s) for s in cert.s_basis)
        for s_basis, pi in ((cert.s_basis, base_pi), (over_kx, cert.pi)):
            assert not RulingCertificate(cert.X, cert.Y, s_basis,
                                         pi).verify()

    def test_each_identity_is_proved_once(self, F, abc, monkeypatch):
        calls = []

        def recording(real):
            def spy(*args):
                calls.append((real.__name__, args))
                return real(*args)
            return spy

        # every binding in the library, as the tracer patches them
        for real in (birational._recombines, birational._pull_basis,
                     sqlinalg.square_combination_vanishes):
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "quasiform"
                        and getattr(module, real.__name__, None) is real):
                    monkeypatch.setattr(module, real.__name__,
                                        recording(real))
        # and every RationalMap built or verified, as the tracer's maps
        for method in ("__init__", "verify"):
            monkeypatch.setattr(RationalMap, method,
                                recording(getattr(RationalMap, method)))
        monkeypatch.setattr(sqlinalg._SquareBlocks, "verdict",
                            recording(sqlinalg._SquareBlocks.verdict))
        a, b, c = abc
        for X in (quasi_pfister([a, b], F), QuasilinearForm(
                F, quasi_pfister([a, b, c], F).coeffs[:7])):
            del calls[:]
            dec = construct_ruling(X)
            names = [name for name, _ in calls]
            # construction proves nothing: no map is built, the solves
            # check nothing, and the basis is not pulled back
            assert "square_combination_vanishes" not in names
            assert not {"__init__", "verify"} & set(names)
            assert "_pull_basis" not in names
            assert "_recombines" not in names
            # the verdicts over k(X) are the rank's steps on a_1..a_{n-1};
            # pi and the s_i take none
            towers = [args[0].tower for name, args in calls
                      if name == "verdict"]
            assert towers.count(dec.certificate.pi[0].tower) == X.dim - 2
            assert dec.s_basis[0][0].tower not in towers
            del calls[:]
            assert dec.verify()
            names = [name for name, _ in calls]
            # r isotropy proofs, one pull-back (whose hom is the one proof
            # of Y(pi) = 0), one recombination
            assert names.count("square_combination_vanishes") == dec.r
            assert names.count("_pull_basis") == 1
            assert names.count("_recombines") == 1
            assert not {"__init__", "verify"} & set(names)
            # the certificate keeps its pull-back: a second verify(), the
            # fibers and its repr take none
            del calls[:]
            assert dec.verify() and len(dec.psi.fibers) == dec.r
            repr(dec.certificate)
            assert "_pull_basis" not in [name for name, _ in calls]
            # a fresh certificate from the same data pulls back its own
            cert = dec.certificate
            del calls[:]
            fresh = RulingCertificate(cert.X, cert.Y, cert.s_basis, cert.pi)
            repr(fresh)
            assert not calls
            assert fresh.verify() and fresh.fibers == cert.fibers
            assert [name for name, _ in calls].count("_pull_basis") == 1
            # the CLI prints the fibers and then verifies: one pull-back
            del calls[:]
            script = parse("field F2(a, b, c); form x = <"
                           + ", ".join(str(k) for k in X.coeffs)
                           + ">; ruling x;")
            (report,) = cli.run(script, verify_certificates=True)["results"]
            assert report["certificate_verified"]
            names = [name for name, _ in calls]
            assert names.count("_pull_basis") == 1
            assert names.count("square_combination_vanishes") == dec.r
            assert names.count("_recombines") == 1

    def test_certificate_ranks_a_subquadric_built_by_its_caller(
            self, F, abc, ranked):
        a, b, _ = abc
        dec = construct_ruling(quasi_pfister([a, b], F))
        cert = dec.certificate
        del ranked[:]
        assert cert.verify()
        assert cert.Y.coeffs not in ranked
        fresh = QuasilinearForm(F, cert.Y.coeffs)
        assert RulingCertificate(cert.X, fresh, cert.s_basis,
                                 cert.pi).verify()
        assert ranked.count(fresh.coeffs) == 1

    def test_certificate_over_a_quadric_without_function_field_is_false(
            self, F, abc):
        # an isotropic or too small X or Y has no function field, and a Y
        # over another base field none that holds X: a bad certificate,
        # not an input error
        a, b, c = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        isotropic_y = QuasilinearForm(F, [F.one(), a, a * c.square()])
        isotropic_x = QuasilinearForm(F, [F.one(), a, b, a * c.square()])
        point = QuasilinearForm(F, [F.one()])
        G = FieldTower.rational(("p", "q"))
        foreign_y = QuasilinearForm(G, [G.one(), G.var("p"), G.var("q")])
        for X, Y in ((cert.X, isotropic_y), (cert.X, point),
                     (isotropic_x, cert.Y), (point, cert.Y),
                     (cert.X, foreign_y)):
            assert not RulingCertificate(X, Y, cert.s_basis,
                                         cert.pi).verify()

    def test_certificate_naming_a_variable_outside_k_x_is_false(
            self, F, abc):
        # z s_2 is still a zero of X over k(Y), so the check reaches the
        # pull-back, whose hom has no image for z: a bad certificate, not
        # an error
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        s_1, s_2 = cert.s_basis
        T = s_2[0].tower
        z = TowerElem(T, {0: RatFn.from_poly(Poly.variable("z", ("z",)))})
        stray = (s_1, tuple(c * z for c in s_2))
        assert not RulingCertificate(cert.X, cert.Y, stray,
                                     cert.pi).verify()

    def test_a_projection_scaled_by_a_fraction_verifies(self, F, abc):
        # pi is a projective point: pi times a fraction gives the same
        # field map, and the fibers derived from its pull-back absorb the
        # factor, denominators and all
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        assert any(not c.den.is_one
                   for f in cert.fibers for c in f.coeffs.values())
        K = cert.pi[0].tower
        lam = K.var("b") * (K.var("a") + K.one()).invert()
        scaled = RulingCertificate(cert.X, cert.Y, cert.s_basis,
                                   tuple(c * lam for c in cert.pi))
        assert scaled.verify() and cert.verify()
        assert scaled.fibers != cert.fibers

    def test_a_pull_back_zero_where_its_fiber_is_read_is_false(
            self, F, abc, monkeypatch):
        # out of order, each t_i is 0 at d-1+i, where its fiber is read:
        # the fibers raise ZeroElement, verify() says False, and the
        # failed pull-back is not kept
        a, b, _ = abc
        cert = construct_ruling(quasi_pfister([a, b], F)).certificate
        d = cert.Y.dim
        swapped = RulingCertificate(cert.X, cert.Y, cert.s_basis[::-1],
                                    cert.pi)
        assert all(s[d - 1 + i].is_zero
                   for i, s in enumerate(swapped.s_basis))
        with pytest.raises(ZeroElement):
            swapped.fibers
        pulls = []
        real = birational._pull_basis
        monkeypatch.setattr(birational, "_pull_basis",
                            lambda *args: pulls.append(1) or real(*args))
        assert not swapped.verify()
        assert not swapped.verify()
        assert len(pulls) == 2

    def test_input_errors_of_the_first_witt_index(self, F, abc):
        a, _, _ = abc
        with pytest.raises(DimensionTooSmall, match="first Witt index"):
            construct_ruling(QuasilinearForm(F, [a]))
        with pytest.raises(IsotropicInput, match="first Witt index"):
            construct_ruling(QuasilinearForm(F, [a, a]))


def _sampled_scaled_pfister2(rng, field):
    """A 2-fold quasi-Pfister form with independent monomial slots of
    exponent <= 2, scaled by a monomial of exponent <= 1."""
    nvars = len(field.base_vars)
    while True:
        slots = [tuple(rng.randint(0, 2) for _ in range(nvars))
                 for _ in range(2)]
        if parity_rank(slots) == 2:
            break
    products = [(0,) * nvars]
    for slot in slots:
        products += [exponent_add(p, slot) for p in products]
    scale = tuple(rng.randint(0, 1) for _ in range(nvars))
    return monomial_form(field, [exponent_add(p, scale) for p in products])


def _recombines_at_points(dec, rng, tries=6):
    """Check g_d(P) s_1(Q) + ... + g_(d+r-1)(P) s_r(Q) = g(P) at points P
    of k(X), with g X's generic point, d = dim Y, and Q = pi(P) read in
    Y's chart (x_1 = 1); return how many points were checked.  s_i is 1
    at coordinate d-1+i and 0 at X's other last r, so this is the
    certificate's identity, the f_i t_i being g_(d-1+i) (s_i o pi), read
    at P by evaluation alone: neither `_pull_basis` nor TowerHom is used.
    A point where a denominator or pi's first coordinate vanishes is
    skipped."""
    ff_x, ff_y = function_field(dec.X), function_field(dec.Y)
    d = dec.Y.dim
    checked = 0
    for _ in range(tries):
        P = tower_point(ff_x.tower, rng)
        try:
            g = [eval_elem(x, P) for x in ff_x.generic_point]
            pi = [eval_elem(x, P) for x in dec.psi.pi]
            inv = gf_inv(pi[0])
            Q = {v: P[v] for v in dec.X.field.base_vars}
            Q.update(zip(ff_y.fresh_names, (gf_mul(x, inv) for x in pi[1:])))
            s = [[eval_elem(x, Q) for x in s_i] for s_i in dec.s_basis]
        except ZeroDivisionError:
            continue
        combo = [0] * len(g)
        for g_i, s_i in zip(g[d - 1:], s):
            for j, x in enumerate(s_i):
                combo[j] ^= gf_mul(g_i, x)
        assert combo == g
        checked += 1
    return checked


def _assert_each_identity_holds_in_full(dec):
    """The ruling's records against the full computation, which neither
    construction nor verify() makes: X vanishes on phi over its own tower,
    and Y on pi, each form evaluated at the coordinates themselves.  The
    certificate proves only X(s_i) = 0 for each i, and Y(pi) = 0 through
    its pull-back's hom; phi follows by RulingDecomposition's identity.
    With any one s_i moved off X, verify() and the check on phi both
    fail."""
    P = dec.phi[0].tower
    assert square_combination_vanishes(dec.phi, dec.X.over(P).coeffs)
    K = dec.psi.pi[0].tower
    assert square_combination_vanishes(dec.psi.pi, dec.Y.over(K).coeffs)
    cert = dec.certificate
    for i, s in enumerate(cert.s_basis):
        # X(s + e_1) = X(s) + a_1
        off_x = (s[0] + s[0].tower.one(),) + s[1:]
        tampered = RulingDecomposition(RulingCertificate(
            cert.X, cert.Y, cert.s_basis[:i] + (off_x,)
            + cert.s_basis[i + 1:], cert.pi))
        assert not tampered.verify()
        P = tampered.phi[0].tower
        assert not square_combination_vanishes(tampered.phi,
                                               dec.X.over(P).coeffs)


class TestFibersReadOffTheBasis:
    """The certificate derives the fibers from one coordinate of each
    pulled-back vector; the full linear solve over k(X) is the oracle."""

    @staticmethod
    def solved_fibers(dec):
        ff_x = function_field(dec.X)
        pulled = _pull_basis(function_field(dec.Y), dec.s_basis,
                             dec.psi.pi, ff_x.tower)
        return tower_linear_solve(pulled, list(ff_x.generic_point))

    def assert_fibers_match_the_solve(self, X):
        dec = construct_ruling(X)
        assert list(dec.psi.fibers) == self.solved_fibers(dec)
        assert dec.verify()
        _assert_each_identity_holds_in_full(dec)
        return dec

    def test_sampled_two_fold_forms(self):
        G = FieldTower.rational(("a", "b", "c", "d"))
        rng = random.Random(2006)
        for _ in range(4):
            self.assert_fibers_match_the_solve(
                _sampled_scaled_pfister2(rng, G))

    def test_neighbours_of_a_three_fold_form(self, F, abc):
        a, b, c = abc
        pfister3 = quasi_pfister([a, b, c], F).coeffs
        for dim, r in ((6, 2), (7, 3)):
            X = QuasilinearForm(F, pfister3[:dim])
            assert self.assert_fibers_match_the_solve(X).r == r

    def test_reordered_neighbours_of_a_three_fold_form(self, F, abc):
        # the linear solve over k(X) takes minutes on some orders of a
        # 3-fold form's coefficients, so the oracle is the full pull read
        # at d-1+i, and verify() checks every coordinate; both replay
        # `_pull_basis`, and the identity at points replays neither
        a, b, c = abc
        pfister3 = quasi_pfister([a, b, c], F).coeffs
        rng = random.Random(3)
        points = random.Random(5)
        for _ in range(10):
            coeffs = list(pfister3)
            rng.shuffle(coeffs)
            dec = construct_ruling(QuasilinearForm(F, coeffs[:7]))
            ff_x = function_field(dec.X)
            pulled = _pull_basis(function_field(dec.Y), dec.s_basis,
                                 dec.psi.pi, ff_x.tower)
            j = dec.Y.dim - 1
            assert list(dec.psi.fibers) == [
                ff_x.generic_point[j + i] / t[j + i]
                for i, t in enumerate(pulled)]
            assert dec.verify()
            assert _recombines_at_points(dec, points) >= 4

    def test_coefficients_with_denominators(self, F, abc):
        a, b, _ = abc
        X = QuasilinearForm(F, [a.invert(), b, b / a, F.one()])
        dec = self.assert_fibers_match_the_solve(X)
        assert any(not c.den.is_one
                   for f in dec.psi.fibers for c in f.coeffs.values())

    def test_base_with_an_inseparable_generator(self, F, abc):
        _, _, c = abc
        B = F.extend_inseparable(c, "z")
        self.assert_fibers_match_the_solve(
            quasi_pfister([B.var("a") * B.gen_by_name("z") + B.one(),
                           B.var("b")], B))

    def test_construction_makes_no_linear_solve(self, F, abc, monkeypatch):
        calls = []
        real = tower_linear_solve

        def recording(columns, rhs):
            calls.append(len(columns))
            return real(columns, rhs)

        # every binding of the solver in the library, as the tracer does
        patched = [name for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "quasiform"
                   and getattr(module, "tower_linear_solve", None) is real]
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "tower_linear_solve",
                                recording)
        assert "quasiform.sqlinalg" in patched
        a, b, c = abc
        dec = construct_ruling(quasi_pfister([a, b], F))
        construct_ruling(QuasilinearForm(
            F, quasi_pfister([a, b, c], F).coeffs[:7]))
        assert dec.verify()
        assert calls == []


def _sampled_scaled_pfister3(rng, field):
    """The products of three square-free monomial slots of independent
    parities, times a square-free monomial: the exponents of the
    coefficients of a scaled 3-fold quasi-Pfister form."""
    nvars = len(field.base_vars)
    while True:
        slots = [tuple(rng.randint(0, 1) for _ in range(nvars))
                 for _ in range(3)]
        if parity_rank(slots) == 3:
            break
    products = [(0,) * nvars]
    for slot in slots:
        products += [exponent_add(p, slot) for p in products]
    scale = tuple(rng.randint(0, 1) for _ in range(nvars))
    return [exponent_add(p, scale) for p in products]


class TestRulingReadsKnownRelations:
    """Each vector of a ruling is one relation over a prefix of
    coefficients known to be independent; the greedy kernel search over
    all coefficients is the reference."""

    @staticmethod
    def assert_matches_the_kernel(X):
        dec = construct_ruling(X)
        assert [list(s) for s in dec.s_basis] == isotropic_kernel_basis(
            X, function_field(dec.Y).tower)
        assert list(dec.psi.pi) == isotropic_kernel_basis(
            dec.Y, function_field(X).tower)[0]
        _assert_each_identity_holds_in_full(dec)
        return dec

    def test_forms_of_the_ruling_goldens(self):
        ruled = 0
        for name in sorted(n for n in SCRIPTS if n.startswith("ruling")):
            texts = SCRIPTS[name]
            for text in texts if isinstance(texts, tuple) else (texts,):
                script = parse(text)
                for command in script.commands:
                    X = script.form_by_name(command.args[0]).form
                    if first_witt_index(X) > 1:
                        self.assert_matches_the_kernel(X)
                        ruled += 1
        assert ruled == 8

    def test_monomial_forms_over_four_variables(self):
        G = FieldTower.rational(("a", "b", "c", "d"))
        rng = random.Random(2006)
        for _ in range(3):
            self.assert_matches_the_kernel(_sampled_scaled_pfister2(rng, G))
            coeffs = _sampled_scaled_pfister3(rng, G)
            for dim, r in ((6, 2), (7, 3)):
                dec = self.assert_matches_the_kernel(
                    monomial_form(G, coeffs[:dim]))
                assert dec.r == r

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scaled_two_fold_forms_over_a_tower(self, seed):
        K, _, _, element = tower_sampler(seed, 1)
        while True:
            X = quasi_pfister([element(1), element(1)], K).scale(element(1))
            if is_anisotropic(X):
                break
        assert self.assert_matches_the_kernel(X).r == 2

    def test_each_vector_takes_one_solve(self, F, abc, monkeypatch):
        solves, kernels, systems = [], [], []

        def recording(real, calls):
            def spy(*args):
                calls.append(args)
                return real(*args)
            return spy

        # every binding in the library, as the tracer patches them
        for real, calls in ((_elim.solve, solves),
                            (sqlinalg.kernel_from_coefficients, kernels)):
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "quasiform"
                        and getattr(module, real.__name__, None) is real):
                    monkeypatch.setattr(module, real.__name__,
                                        recording(real, calls))
        build = sqlinalg._SquareBlocks.__init__
        monkeypatch.setattr(sqlinalg._SquareBlocks, "__init__",
                            lambda blocks, columns: systems.append(columns)
                            or build(blocks, columns))
        a, b, c = abc
        pfister3 = quasi_pfister([a, b, c], F)
        for X, r in ((quasi_pfister([a, b], F), 2),
                     (QuasilinearForm(F, pfister3.coeffs[:7]), 3),
                     (pfister3, 4)):
            for calls in (solves, kernels, systems):
                del calls[:]
            dec = construct_ruling(X)
            assert dec.r == r
            assert len(solves) == r
            assert kernels == []
            # one system over k(Y), without Y's last coefficient, and over
            # k(X) only the one X's rank built
            L = function_field(dec.Y).tower
            last = dec.Y.over(L).coeffs[-1]
            over_ky = [columns for columns in systems
                       if columns[0][0].tower == L]
            assert len(over_ky) == 1
            assert all(last not in column
                       for columns in over_ky for column in columns)
            K = dec.psi.pi[0].tower
            assert len([columns for columns in systems
                        if columns[0][0].tower == K]) == 1


class TestUniqueSelfMap:
    def test_generic_form_has_unique_map(self):
        G = FieldTower.rational(("t1", "t2", "t3"))
        q = QuasilinearForm(G, [G.var("t1"), G.var("t2"), G.var("t3")])
        assert unique_self_map_check(q)

    def test_pfister_form_has_many(self, F, abc):
        a, b, _ = abc
        assert not unique_self_map_check(quasi_pfister([a, b], F))

    def test_matches_first_witt_index(self, F, abc):
        a, b, c = abc
        for q in (QuasilinearForm(F, [F.one(), a, b, a * b, c]),
                  QuasilinearForm(F, [a, b]),
                  quasi_pfister([a, b], F)):
            assert unique_self_map_check(q) == (first_witt_index(q) == 1)


class TestRegularity:
    def test_five_dim_not_regular(self, F, abc):
        a, b, c = abc
        report = is_regular_quadric(
            QuasilinearForm(F, [F.one(), a, b, a * b, c]))
        assert report.regular == FROZEN["five_dim"]["regular"]
        assert not report.coefficient_products_independent
        assert report.differentials_independent is False
        assert report.generic_splitting is False
        assert not report

    def test_four_dim_regular(self, F, abc):
        a, b, c = abc
        report = is_regular_quadric(QuasilinearForm(F, [F.one(), a, b, c]))
        assert report.regular
        assert report.coefficient_products_independent
        assert report.differentials_independent
        assert report.generic_splitting
        assert report

    def test_report_ignores_how_a_coefficient_was_built(self, F, abc):
        a, b, c = abc
        # `a` as a polynomial declared over ("a",) alone, then lifted
        narrow = F.scalar(Poly.variable("a", ("a",)))
        report = is_regular_quadric(
            QuasilinearForm(F, [narrow, b, c, F.one()]))
        assert report == is_regular_quadric(
            QuasilinearForm(F, [a, b, c, F.one()]))
        assert report.regular
        assert report.coefficient_products_independent
        assert report.differentials_independent
        assert report.generic_splitting

    def test_generic_forms_regular(self):
        for n in (2, 3, 4):
            G = FieldTower.rational(tuple(f"t{i}" for i in range(1, n + 1)))
            q = QuasilinearForm(G, [G.var(f"t{i}")
                                    for i in range(1, n + 1)])
            assert is_regular_quadric(q).regular

    def test_square_coefficient_not_regular(self, F, abc):
        a, _, _ = abc
        report = is_regular_quadric(QuasilinearForm(F, [F.one(), a ** 2]))
        assert not report.regular

    def test_dimension_one_is_regular(self, F, abc):
        a, _, _ = abc
        assert is_regular_quadric(QuasilinearForm(F, [a])).regular

    def test_splitting_pattern_agrees_with_the_products_test(self, F):
        """The products test stands for the splitting test: on seeded
        forms the pattern is (n, n-1, ..., 1) exactly when the report
        says regular."""
        rng = random.Random(31)
        answers = set()
        for dim in range(1, 7):
            for _ in range(6):
                q = (sample_monomial_form(rng, F, dim, 3)[0]
                     if rng.random() < 0.5 else sample_form(rng, F, dim))
                scaled = q.scale(q.coeffs[-1].invert())
                dims = splitting_pattern(scaled).dims
                assert karpenko_violations(dims) == []
                generic = dims == tuple(range(dim, 0, -1))
                report = is_regular_quadric(q)
                assert report.coefficient_products_independent == generic
                assert report.generic_splitting == generic
                answers.add((dim, generic))
        assert {d for d, regular in answers if regular} == {1, 2, 3, 4}
        assert {d for d, regular in answers if not regular} >= {2, 3, 4, 5, 6}

    def test_over_extension_tower_partial_conditions(self, F, abc):
        # over a tower with generators the Jacobian and generic conditions
        # do not apply; only the product condition is evaluated
        a, b, _ = abc
        K = F.extend_inseparable(a * b + F.one(), "y")
        q = QuasilinearForm(K, [K.one(), K.var("a"), K.var("b")])
        report = is_regular_quadric(q)
        assert report.differentials_independent is None
        assert report.generic_splitting is None
        assert report.regular == report.coefficient_products_independent
