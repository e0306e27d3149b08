"""Linear algebra over the subfield of squares: rank, membership
certificates, nullspaces, and span saturation, cross-checked against the
exponent-parity oracle and by direct arithmetic on the certificates."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasiform import _elim, _gfnum, gf2poly, sqlinalg
from quasiform.errors import ZeroGenerator
from quasiform.fieldtower import FieldTower
from quasiform.gf2poly import Poly, RatFn, common_denominator
from quasiform.sqlinalg import (
    SquareRelation,
    clear_denominators,
    greedy_independent,
    isotropic_kernel_basis,
    k2_membership,
    k2_rank,
    kernel_from_coefficients,
    solve_square_system,
    span_saturate,
    square_combination,
    square_combination_vanishes,
    square_nullspace,
    square_nullspace_multi,
    square_system_solvable,
    tower_linear_solve,
    tower_square_root,
)
from quasiform.forms import QuasilinearForm

from oracles import (
    monomial_total_index,
    numeric_rank,
    parity_rank,
    sample_monomial_exponents,
    sample_monomial_form,
)


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b"))


def monomial_of(field, exps):
    term = field.one()
    for var, e in zip(field.base_vars, exps):
        term = term * field.var(var) ** e
    return term


class TestRankAgainstParityOracle:
    def test_hand_cases(self, F):
        a, b = F.var("a"), F.var("b")
        one = F.one()
        assert k2_rank([one, a, b, a * b])[0] == 4
        assert k2_rank([one, a.square()])[0] == 1
        assert k2_rank([a, a ** 3])[0] == 1
        assert k2_rank([a * b, a ** 3 * b])[0] == 1
        assert k2_rank([one, a, a.square() + a])[0] == 2

    def test_random_monomials_match_parity_classes(self, F):
        rng = random.Random(101)
        for _ in range(60):
            dim = rng.randrange(1, 7)
            exps = [sample_monomial_exponents(rng, 2, 4)
                    for _ in range(dim)]
            gens = [monomial_of(F, e) for e in exps]
            rank, basis = k2_rank(gens)
            assert rank == dim - monomial_total_index(exps)
            assert len(basis) == rank

    def test_rank_in_extension_tower(self, F):
        # over K = F(y), y^2 = ab: a*b becomes a square, dropping the rank
        a, b = F.var("a"), F.var("b")
        K = F.extend_inseparable(a * b, "y")
        one = F.one()
        gens = [one, a, b, a * b]
        assert k2_rank(gens)[0] == 4
        ext = [F.embed(g, K) for g in gens]
        assert k2_rank(ext)[0] == 2

    def test_zero_generator_rejected(self, F):
        with pytest.raises(ZeroGenerator):
            greedy_independent([F.one(), F.zero()])
        with pytest.raises(ZeroGenerator):
            k2_rank([])


class TestOneGenerator:
    """One nonzero generator is independent, so neither greedy rank builds
    a square system for it; a zero one is rejected as before."""

    @pytest.fixture(autouse=True)
    def no_system(self, monkeypatch):
        def refuse(columns):
            raise AssertionError("built a square system")

        monkeypatch.setattr(sqlinalg, "_SquareBlocks", refuse)

    def test_k2_rank_of_one_nonzero_generator(self, F):
        a = F.var("a") * (F.var("b") + F.one()).invert()
        assert k2_rank([a]) == (1, [a])

    def test_greedy_independent_of_one_nonzero_generator(self, F):
        assert greedy_independent([F.var("a")]) == ([0], {})

    def test_k2_rank_of_one_zero_generator(self, F):
        with pytest.raises(ZeroGenerator, match="^generator 0 is zero$"):
            k2_rank([F.zero()])

    def test_greedy_independent_of_one_zero_generator(self, F):
        with pytest.raises(ZeroGenerator, match="^generator 0 is zero$"):
            greedy_independent([F.zero()])


def _per_step_rank(gens):
    """Rank by a fresh system for every greedy step, each scaled only by
    the denominators of the generators it holds."""
    indep = [gens[0]]
    for g in gens[1:]:
        if not square_system_solvable(indep, g):
            indep.append(g)
    return len(indep)


_TOWER_ROOTS = ("1", "a", "1/b", "a/(b+1)", "y/a")
_monomial_exps = st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(0, 2))
_tower_elem = st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
             min_size=1, max_size=2),
    st.sampled_from(("1", "b+1", "a+b")),
    st.integers(0, 1))
_tower_combo = st.tuples(st.sampled_from(_TOWER_ROOTS),
                         st.sampled_from(_TOWER_ROOTS))


class TestBlockBuiltRank:
    """k2_rank and greedy_independent select columns from one system built
    for all generators; the rank must match the parity oracle and the
    per-step systems it replaced."""

    @given(st.lists(_monomial_exps, min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_monomial_forms_match_parity_oracle(self, exps):
        F = FieldTower.rational(("a", "b", "c"))
        gens = [monomial_of(F, e) for e in exps]
        rank = k2_rank(gens)[0]
        assert rank == len(greedy_independent(gens)[0])
        assert rank == len(exps) - monomial_total_index(exps)
        assert rank == _per_step_rank(gens)

    @given(st.lists(st.one_of(_tower_elem, _tower_combo),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_tower_with_denominators_matches_per_step_systems(self, spec):
        F = FieldTower.rational(("a", "b"))
        a, b = F.var("a"), F.var("b")
        K = F.extend_inseparable(a * (b + F.one()).invert(), "y")
        a, b, y, one = K.var("a"), K.var("b"), K.gen(0), K.one()
        roots = {"1": one, "a": a, "1/b": b.invert(),
                 "a/(b+1)": a * (b + one).invert(), "y/a": y * a.invert()}
        dens = {"1": one, "b+1": b + one, "a+b": a + b}
        gens = []
        for item in spec:
            if isinstance(item[0], str):
                # a combination over squares of the first two generators
                if len(gens) < 2:
                    continue
                g = (roots[item[0]].square() * gens[0]
                     + roots[item[1]].square() * gens[1])
            else:
                terms, den, mask = item
                num = K.zero()
                for i, j in terms:
                    num = num + a ** i * b ** j
                g = num * dens[den].invert() * (y if mask else one)
            if not g.is_zero:
                gens.append(g)
        assume(gens)
        rank, basis = k2_rank(gens)
        indep, relations = greedy_independent(gens)
        assert rank == len(indep) == _per_step_rank(gens)
        assert basis == [gens[i] for i in indep]
        assert sorted(indep + list(relations)) == list(range(len(gens)))
        assert all(rel.verify() for rel in relations.values())


class TestOneGreedyLoop:
    """greedy_independent takes its independent indices from the one
    greedy rank loop k2_rank runs, and solves only for the dependent
    generators."""

    def test_relations_are_solved_for_dependent_generators_only(
            self, F, monkeypatch):
        calls = {"build": 0, "solvable": 0, "solve": []}
        build = sqlinalg._SquareBlocks.__init__
        solvable = sqlinalg._SquareBlocks.solvable
        solve = sqlinalg._SquareBlocks.solve

        def building(blocks, columns):
            calls["build"] += 1
            build(blocks, columns)

        def deciding(blocks, cols, target):
            calls["solvable"] += 1
            return solvable(blocks, cols, target)

        def solving(blocks, cols, target):
            calls["solve"].append((list(cols), target))
            return solve(blocks, cols, target)

        monkeypatch.setattr(sqlinalg._SquareBlocks, "__init__", building)
        monkeypatch.setattr(sqlinalg._SquareBlocks, "solvable", deciding)
        monkeypatch.setattr(sqlinalg._SquareBlocks, "solve", solving)
        a, b = F.var("a"), F.var("b")
        gens = [F.one(), a, a ** 3, b, a * b.square()]
        indep, relations = greedy_independent(gens)
        assert calls == {"build": 1, "solvable": 4,
                         "solve": [([0, 1], 2), ([0, 1, 3], 4)]}
        assert indep == [0, 1, 3]
        assert sorted(relations) == [2, 4]
        assert relations[2].roots == [F.zero(), a]
        assert relations[4].roots == [F.zero(), b, F.zero()]
        assert k2_rank(gens) == (3, [gens[i] for i in indep])


    def test_one_verdict_per_generator(self, F, monkeypatch):
        # the greedy step has decided each dependent generator solvable,
        # so its relation is solved exactly without a second verdict
        verdicts = []
        real = _gfnum.numeric_verdict

        def counting(rows, ncols):
            verdicts.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(_gfnum, "numeric_verdict", counting)
        a, b = F.var("a"), F.var("b")
        gens = [F.one(), a, a ** 3, b, a * b.square()]
        indep, relations = greedy_independent(gens)
        assert len(verdicts) == 4
        assert indep == [0, 1, 3]
        assert relations[2].roots == [F.zero(), a]
        assert relations[4].roots == [F.zero(), b, F.zero()]


class TestSystemsWithoutRows:
    """A system whose blocks hold no nonzero entry has no rows; every
    unknown is free, so the solvers return zeros."""

    def test_solve_square_system_of_zeros(self, F):
        assert solve_square_system([F.zero()], F.zero()) == [F.zero()]

    def test_membership_of_zero_in_the_span_of_zero(self, F):
        rel = k2_membership(F.zero(), [F.zero()])
        assert rel is not None and rel.verify()
        assert rel.roots == [F.zero()]

    def test_tower_linear_solve_of_zeros(self, F):
        assert tower_linear_solve([[F.zero()]], [F.zero()]) == [F.zero()]


class TestMembershipCertificates:
    def test_found_relation_verifies(self, F):
        a, b = F.var("a"), F.var("b")
        one = F.one()
        # a^2 + b^2 = 1^2*(a^2+b^2); also a^3 = a^2 * a
        rel = k2_membership(a ** 3, [a])
        assert rel is not None and rel.verify()
        assert rel.target == a ** 3
        target = a.square() * b + one
        rel = k2_membership(target, [b, one])
        assert rel is not None
        acc = F.zero()
        for c, g in zip(rel.roots, rel.generators):
            acc = acc + c.square() * g
        assert acc == target

    def test_absent_relation(self, F):
        a, b = F.var("a"), F.var("b")
        assert k2_membership(b, [F.one(), a]) is None
        assert k2_membership(a * b, [a, b]) is None

    def test_membership_with_rational_roots(self, F):
        a, b = F.var("a"), F.var("b")
        # b = (b/a)^2 * a^2/b ... pick target in span with fraction roots
        target = a * b.invert()
        rel = k2_membership(target, [a * b])
        assert rel is not None and rel.verify()

    def test_tampered_relation_fails(self, F):
        a, b = F.var("a"), F.var("b")
        target = a.square() * b + F.one()
        rel = k2_membership(target, [b, F.one()])
        assert rel is not None and rel.verify()
        roots = list(rel.roots)
        rel.target = target + F.one()
        assert not rel.verify()
        rel.target = target
        assert rel.verify()
        for i in range(len(roots)):
            rel.roots[i] = roots[i] + F.one()
            assert not rel.verify()
            rel.roots[i] = roots[i]
        assert rel.verify()
        rel.roots.pop()
        assert not rel.verify()

    def test_constructor_rejects_false_relation(self, F):
        a, b = F.var("a"), F.var("b")
        SquareRelation(a ** 3, [a], [a])
        SquareRelation(F.zero(), [], [])
        with pytest.raises(AssertionError):
            SquareRelation(a, [], [])
        with pytest.raises(AssertionError):
            SquareRelation(a ** 3, [a], [b])
        with pytest.raises(AssertionError):
            SquareRelation(a.square() * b + F.one(), [b, F.one()],
                           [a, F.zero()])


class TestNullspaceAndKernels:
    def test_square_nullspace_annihilates(self, F):
        a = F.var("a")
        vectors = square_nullspace([a, a ** 3, a ** 5])
        assert vectors, "dependent list must have nontrivial nullspace"
        for vec in vectors:
            acc = F.zero()
            for c, g in zip(vec, [a, a ** 3, a ** 5]):
                acc = acc + c.square() * g
            assert acc.is_zero

    def test_square_nullspace_is_a_basis_over_the_rational_base(self):
        """Over a depth-s tower the vectors are a basis over F, not over
        the tower: 2^s times the kernel's dimension dim - rank, which is
        what kernel_from_coefficients returns."""
        F = FieldTower.rational(("a", "b", "c"))
        a, b, c = (F.var(n) for n in "abc")
        K = F.extend_inseparable(a, "y")
        L = K.extend_inseparable(F.embed(b, K), "z")

        def over(field, *elems):
            return [F.embed(e, field) for e in elems]

        y = K.gen(0)
        for gens, depth, kernel_dim in (
                ([F.one(), a, a * b, a ** 3], 0, 1),
                (over(K, F.one(), a, b) + [y * F.embed(b, K)], 1, 1),
                (over(L, F.one(), a, b, c), 2, 2)):
            vectors = square_nullspace(gens)
            assert len(kernel_from_coefficients(gens)) == kernel_dim
            assert len(vectors) == 2 ** depth * kernel_dim
            for vec in vectors:
                assert square_combination(vec, gens).is_zero

    def test_empty_system_has_no_kernel_to_return(self, F):
        # no equation fixes no set of unknowns; no unknowns give the zero
        # kernel, and a proved zero kernel is [] as well
        with pytest.raises(ValueError, match="at least one equation"):
            square_nullspace_multi([])
        assert square_nullspace_multi([[]]) == []
        assert square_nullspace([]) == []
        a, b = F.var("a"), F.var("b")
        assert square_nullspace_multi([[F.one(), a, b]]) == []

    def test_kernel_matches_total_index(self, F):
        rng = random.Random(55)
        for _ in range(25):
            dim = rng.randrange(2, 6)
            form, exps = sample_monomial_form(rng, F, dim, 3)
            kernel = kernel_from_coefficients(form.coeffs)
            assert len(kernel) == monomial_total_index(exps)
            for vec in kernel:
                value = form.evaluate(vec)
                assert value.is_zero

    def test_kernel_vectors_numerically_independent(self, F):
        rng = random.Random(77)
        a, b = F.var("a"), F.var("b")
        form = QuasilinearForm(F, [a, a ** 3, a * b ** 2, b])
        kernel = kernel_from_coefficients(form.coeffs)
        assert len(kernel) == 2
        assert numeric_rank(kernel, F, rng) == 2

    def test_isotropic_kernel_basis_over_extension(self, F):
        a, b = F.var("a"), F.var("b")
        q = QuasilinearForm(F, [F.one(), a, b, a * b])
        assert isotropic_kernel_basis(q) == []
        K = F.extend_inseparable(a, "y")
        vecs = isotropic_kernel_basis(q, K)
        assert len(vecs) == 2
        ext = q.over(K)
        for vec in vecs:
            assert ext.evaluate(vec).is_zero


class TestSolvers:
    def test_solve_square_system(self, F):
        a, b = F.var("a"), F.var("b")
        target = a ** 3 + a * b ** 2
        roots = solve_square_system([a], target)
        assert roots is not None
        assert roots[0].square() * a == target
        assert solve_square_system([a], b) is None

    def test_tower_square_root(self, F):
        a, b = F.var("a"), F.var("b")
        x = a * b + F.one()
        assert tower_square_root(x.square()) == x
        assert tower_square_root(a) is None
        assert tower_square_root(F.zero()).is_zero
        K = F.extend_inseparable(a, "y")
        ax = F.embed(a, K)
        assert tower_square_root(ax) == K.gen_by_name("y")

    def test_tower_linear_solve(self, F):
        a, b = F.var("a"), F.var("b")
        one, zero = F.one(), F.zero()
        cols = [[one, a], [zero, b]]
        rhs = [one + a, a + a * b + b]
        sol = tower_linear_solve(cols, rhs)
        assert sol is not None
        x, y = sol
        assert x * one + y * zero == rhs[0]
        assert x * a + y * b == rhs[1]

    def test_tower_linear_solve_no_solution(self, F):
        a = F.var("a")
        one, zero = F.one(), F.zero()
        cols = [[one, zero]]
        assert tower_linear_solve(cols, [one, a]) is None

    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linear_solve_roundtrip(self, seed1, seed2):
        F = FieldTower.rational(("a", "b"))
        rng = random.Random(seed1 * 4096 + seed2)
        ncols, nrows = rng.randrange(1, 4), rng.randrange(1, 4)
        cols = [[monomial_of(F, sample_monomial_exponents(rng, 2, 2))
                 for _ in range(nrows)] for _ in range(ncols)]
        weights = [monomial_of(F, sample_monomial_exponents(rng, 2, 2))
                   for _ in range(ncols)]
        rhs = [F.zero() for _ in range(nrows)]
        for w, col in zip(weights, cols):
            rhs = [r + w * e for r, e in zip(rhs, col)]
        sol = tower_linear_solve(cols, rhs)
        assert sol is not None
        recomputed = [F.zero() for _ in range(nrows)]
        for s, col in zip(sol, cols):
            recomputed = [r + s * e for r, e in zip(recomputed, col)]
        assert recomputed == rhs


def _saturate_pairwise(field, elements):
    """The pairwise saturation span_saturate used before the doubling
    loop: adjoin new elements, then products of basis pairs until closed."""
    basis = [field.one()]
    for e in elements:
        if not e.is_zero and k2_membership(e, basis) is None:
            basis.append(e)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for i in range(1, len(snapshot)):
            for j in range(i, len(snapshot)):
                prod = snapshot[i] * snapshot[j]
                if k2_membership(prod, basis) is None:
                    basis.append(prod)
                    changed = True
    return basis


_depth2_elem = st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
             min_size=1, max_size=2),
    st.sampled_from(("1", "b+1", "a+b")),
    st.integers(0, 3))


class TestSpanSaturate:
    """span_saturate adjoins one element at a time and doubles the span:
    the basis has 2^k elements in binary counter order."""

    def test_quasi_pfister_span(self, F):
        a, b = F.var("a"), F.var("b")
        span = span_saturate(F, [a, b])
        assert len(span) == 4
        rel = k2_membership(a * b, span)
        assert rel is not None

    def test_closed_under_products(self, F):
        a, b = F.var("a"), F.var("b")
        span = span_saturate(F, [a + b, a * b])
        for i in range(len(span)):
            for j in range(len(span)):
                assert k2_membership(span[i] * span[j], span) is not None

    def test_degenerate_inputs(self, F):
        a = F.var("a")
        assert len(span_saturate(F, [])) == 1
        assert len(span_saturate(F, [a.square()])) == 1
        assert len(span_saturate(F, [F.zero(), a])) == 2

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_monomial_degree_matches_parity_rank(self, exps):
        F = FieldTower.rational(("a", "b", "c", "d"))
        span = span_saturate(F, [monomial_of(F, e) for e in exps])
        assert len(span) == 2 ** parity_rank(exps)

    def test_binary_counter_order(self, F):
        a, b = F.var("a"), F.var("b")
        span = span_saturate(F, [a, a ** 3, b, a * b])
        assert span == [F.one(), a, b, b * a]

    @given(st.lists(_depth2_elem, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_depth_two_tower_matches_pairwise_saturation(self, spec):
        F = FieldTower.rational(("a", "b"))
        a, b, one = F.var("a"), F.var("b"), F.one()
        K1 = F.extend_inseparable(a * (b + one).invert(), "y")
        theta = K1.var("b") * (K1.var("a") + K1.one()).invert()
        K = K1.extend_inseparable(theta, "z")
        a, b, one = K.var("a"), K.var("b"), K.one()
        y, z = K.gen_by_name("y"), K.gen_by_name("z")
        dens = {"1": one, "b+1": b + one, "a+b": a + b}
        elems = []
        for terms, den, mask in spec:
            num = K.zero()
            for i, j in terms:
                num = num + a ** i * b ** j
            e = num * dens[den].invert()
            elems.append(e * (y if mask & 1 else one)
                         * (z if mask & 2 else one))
        span = span_saturate(K, elems)
        old = _saturate_pairwise(K, elems)
        assert len(span) == len(old)
        assert all(square_system_solvable(old, x) for x in span)
        assert all(square_system_solvable(span, x) for x in old)
        for x in span:
            for w in span:
                assert square_system_solvable(span, x * w)


def _rational_base():
    F = FieldTower.rational(("a", "b", "c"))
    a, b, c, one = F.var("a"), F.var("b"), F.var("c"), F.one()
    dens = (one, b + one, a + c, a * b + one)
    return F, dens, (one,)


def _depth_two_tower():
    F = FieldTower.rational(("a", "b"))
    a, b, one = F.var("a"), F.var("b"), F.one()
    K1 = F.extend_inseparable(a * (b + one).invert(), "y")
    theta = K1.var("b") * (K1.var("a") + K1.one()).invert()
    K = K1.extend_inseparable(theta, "z")
    a, b, one = K.var("a"), K.var("b"), K.one()
    y, z = K.gen_by_name("y"), K.gen_by_name("z")
    return K, (one, b + one, a + b, a * b + one), (one, y, z, y * z)


_TOWERS = {"F2(a,b,c)": _rational_base, "depth 2": _depth_two_tower}

# (monomial exponents, denominator index, generator monomial index)
_fraction = st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
    st.integers(0, 3), st.integers(0, 3))


def _build(K, dens, monos, spec):
    terms, den, mono = spec
    names = K.base_vars
    num = K.zero()
    for i, j in terms:
        num = num + K.var(names[0]) ** i * K.var(names[-1]) ** j
    return num * dens[den].invert() * monos[mono % len(monos)]


class TestChecksOnClearedRoots:
    """Every identity check in the tower runs on roots cleared of
    denominators; it must decide exactly what the check on the roots
    themselves decides."""

    @pytest.mark.parametrize("tower", sorted(_TOWERS))
    @given(pairs=st.lists(st.tuples(_fraction, _fraction), min_size=1,
                          max_size=3),
           closing=_fraction, close=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_vanishing_matches_the_direct_sum(self, tower, pairs, closing,
                                              close):
        K, dens, monos = _TOWERS[tower]()
        roots = [_build(K, dens, monos, r) for r, _ in pairs]
        gens = [_build(K, dens, monos, g) for _, g in pairs]
        if close:
            # one more term r^2 * g that cancels the whole sum
            r = _build(K, dens, monos, closing)
            assume(not r.is_zero)
            gens.append(square_combination(roots, gens) * r.square().invert())
            roots.append(r)
        direct = square_combination(roots, gens).is_zero
        assert square_combination_vanishes(roots, gens) == direct
        assert direct or not close

    @pytest.mark.parametrize("tower", sorted(_TOWERS))
    @given(pairs=st.lists(st.tuples(_fraction, _fraction), min_size=1,
                          max_size=3),
           error=_fraction)
    @settings(max_examples=30, deadline=None)
    def test_relation_check_matches_the_direct_sum(self, tower, pairs,
                                                   error):
        K, dens, monos = _TOWERS[tower]()
        roots = [_build(K, dens, monos, r) for r, _ in pairs]
        gens = [_build(K, dens, monos, g) for _, g in pairs]
        # an error term of zero leaves a true relation
        target = square_combination(roots, gens) + _build(K, dens, monos,
                                                          error)
        holds = square_combination(roots, gens) == target
        try:
            SquareRelation(target, gens, roots)
            built = True
        except AssertionError:
            built = False
        assert built == holds

    @pytest.mark.parametrize("tower", sorted(_TOWERS))
    @given(specs=st.lists(_fraction, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_clearing_takes_no_gcd_and_keeps_the_values(self, tower, specs):
        K, dens, monos = _TOWERS[tower]()
        elems = [_build(K, dens, monos, spec) for spec in specs]
        den = common_denominator(c for e in elems for c in e.coeffs.values())
        scaled = [e.scale(RatFn.from_poly(den)) for e in elems]
        cancels = []
        real = gf2poly._cancel

        def counting(p, q):
            cancels.append((p, q))
            return real(p, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2poly, "_cancel", counting)
            cleared = clear_denominators(elems)
        assert cancels == []
        assert cleared == scaled
        assert all(c.den.is_one for e in cleared for c in e.coeffs.values())

    def test_relation_with_a_target_in_another_tower_is_false(self, F):
        a, b = F.var("a"), F.var("b")
        target = a.square() * b + F.one()
        rel = k2_membership(target, [b, F.one()])
        assert rel is not None and rel.verify()
        G = F.extend_transcendental(("t",))
        rel.target = F.embed(target, G)
        assert not rel.verify()
        rel.target = target
        rel.roots[0] = F.embed(rel.roots[0], G)
        assert not rel.verify()


def _depth_one_tower():
    F = FieldTower.rational(("a", "b"))
    a, b, one = F.var("a"), F.var("b"), F.one()
    K = F.extend_inseparable(a * (b + one).invert(), "y")
    a, b, one = K.var("a"), K.var("b"), K.one()
    return K, (one, b + one, a + b, a * b + one), (one, K.gen(0))


def _cleared_per_equation(columns):
    """The columns with each equation's row scaled by one common base
    scalar, so that no entry has a denominator."""
    rows = [clear_denominators(list(row)) for row in zip(*columns)]
    return [tuple(col) for col in zip(*rows)]


def _decisions(blocks, ngens):
    """Every decision on the system of the first `ngens` columns, with the
    last column as target and without one: the witness verdicts, exact
    elimination's answers, and the roots it solves for."""
    cols = range(ngens)
    ncols = ngens * blocks.nmasks
    with_target = blocks.rows(cols, ngens)
    without = blocks.rows(cols)
    return (blocks.verdict(with_target, cols, ngens),
            blocks.verdict(without, cols),
            _elim.solvable(blocks.system(with_target, cols, ngens), ncols),
            len(_elim.nullspace(blocks.system(without, cols), ncols)),
            blocks.solve(cols, ngens))


class TestDenominatorsInSquareBlocks:
    """_SquareBlocks clears each (equation, mu) component by one common
    denominator of its own; columns with denominators must decide and
    solve exactly as the same columns cleared per equation first."""

    @pytest.mark.parametrize("tower", ["F2(a,b,c)", "depth 1"])
    @given(specs=st.lists(st.tuples(_fraction, _fraction), min_size=1,
                          max_size=3),
           roots=st.lists(_fraction, min_size=3, max_size=3),
           error=_fraction)
    @settings(max_examples=30, deadline=None)
    def test_same_decisions_as_cleared_columns(self, tower, specs, roots,
                                               error):
        K, dens, monos = {"F2(a,b,c)": _rational_base,
                          "depth 1": _depth_one_tower}[tower]()
        columns = [tuple(_build(K, dens, monos, s) for s in spec)
                   for spec in specs]
        assume(any(not g.is_zero for col in columns for g in col))
        rs = [_build(K, dens, monos, r) for r in roots]
        # a target in the span of the columns, off it by an error term
        target = tuple(
            square_combination(rs, [col[e] for col in columns])
            + _build(K, dens, monos, error) for e in range(2))
        columns.append(target)
        ngens = len(specs)
        assert (_decisions(sqlinalg._SquareBlocks(columns), ngens)
                == _decisions(
                    sqlinalg._SquareBlocks(_cleared_per_equation(columns)),
                    ngens))
