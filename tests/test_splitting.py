"""Function fields of quadrics, splitting patterns, and Witt indices,
checked against hand-derived frozen values and structural properties."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasiform import cli, dsl, splitting
from quasiform.birational import construct_ruling
from quasiform.errors import DimensionTooSmall, IsotropicInput, NotRuled
from quasiform.fieldtower import FieldTower
from quasiform.forms import (
    QuasilinearForm,
    anisotropic_part,
    is_anisotropic,
    total_index,
)
from quasiform.pfister import quasi_pfister
from quasiform.splitting import (
    check_hl_bound,
    essential_dimension,
    first_witt_index,
    function_field,
    hl_bound,
    over_own_function_field,
    splitting_pattern,
    total_index_over,
)
from quasiform.sqlinalg import tower_square_root

from oracles import (
    FROZEN,
    sample_monomial_form,
    sample_poly_elem,
    tower_sampler,
)


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b", "c"))


def pfister2(F):
    return quasi_pfister([F.var("a"), F.var("b")], F)


class TestFunctionField:
    def test_generic_point_is_isotropic(self, F):
        q = pfister2(F)
        ff = function_field(q)
        assert q.over(ff.tower).evaluate(ff.generic_point).is_zero
        assert len(ff.generic_point) == q.dim
        assert ff.generic_point[0].is_one

    def test_tower_shape(self, F):
        q = pfister2(F)
        ff = function_field(q)
        assert ff.tower.depth == F.depth + 1
        assert len(ff.tower.base_vars) == len(F.base_vars) + q.dim - 2
        assert len(ff.fresh_names) == q.dim - 1

    def test_deterministic(self, F):
        q = pfister2(F)
        ff1 = function_field(q)
        ff2 = function_field(q)
        assert ff1.tower == ff2.tower
        assert ff1.generic_point == ff2.generic_point
        assert ff1.fresh_names == ff2.fresh_names

    def test_dimension_one_rejected(self, F):
        with pytest.raises(DimensionTooSmall):
            function_field(QuasilinearForm(F, [F.var("a")]))

    def test_isotropic_rejected(self, F):
        a = F.var("a")
        with pytest.raises(IsotropicInput):
            function_field(QuasilinearForm(F, [a, a ** 3]))

    def test_binary_form_adds_no_transcendentals(self, F):
        q = QuasilinearForm(F, [F.one(), F.var("a")])
        ff = function_field(q)
        assert ff.tower.base_vars == F.base_vars
        assert ff.tower.depth == 1


def _monomial(field, exps):
    term = field.one()
    for var, e in zip(field.base_vars, exps):
        term = term * field.var(var) ** e
    return term


_exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_depth2_coeff = st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
             min_size=1, max_size=2),
    st.sampled_from(("1", "b+1", "a+b")),
    st.integers(0, 3))


class TestAnisotropicBuilder:
    """function_field proves anisotropy once, through the rank the form
    owns, and tests nothing else.  The facts it does not check at run time
    are checked here: theta has no square root in the tower below it, the
    generic point is a zero of q, and a ranked form and a fresh, unranked
    copy of it build the same tower."""

    def _check(self, q):
        assume(is_anisotropic(q))
        ff = function_field(q)
        tower = ff.tower
        below = FieldTower(tower.base_vars, tower.gens[:-1],
                           tower.depth_limit)
        theta = below.element(tower.theta(tower.depth - 1))
        assert tower_square_root(theta) is None
        assert q.over(tower).evaluate(ff.generic_point).is_zero
        assert function_field(QuasilinearForm(q.field, q.coeffs)) == ff

    @given(st.lists(_exps, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_monomial_forms(self, exps):
        F = FieldTower.rational(("a", "b", "c"))
        self._check(QuasilinearForm(F, [_monomial(F, e) for e in exps]))

    @given(st.lists(_exps, min_size=2, max_size=4), _exps,
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_binomial_forms(self, exps, extra, slot):
        F = FieldTower.rational(("a", "b", "c"))
        coeffs = [_monomial(F, e) for e in exps]
        slot %= len(coeffs)
        coeffs[slot] = coeffs[slot] + _monomial(F, extra)
        assume(not coeffs[slot].is_zero)
        self._check(QuasilinearForm(F, coeffs))

    @given(st.lists(_depth2_coeff, min_size=2, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_forms_over_a_depth_two_tower_with_denominators(self, spec):
        F = FieldTower.rational(("a", "b"))
        a, b, one = F.var("a"), F.var("b"), F.one()
        K1 = F.extend_inseparable(a * (b + one).invert(), "y")
        theta = K1.var("b") * (K1.var("a") + K1.one()).invert()
        K = K1.extend_inseparable(theta, "z")
        a, b, one = K.var("a"), K.var("b"), K.one()
        y, z = K.gen_by_name("y"), K.gen_by_name("z")
        dens = {"1": one, "b+1": b + one, "a+b": a + b}
        coeffs = []
        for terms, den, mask in spec:
            num = K.zero()
            for i, j in terms:
                num = num + a ** i * b ** j
            assume(not num.is_zero)
            coeffs.append(num * dens[den].invert()
                          * (y if mask & 1 else one)
                          * (z if mask & 2 else one))
        self._check(QuasilinearForm(K, coeffs))


class TestRankOverExtensions:
    def test_rank_is_not_inherited_through_over(self, F, ranked):
        q = pfister2(F)
        assert is_anisotropic(q)
        ff = function_field(q)
        assert ranked == [q.coeffs]
        over = q.over(ff.tower)
        assert total_index(over) == 2
        assert total_index_over(q, ff.tower) == 2
        assert first_witt_index(q) == 2
        assert ranked[1] == over.coeffs
        # over the form's own field `over` is the form itself
        assert q.over(F) is q


class TestWittIndices:
    def test_frozen_pfister2(self, F):
        q = pfister2(F)
        assert splitting_pattern(q).dims == FROZEN["pfister2"]["pattern"]
        assert first_witt_index(q) == FROZEN["pfister2"]["i1"]
        assert essential_dimension(q) == \
            FROZEN["pfister2"]["essential_dimension"]

    def test_frozen_pfister3(self, F):
        q = quasi_pfister([F.var("a"), F.var("b"), F.var("c")], F)
        assert splitting_pattern(q).dims == FROZEN["pfister3"]["pattern"]
        assert first_witt_index(q) == FROZEN["pfister3"]["i1"]
        assert essential_dimension(q) == \
            FROZEN["pfister3"]["essential_dimension"]

    def test_frozen_five_dim(self, F):
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        q = QuasilinearForm(F, [F.one(), a, b, a * b, c])
        assert first_witt_index(q) == FROZEN["five_dim"]["i1"]
        assert is_anisotropic(q) == FROZEN["five_dim"]["anisotropic"]

    def test_frozen_neighbor(self, F):
        a, b = F.var("a"), F.var("b")
        q = QuasilinearForm(F, [F.one(), a, b])
        assert splitting_pattern(q).dims == \
            FROZEN["three_dim_neighbor"]["pattern"]
        assert first_witt_index(q) == FROZEN["three_dim_neighbor"]["i1"]

    def test_generic_forms(self):
        for n in (2, 3, 4):
            G = FieldTower.rational(tuple(f"t{i}" for i in range(1, n + 1)))
            q = QuasilinearForm(G, [G.var(f"t{i}")
                                    for i in range(1, n + 1)])
            assert splitting_pattern(q).dims == FROZEN["generic"][n]
            assert first_witt_index(q) == 1

    def test_pattern_of_isotropic_form_starts_at_kernel(self, F):
        a = F.var("a")
        q = QuasilinearForm(F, [a, a ** 3, F.var("b")])
        assert splitting_pattern(q).dims == (2, 1)

    def test_total_index_over_function_field(self, F):
        q = pfister2(F)
        assert total_index(q) == 0
        ff = function_field(q)
        assert total_index_over(q, ff.tower) == 2
        # a foreign form keeps its anisotropy over an unrelated field
        other = QuasilinearForm(F, [F.one(), F.var("c")])
        assert total_index_over(other, ff.tower) == 0


class TestHLBound:
    def test_values(self):
        assert hl_bound(2) == 1
        assert hl_bound(3) == 1
        assert hl_bound(4) == 2
        assert hl_bound(5) == 1
        assert hl_bound(6) == 2
        assert hl_bound(8) == 4
        assert hl_bound(9) == 1
        with pytest.raises(DimensionTooSmall):
            hl_bound(1)

    def test_bound_holds_on_samples(self):
        F = FieldTower.rational(("a", "b"))
        rng = random.Random(91)
        checked = 0
        while checked < 15:
            dim = rng.randrange(2, 6)
            form, _ = sample_monomial_form(rng, F, dim, 2)
            if not is_anisotropic(form):
                continue
            assert check_hl_bound(form)
            checked += 1

    def test_pfister_forms_attain_the_bound(self, F):
        q = pfister2(F)
        assert first_witt_index(q) == hl_bound(q.dim)


def _own_field_forms():
    """Anisotropic forms: monomial and binomial ones of dim 2-6 over
    F2(a,b,c), and fractions times generator monomials of dim 2-5 over the
    depth-1 and depth-2 towers of `tower_sampler`, the first anisotropic
    one of each dimension."""
    F = FieldTower.rational(("a", "b", "c"))
    forms = []
    for dim in range(2, 7):
        rng = random.Random(dim)
        for binomial in (False, False, True, True):
            while True:
                q, _ = sample_monomial_form(rng, F, dim, 3)
                if binomial:
                    coeffs = list(q.coeffs)
                    slot = rng.randrange(dim)
                    coeffs[slot] += sample_poly_elem(rng, F, 3, 1)
                    if coeffs[slot].is_zero:
                        continue
                    q = QuasilinearForm(F, coeffs)
                if is_anisotropic(q):
                    forms.append(q)
                    break
    for dim in range(2, 6):
        for depth in (1, 2):
            K, _, _, element = tower_sampler(dim, depth)
            while True:
                q = QuasilinearForm(K, [element(1) for _ in range(dim)])
                if is_anisotropic(q):
                    forms.append(q)
                    break
    return forms


def _old_pattern(q):
    """The splitting pattern with every level ranked in full."""
    current = anisotropic_part(q)
    dims = [current.dim]
    while current.dim >= 2:
        current = anisotropic_part(current.over(function_field(current).tower))
        dims.append(current.dim)
    return tuple(dims)


class TestOverOwnFunctionField:
    """q over k(q) is ranked without its last coefficient, which the
    generic point proves dependent.  The shortcut must give the full rank
    and every invariant that reads it."""

    def test_rule_and_invariants_equal_the_full_rank(self, ranked):
        shapes, indices = set(), set()
        for q in _own_field_forms():
            ff, over = over_own_function_field(q)
            assert over is not q and over.field == ff.tower
            assert ff == function_field(q)
            # the old formula: q.over(k(q)) ranked in all its coefficients,
            # as total_index_over(q, function_field(q).tower) ranks it
            full = q.over(ff.tower)
            assert over.independent() == full.independent()
            assert ranked[-1] == full.coeffs
            old_i1 = q.dim - len(full.independent())
            # the caller's form keeps its own rank
            assert q.independent() == q.coeffs
            old_pattern = (q.dim,) + _old_pattern(anisotropic_part(full))
            assert splitting_pattern(q).dims == old_pattern
            assert first_witt_index(q) == old_i1
            assert essential_dimension(q) == (q.dim - 2) - (old_i1 - 1)
            if old_i1 < 2:
                with pytest.raises(NotRuled):
                    construct_ruling(q)
            else:
                assert construct_ruling(q).r == old_i1
            shapes.add((q.field.depth, q.dim))
            indices.add(old_i1)
        assert shapes == ({(0, n) for n in range(2, 7)}
                          | {(d, n) for d in (1, 2) for n in range(2, 6)})
        assert {1, 2} <= indices

    def test_errors_are_those_of_the_first_witt_index(self, F):
        a = F.var("a")
        with pytest.raises(DimensionTooSmall,
                           match="first Witt index needs dimension >= 2, "
                                 "got 1"):
            over_own_function_field(QuasilinearForm(F, [a]))
        with pytest.raises(IsotropicInput,
                           match="first Witt index expects an anisotropic"):
            over_own_function_field(QuasilinearForm(F, [a, a ** 3]))


@pytest.fixture
def levels(monkeypatch):
    """(form, function field) for every function field built."""
    out = []
    build = splitting.function_field

    def recording(q):
        ff = build(q)
        out.append((q, ff))
        return ff

    monkeypatch.setattr(splitting, "function_field", recording)
    return out


def _generic(n):
    G = FieldTower.rational(tuple(f"t{i}" for i in range(1, n + 1)))
    return QuasilinearForm(G, [G.var(f"t{i}") for i in range(1, n + 1)])


class TestOwnFieldSystems:
    """The systems that rank a form over its own function field: none has
    the form's last coefficient as a column, the splitting pattern builds
    a field only for its levels of dim >= 4, and the first Witt index of a
    dim-d form takes d - 2 greedy steps."""

    def test_splitting_pattern_never_ranks_the_last_coefficient(
            self, F, systems, levels):
        built, _ = systems
        for q in (_generic(5), pfister2(F), _generic(3), _generic(2),
                  QuasilinearForm(F, [F.one(), F.var("a"), F.var("b")])):
            del built[:], levels[:]
            dims = splitting_pattern(q).dims
            assert [p.dim for p, _ in levels] == [d for d in dims if d >= 4]
            if q.dim <= 3:
                # no field built, so no system over any field but q's own
                assert {tower for tower, _ in built} <= {q.field}
            for p, ff in levels:
                last = p.field.embed(p.coeffs[-1], ff.tower)
                own = [cols for tower, cols in built if tower == ff.tower]
                assert all(last not in cols for cols in own)
                assert [len(cols) for cols in own] == [p.dim - 1]

    def test_first_witt_index_takes_dim_minus_two_steps(
            self, F, systems):
        built, steps = systems
        for q in [_generic(n) for n in (2, 3, 4, 5)] + [pfister2(F)]:
            q.independent()
            del built[:], steps[:]
            first_witt_index(q)
            assert len(steps) == q.dim - 2
            assert len(built) == (q.dim > 2)


def _pattern_built_to_the_end(q):
    """The splitting pattern with a function field built at every level
    down to dimension <= 1, none of it read off the dimension."""
    current = anisotropic_part(q)
    dims = [current.dim]
    while current.dim >= 2:
        current = anisotropic_part(over_own_function_field(current)[1])
        dims.append(current.dim)
    return tuple(dims)


def _random_anisotropic(field, sample, dims, per_dim):
    """`per_dim` anisotropic forms of each dimension in `dims`, with
    coefficients drawn by `sample()`."""
    forms = []
    for dim in dims:
        found = 0
        while found < per_dim:
            q = QuasilinearForm(field, [sample() for _ in range(dim)])
            if is_anisotropic(q):
                forms.append(q)
                found += 1
    return forms


class TestForcedTail:
    """From an anisotropic part of dim 3 on, splitting_pattern reads the
    pattern off the dimension.  Building every level's function field
    instead, as `_pattern_built_to_the_end` does, gives the same pattern,
    so every dim-2 and dim-3 level it builds has first Witt index 1."""

    def _check(self, forms):
        tails = set()
        for q in forms:
            built = _pattern_built_to_the_end(q)
            assert splitting_pattern(q).dims == built
            tails.update(d for d in built if 2 <= d <= 3)
        return tails

    def test_generic_and_pfister_forms(self, F):
        forms = [_generic(n) for n in range(2, 7)]
        forms += [pfister2(F),
                  quasi_pfister([F.var("a"), F.var("b"), F.var("c")], F)]
        assert self._check(forms) == {2, 3}

    def test_invariants_tower_inputs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from qbench.workloads import WORKLOADS

        queries = itertools.islice(WORKLOADS["invariants-tower"].timed(3), 60)
        forms = [dsl.parse(query.payload).forms[0].form for query in queries]
        assert {q.dim for q in forms} == {3, 4}
        assert self._check(forms) == {2, 3}

    def test_random_forms_over_the_rational_field(self, F):
        rng = random.Random(21)
        forms = _random_anisotropic(
            F, lambda: sample_poly_elem(rng, F, 3, 2), range(2, 6), 3)
        assert self._check(forms) == {2, 3}

    def test_random_forms_over_a_depth_one_tower(self):
        K, _, _, element = tower_sampler(21, depth=1)
        forms = _random_anisotropic(K, lambda: element(1), range(2, 6), 2)
        assert self._check(forms) == {2, 3}


def test_invariants_tower_queries_pass_their_oracle(monkeypatch):
    """The benchmark's own `invariants-tower` inputs, monomial forms of dim
    3 and 4, through dsl.parse and cli.run, each answer checked by its
    oracle.  Their splitting patterns build one function field at most,
    for a dim-4 form; the rest of each pattern is forced."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from qbench.oracles import check_invariants
    from qbench.workloads import WORKLOADS

    patterns = set()
    dim4_norm_degrees = set()
    for query in itertools.islice(WORKLOADS["invariants-tower"].timed(3), 60):
        answer = cli.run(dsl.parse(query.payload))["results"][0]
        assert check_invariants([c for (c,) in query.coeffs], answer) == []
        patterns.add(tuple(answer["splitting_pattern"]))
        if len(query.coeffs) == 4:
            dim4_norm_degrees.add(answer["norm_degree"])
    assert {len(p) for p in patterns} >= {3, 4}
    assert {p[0] for p in patterns} == {3, 4}
    # a dim-4 form is the one case where norm_degree still decides a
    # doubling (e_3 in <<e_1, e_2>> or not), so the oracle checks both
    assert dim4_norm_degrees == {4, 8}
