"""Function fields of quadrics, splitting patterns, and Witt indices,
checked against hand-derived frozen values and structural properties."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quasiform import cli, dsl, splitting, sqlinalg
from quasiform.birational import construct_ruling
from quasiform.errors import DimensionTooSmall, IsotropicInput, NotRuled
from quasiform.fieldtower import FieldTower
from quasiform.forms import (
    QuasilinearForm,
    anisotropic_part,
    is_anisotropic,
    total_index,
)
from quasiform.pfister import norm_degree, quasi_pfister
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
    karpenko_violations,
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

    def test_a_form_keeps_its_function_field(self, F):
        # built once per form object; an equal fresh form builds its own
        q = pfister2(F)
        ff = function_field(q)
        assert function_field(q) is ff
        fresh = QuasilinearForm(F, q.coeffs)
        assert fresh._function_field is None
        assert function_field(fresh) == ff
        assert function_field(fresh) is not ff

    def test_a_form_without_function_field_raises_on_every_call(self, F):
        a = F.var("a")
        for q, error in ((QuasilinearForm(F, [a, a ** 3]), IsotropicInput),
                         (QuasilinearForm(F, [a]), DimensionTooSmall)):
            for _ in range(2):
                with pytest.raises(error):
                    function_field(q)
            assert q._function_field is None

    def test_forms_made_from_a_form_start_without_its_field(self, F):
        q = pfister2(F)
        ff = function_field(q)
        a = F.var("a")
        for derived in (q.subform(range(3)), q.over(ff.tower),
                        q.scale(a), anisotropic_part(q)):
            assert derived is not q
            assert derived._function_field is None
        sub = q.subform(range(3))
        assert function_field(sub) is not ff

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
            assert karpenko_violations(splitting_pattern(form).dims) == []
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
            assert karpenko_violations(old_pattern) == []
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


def _over_t5(*monomials):
    """The form over F2(t1..t5) whose coefficients are the products of the
    variables t_i with i in each tuple."""
    G = FieldTower.rational(tuple(f"t{i}" for i in range(1, 6)))
    coeffs = []
    for indices in monomials:
        c = G.one()
        for i in indices:
            c = c * G.var(f"t{i}")
        coeffs.append(c)
    return QuasilinearForm(G, coeffs)


class TestOwnFieldSystems:
    """The systems that rank a form over its own function field: none has
    the form's last coefficient as a column, the splitting pattern builds
    a field exactly for the levels its norm-degree bounds leave open, and
    the first Witt index of a dim-d form takes d - 2 greedy steps."""

    def test_splitting_pattern_never_ranks_the_last_coefficient(
            self, F, systems, levels):
        built, _ = systems
        # (form, its pattern, the dims of its levels the bounds leave
        # open): <1, t1, ..., t5, t1t2> has norm degree 32, and its levels
        # of (dim, norm degree) (7, 32), (6, 16) and (5, 8) are open,
        # (4, 4) is not
        cases = [(_over_t5((), (1,), (2,), (3,), (4,), (5,), (1, 2)),
                  (7, 6, 5, 4, 2, 1), [7, 6, 5]),
                 (_over_t5((), (1,), (2,), (3,), (4,), (1, 2), (1, 3)),
                  (7, 6, 4, 2, 1), [7, 6]),
                 (_generic(5), (5, 4, 3, 2, 1), []),
                 (pfister2(F), (4, 2, 1), []),
                 (_generic(3), (3, 2, 1), []),
                 (_generic(2), (2, 1), []),
                 (QuasilinearForm(F, [F.one(), F.var("a"), F.var("b")]),
                  (3, 2, 1), [])]
        for q, pattern, open_dims in cases:
            del built[:], levels[:]
            assert splitting_pattern(q).dims == pattern
            assert [p.dim for p, _ in levels] == open_dims
            if not open_dims:
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
    down to dimension <= 1, none of it read off a norm degree, and the
    norm degree of every level, each saturated over its own field."""
    current = anisotropic_part(q)
    dims, degrees = [current.dim], [norm_degree(current)[0]]
    while current.dim >= 2:
        current = anisotropic_part(over_own_function_field(current)[1])
        dims.append(current.dim)
        degrees.append(norm_degree(current)[0])
    return tuple(dims), degrees


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


def _anisotropic_over_abcd(rng, dim, binomials):
    """An anisotropic form of the given dim over F2(a,b,c,d): monomials
    from distinct parity classes times random squares, with `binomials`
    of them, never the first, given a second random term.  (The oracle
    saturates each level over its own function field, normalized by the
    first coefficient; with a binomial there it can run for minutes.)"""
    F = FieldTower.rational(("a", "b", "c", "d"))
    classes = rng.sample(list(itertools.product((0, 1), repeat=4)), dim)
    while True:
        coeffs = []
        for parity in classes:
            c = F.one()
            for var, e in zip(F.base_vars, parity):
                c = c * F.var(var) ** (e + 2 * rng.randrange(2))
            coeffs.append(c)
        for slot in rng.sample(range(1, dim), binomials):
            coeffs[slot] = coeffs[slot] + sample_poly_elem(rng, F, 2, 1)
        if all(not c.is_zero for c in coeffs):
            q = QuasilinearForm(F, coeffs)
            if is_anisotropic(q):
                return q


class TestForcedTail:
    """splitting_pattern reads each level whose norm-degree bounds meet
    off the bounds, and builds a field for every other one.  The pattern
    built field by field agrees, and each level it builds satisfies the
    bounds max(1, d - ndeg/2) <= i_1 <= d - log2(ndeg), the halving of the
    norm degree, and the quasilinear form of Karpenko's bound
    i_1 - 1 < 2^v_2(d - i_1).  Every dim-2 and dim-3 level has i_1 = 1,
    and every pattern ends in levels the bounds fix."""

    def _check(self, forms, levels):
        """The dims of 2 and 3 among the levels, and the number of levels
        the bounds fixed and left open."""
        tails, pinned, built = set(), 0, 0
        for q in forms:
            dims, degrees = _pattern_built_to_the_end(q)
            del levels[:]
            pattern = splitting_pattern(q)
            assert pattern.dims == dims
            assert pattern.norm_degree == degrees[0]
            assert karpenko_violations(dims) == []
            open_dims = []
            for d, after, degree, after_degree in zip(dims, dims[1:],
                                                      degrees, degrees[1:]):
                i1, k = d - after, degree.bit_length() - 1
                low, high = max(1, d - degree // 2), d - k
                assert low <= i1 <= high
                assert after_degree == degree // 2
                if low < high:
                    open_dims.append(d)
            # a field for each open level and none for the others
            assert [p.dim for p, _ in levels] == open_dims
            tails.update(d for d in dims if 2 <= d <= 3)
            built += len(open_dims)
            pinned += len(dims) - 1 - len(open_dims)
        return tails, pinned, built

    def test_generic_and_pfister_forms(self, F, levels):
        forms = [_generic(n) for n in range(2, 7)]
        forms += [pfister2(F),
                  quasi_pfister([F.var("a"), F.var("b"), F.var("c")], F)]
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0 and built == 1

    def test_invariants_tower_inputs(self, monkeypatch, levels):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from qbench.workloads import WORKLOADS

        queries = itertools.islice(WORKLOADS["invariants-tower"].timed(3), 60)
        forms = [dsl.parse(query.payload).forms[0].form for query in queries]
        assert {q.dim for q in forms} == {3, 4}
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0 and built == 0

    def test_random_forms_over_the_rational_field(self, F, levels):
        rng = random.Random(21)
        forms = _random_anisotropic(
            F, lambda: sample_poly_elem(rng, F, 3, 2), range(2, 6), 3)
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0

    def test_random_forms_over_a_depth_one_tower(self, levels):
        K, _, _, element = tower_sampler(21, depth=1)
        forms = _random_anisotropic(K, lambda: element(1), range(2, 6), 2)
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0 and built > 0

    def test_forms_over_four_variables(self, levels):
        rng = random.Random(26)
        forms = [_anisotropic_over_abcd(rng, dim, binomials)
                 for dim in range(3, 11) for binomials in (0, 0, 1, 2)]
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0 and built > 0

    def test_isotropic_forms(self, levels):
        rng = random.Random(27)
        forms = []
        for dim in range(3, 9):
            q = _anisotropic_over_abcd(rng, dim, 1)
            a, b = rng.sample(q.coeffs, 2)
            extra = a * q.field.var("c").square() + b
            forms.append(QuasilinearForm(q.field, q.coeffs + (extra,)))
        assert not any(is_anisotropic(q) for q in forms)
        tails, pinned, built = self._check(forms, levels)
        assert tails == {2, 3} and pinned > 0 and built > 0

    def test_generic_dim_10_form_builds_no_field(self, levels):
        names = ",".join(f"t{i}" for i in range(1, 11))
        script = dsl.parse(f"field F2({names}); form g = <{names}>;"
                           "splitting g;")
        entry = cli.run(script)["results"][0]
        assert entry["splitting_pattern"] == list(range(10, 0, -1))
        assert levels == []


def test_invariants_tower_queries_pass_their_oracle(monkeypatch, levels):
    """The benchmark's own `invariants-tower` inputs, monomial forms of dim
    3 and 4, through dsl.parse and cli.run, each answer checked by its
    oracle.  Their norm degrees fix every level of their splitting
    patterns, so no function field is built."""
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
    assert levels == []
    # a dim-4 form is the one case where the norm degree still decides a
    # doubling (e_3 in <<e_1, e_2>> or not), so the oracle checks both
    assert dim4_norm_degrees == {4, 8}


@st.composite
def _abcd_forms(draw):
    """A form over F2(a,b,c,d) in the variables a drawn mask keeps, as
    (numerator terms, denominator terms) per coefficient, exponents at most
    2.  Each numerator leads with a monomial of its own parity class, so
    most forms are anisotropic; a coefficient is that monomial, a
    polynomial of up to three terms, or such a polynomial over one of up
    to two terms."""
    used = draw(st.tuples(*[st.booleans()] * 4).filter(any))
    exps = st.tuples(*(st.integers(0, 2) if u else st.just(0)
                       for u in used))
    parities = st.tuples(*(st.integers(0, 1) if u else st.just(0)
                           for u in used))
    # an anisotropic form in v variables has dim <= 2^v
    classes = draw(st.lists(parities, min_size=2,
                            max_size=min(7, 1 << sum(used)), unique=True))
    coeffs = []
    for parity in classes:
        lead = tuple(e or 2 * draw(st.integers(0, int(u)))
                     for e, u in zip(parity, used))
        kind = draw(st.sampled_from(("monomial", "polynomial", "rational")))
        num = [lead] + (draw(st.lists(exps, max_size=2))
                        if kind != "monomial" else [])
        den = draw(st.lists(exps, min_size=1, max_size=2)) \
            if kind == "rational" else [(0, 0, 0, 0)]
        coeffs.append((tuple(num), tuple(den)))
    return tuple(coeffs)


_ABCD = FieldTower.rational(("a", "b", "c", "d"))


def _abcd_form(coeffs):
    """The form of `_abcd_forms` output, None if a coefficient is zero."""
    def poly(terms):
        acc = _ABCD.zero()
        for t in terms:
            mono = _ABCD.one()
            for v, e in zip(_ABCD.base_vars, t):
                mono = mono * _ABCD.var(v) ** e
            acc = acc + mono
        return acc

    elems = []
    for num, den in coeffs:
        n, dn = poly(num), poly(den)
        if n.is_zero or dn.is_zero:
            return None
        elems.append(n * dn.invert())
    return QuasilinearForm(_ABCD, elems)


class TestJacobianWitness:
    """At depth 0 the rank of the Jacobian at the witness point bounds the
    norm degree, 2^rho <= ndeg <= 2^bound, and decides it where the bounds
    meet; the saturation is the oracle."""

    @given(_abcd_forms())
    @settings(max_examples=120, deadline=None, derandomize=True)
    @example(((((1, 0, 0, 0),), ((0, 0, 0, 0),)),
              (((0, 1, 0, 0),), ((0, 0, 0, 0),)),
              (((0, 0, 1, 0),), ((0, 0, 0, 0),)),
              (((0, 0, 0, 1),), ((0, 0, 0, 0),))))
    # norm degree 4 in three odd variables: rank 2 against a bound of 3
    @example(((((1, 0, 0, 0),), ((0, 0, 0, 0),)),
              (((0, 1, 0, 0),), ((0, 0, 0, 0),)),
              (((0, 0, 1, 0),), ((0, 0, 0, 0),)),
              (((1, 1, 1, 0),), ((0, 0, 0, 0),))))
    # <1, a + b^2, b, (a b + 1)/(a + b^2)>: d - 1 = 3 > v = 2
    @example(((((0, 0, 0, 0),), ((0, 0, 0, 0),)),
              (((1, 0, 0, 0), (0, 2, 0, 0)), ((0, 0, 0, 0),)),
              (((0, 1, 0, 0),), ((0, 0, 0, 0),)),
              (((1, 1, 0, 0), (0, 0, 0, 0)), ((1, 0, 0, 0), (0, 2, 0, 0)))))
    def test_witness_equals_the_saturated_degree(self, coeffs):
        q = _abcd_form(coeffs)
        assume(q is not None and is_anisotropic(q))
        rho, bound = splitting._jacobian_witness(q)
        ndeg = len(splitting._norm_basis(q))
        assert 1 << rho <= ndeg <= 1 << bound
        # the degree splitting_pattern takes: the witness's where it
        # decides, else the saturation's
        assert 1 << splitting._log_norm_degree(q) == ndeg

    def test_generic_dim_14_form_takes_no_square_system(self, monkeypatch,
                                                         levels):
        """<t1, ..., t14> reads (14, ..., 1) off the point, with no square
        system solved (counted at the binding `_saturate` calls), while a
        dim-4 form of norm degree 4 in three odd variables (rank 2 at the
        point, bound 3) still saturates."""
        calls = []
        solvable = sqlinalg.square_system_solvable

        def counting(basis, target):
            calls.append(target)
            return solvable(basis, target)

        monkeypatch.setattr(sqlinalg, "square_system_solvable", counting)
        assert splitting_pattern(_generic(14)).dims == tuple(range(14, 0, -1))
        assert calls == [] and levels == []
        F = FieldTower.rational(("a", "b", "c"))
        a, b, c = F.var("a"), F.var("b"), F.var("c")
        q = QuasilinearForm(F, [a, b, c, a * b * c])
        assert splitting._jacobian_witness(q) == (2, 3)
        assert splitting_pattern(q).dims == (4, 2, 1)
        assert len(calls) == 1
