"""Field towers F2(vars)(y1, y2, ...) with y_i^2 given, their element
arithmetic, and structural embeddings, cross-checked in GF(2^15)."""

import random

import pytest

from quasiform.errors import (
    DivisionByZero,
    EmbeddingFailure,
    IsSquare,
    NameCollision,
    TowerDepthExceeded,
    UnknownVariable,
    ZeroElement,
)
from quasiform.fieldtower import FieldTower, TowerElem, TowerHom, fresh_names
from quasiform.gf2poly import Poly, RatFn

from oracles import (eval_elem, gf_mul, gf_pow, sample_poly_elem,
                     tower_point)


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b"))


@pytest.fixture
def K(F):
    # K = F(y) with y^2 = a*b + 1
    a, b = F.var("a"), F.var("b")
    return F.extend_inseparable(a * b + F.one(), "y")


class TestTowerConstruction:
    def test_rational(self, F):
        assert F.base_vars == ("a", "b")
        assert F.depth == 0
        assert F.var("a") * F.var("a") == F.var("a").square()

    def test_unknown_variable(self, F):
        with pytest.raises(UnknownVariable):
            F.var("c")

    def test_scalar_rejects_undeclared_names(self, F):
        z = Poly.variable("z", ("z",))
        with pytest.raises(UnknownVariable):
            F.scalar(z)
        with pytest.raises(UnknownVariable):
            F.scalar(RatFn(Poly.variable("a", ("a",)), z))
        with pytest.raises(UnknownVariable):
            F.extend_transcendental(("u",)).scalar(z)

    def test_element_rejects_undeclared_names(self, F, K):
        z = RatFn.from_poly(Poly.variable("z", ("z",)))
        with pytest.raises(UnknownVariable):
            F.element({0: z})
        with pytest.raises(UnknownVariable):
            K.element({0: RatFn.one(), 1: RatFn(Poly.one(), z.num)})
        assert K.element({1: F.var("a").coeffs[0]}) == K.gen(0) * K.var("a")

    def test_scalar_accepts_declared_names(self, F):
        a = Poly.variable("a", ("a",))
        ab = Poly.variable("b", ("a", "b")) * a
        assert F.scalar(a) == F.var("a")
        assert F.scalar(RatFn(a, ab + Poly.one())) == \
            F.var("a") / (F.var("a") * F.var("b") + F.one())
        Fz = F.extend_transcendental(("z",))
        assert Fz.scalar(Poly.variable("z", ("z",))) == Fz.var("z")

    def test_extend_transcendental(self, F):
        K = F.extend_transcendental(("u1", "u2"))
        assert K.base_vars == ("a", "b", "u1", "u2")
        assert F.embeds_into(K)
        assert F.extend_transcendental(["w"]).base_vars == ("a", "b", "w")

    def test_name_collision(self, F, K):
        with pytest.raises(NameCollision):
            F.extend_transcendental(("a",))
        with pytest.raises(NameCollision):
            K.extend_transcendental(("y",))
        a = F.var("a")
        with pytest.raises(NameCollision):
            F.extend_inseparable(a, "b")

    def test_extend_inseparable_rejects_squares(self, F):
        a = F.var("a")
        with pytest.raises(IsSquare):
            F.extend_inseparable(a.square(), "y")
        with pytest.raises(IsSquare):
            F.extend_inseparable(F.one(), "y")
        with pytest.raises(ZeroElement):
            F.extend_inseparable(F.zero(), "y")

    def test_generator_relation(self, F, K):
        a, b = F.var("a"), F.var("b")
        y = K.gen_by_name("y")
        assert y.square() == F.embed(a * b + F.one(), K)
        assert K.depth == 1

    def test_depth_limit(self):
        F = FieldTower.rational(("a",), depth_limit=1)
        a = F.var("a")
        K = F.extend_inseparable(a, "y1")
        theta = K.gen_by_name("y1") + F.embed(a, K) + K.one()
        with pytest.raises(TowerDepthExceeded):
            K.extend_inseparable(theta, "y2")

    def test_prefix_embedding(self, F, K):
        assert F.embeds_into(K)
        assert not K.embeds_into(F)
        a = F.var("a")
        assert F.embed(a, K).square() == F.embed(a.square(), K)


class TestElementArithmetic:
    def test_field_axioms_numeric(self, K):
        rng = random.Random(11)
        y = K.gen_by_name("y")
        a = K.var("a")
        b = K.var("b")
        xs = [y * a + b, (y + a).invert(), a * b.invert() + y,
              K.one(), y.square() * b]
        for _ in range(4):
            point = tower_point(K, rng)
            vals = [eval_elem(x, point) for x in xs]
            for x, vx in zip(xs, vals):
                for z, vz in zip(xs, vals):
                    assert eval_elem(x + z, point) == vx ^ vz
                    assert eval_elem(x * z, point) == gf_mul(vx, vz)

    def test_inverse(self, K):
        y = K.gen_by_name("y")
        a = K.var("a")
        x = y + a
        assert (x * x.invert()).is_one
        assert (x.invert() * x).is_one
        with pytest.raises(ZeroElement):
            K.zero().invert()

    def test_square_and_pow(self, K):
        y = K.gen_by_name("y")
        a = K.var("a")
        x = y * a + K.one()
        assert x.square() == x * x
        assert x ** 3 == x * x * x
        assert x ** 0 == K.one()

    def test_characteristic_two(self, K):
        y = K.gen_by_name("y")
        assert (y + y).is_zero
        x = y + K.var("a")
        assert (x + x).is_zero

    def test_frobenius_is_additive(self, K):
        y = K.gen_by_name("y")
        a, b = K.var("a"), K.var("b")
        p, q = y + a, y * b + K.one()
        assert (p + q).square() == p.square() + q.square()
        assert (p * q).square() == p.square() * q.square()

    def test_squares_drop_into_base(self, K):
        # the square of any element has no generator component
        y = K.gen_by_name("y")
        x = (y * K.var("a") + K.var("b")).square()
        assert set(x.coeffs) <= {0}


class TestSquareRoots:
    def test_sqrt_exists(self, K):
        y = K.gen_by_name("y")
        a = K.var("a")
        x = y * a + K.one()
        assert x.square().sqrt_in_tower() == x

    def test_sqrt_missing(self, F, K):
        assert K.var("a").sqrt_in_tower() is None
        # a*b + 1 became a square in K, and so did a*b = (y+1)^2
        ab = K.var("a") * K.var("b")
        assert (ab + K.one()).sqrt_in_tower() == K.gen_by_name("y")
        assert ab.sqrt_in_tower() == K.gen_by_name("y") + K.one()
        # a + b stays a non-square: K^2 is spanned by 1 and a*b over F^2
        assert (K.var("a") + K.var("b")).sqrt_in_tower() is None
        assert F.var("a").sqrt_in_tower() is None


class TestFreshNames:
    def test_skips_taken(self, K):
        L = K.extend_transcendental(("u1", "t3"))
        assert fresh_names(L, "u", 2) == ["u2", "u3"]
        assert fresh_names(L, "t", 3) == ["t1", "t2", "t4"]
        # the generator "y" itself does not shadow "y1"
        assert fresh_names(L, "y", 1) == ["y1"]


class TestTowerHom:
    def test_identity_like_substitution(self, F):
        # u -> a*b on F(u); images must satisfy nothing, plain rename
        K = F.extend_transcendental(("u",))
        target = F
        hom = TowerHom(K, target, {"u": F.var("a") * F.var("b")})
        u = K.var("u")
        expr = u * K.var("a") + K.one()
        image = hom.apply(expr)
        assert image == F.var("a").square() * F.var("b") + F.one()

    def test_gen_relation_validated(self, F, K):
        # mapping y to something whose square is not theta must fail
        with pytest.raises(EmbeddingFailure):
            TowerHom(K, F, {"y": F.var("a")})

    def test_gen_image_accepted_when_relation_holds(self, F, K):
        # target: L = F(z) with z^2 = a*b + 1; map y -> z
        a, b = F.var("a"), F.var("b")
        L = F.extend_inseparable(a * b + F.one(), "z")
        hom = TowerHom(K, L, {"y": L.gen_by_name("z")})
        y = K.gen_by_name("y")
        assert hom.apply(y * K.var("a")) == L.gen_by_name("z") * L.var("a")

    def test_unknown_assignment_rejected(self, F, K):
        with pytest.raises(UnknownVariable):
            TowerHom(K, F, {"nope": F.one()})

    def test_image_naming_a_variable_outside_the_target_rejected(self, F):
        # an element of F2(a,b) that names z, built past the checks of
        # scalar and element: z is neither assigned nor in the target
        K = F.extend_transcendental(("u",))
        stray = TowerElem(K, {0: RatFn.from_poly(
            Poly.variable("z", ("z",)) * Poly.variable("u", ("u",)))})
        hom = TowerHom(K, F, {"u": F.var("a")})
        with pytest.raises(UnknownVariable):
            hom.apply(stray)
        assert hom.apply(K.var("u") * K.var("b")) == F.var("a") * F.var("b")

    def test_wrong_tower_value_rejected(self, F, K):
        with pytest.raises(ValueError):
            TowerHom(K, F, {"y": K.one()})

    def test_tower_substitute_wrapper(self, F):
        K = F.extend_transcendental(("u",))
        expr = K.var("u").square() + K.var("b")
        out = TowerHom(K, F, {"u": F.var("a")}).apply(expr)
        assert out == F.var("a").square() + F.var("b")

    def test_substitution_is_homomorphism_numeric(self, F, K):
        # check phi(x*z + w) = phi(x)phi(z) + phi(w) numerically
        a, b = F.var("a"), F.var("b")
        L = F.extend_inseparable(a * b + F.one(), "z")
        hom = TowerHom(K, L, {"y": L.gen_by_name("z")})
        y = K.gen_by_name("y")
        xs = [y * K.var("a"), (y + K.var("b")).invert(), K.var("b") + y]
        rng = random.Random(13)
        for _ in range(3):
            point = tower_point(L, rng)
            # same point works for K: same base vars, matching gen value
            point_k = dict(point)
            point_k["y"] = point["z"]
            for x in xs:
                assert eval_elem(hom.apply(x), point) == \
                    eval_elem(x, point_k)

    def test_denominator_collapsing_to_zero_raises_division_by_zero(self, F):
        U = F.extend_transcendental(("u",))
        hom = TowerHom(U, F, {"u": F.var("a")})
        with pytest.raises(DivisionByZero):
            hom.apply((U.var("u") + U.var("a")).invert())
        with pytest.raises(DivisionByZero):
            TowerHom(U, F, {"u": F.var("a")}, denominator=F.zero())

    def test_denominator_outside_target_rejected(self, F):
        U = F.extend_transcendental(("u",))
        with pytest.raises(ValueError):
            TowerHom(U, F, {"u": F.var("a")}, denominator=U.one())

    @pytest.mark.parametrize("case", ["k<2p", "k=2p", "k>2p"])
    def test_generator_images_checked_over_a_denominator(self, F, case):
        # theta's image is N / d^k and the generator's (value / d^p)^2,
        # with p = 1 when the generator is assigned; the check cancels the
        # lower power of d, and a wrong image still fails on each side
        a, b = F.var("a"), F.var("b")
        T = F.extend_inseparable(a, "z")
        z, lam = T.gen_by_name("z"), T.var("a") + T.one()
        if case == "k<2p":
            # y^2 = a takes no assigned variable: k = 0, p = 1
            S = F.extend_inseparable(a, "y")
            right, wrong = {"y": lam * z}, {"y": z}
        else:
            U = F.extend_transcendental(("u",))
            theta = U.var("a") * U.var("u").square()
            if case == "k=2p":
                # y^2 = a u^2 with y assigned: k = 2 = 2p
                S = U.extend_inseparable(theta, "y")
                right = {"u": lam * T.var("b"), "y": lam * T.var("b") * z}
                wrong = {"u": lam * T.var("b"), "y": lam * z}
            else:
                # z^2 = a u^2 with z kept: k = 2 > 0 = 2p
                S = U.extend_inseparable(theta, "z")
                right, wrong = {"u": lam}, {"u": lam * T.var("b")}
        gen = S.gens[-1][0]
        hom = TowerHom(S, T, right, denominator=lam)
        image = hom.apply(S.gen_by_name(gen))
        assert image.square() == hom.apply(S.element(S.theta(S.depth - 1)))
        with pytest.raises(EmbeddingFailure):
            TowerHom(S, T, wrong, denominator=lam)


def _projective_case(seed):
    """A map from S = B(u)(y), y^2 = (1 + a u^2)/b over B = F2(a,b,c)(z),
    z^2 = c, into T = B(t)(w), w^2 = (1 + a t^2)/b: u -> l*t / l and
    y -> l*w / l for a random nonzero l of T, with z kept.  Returns the
    hom over the common denominator l, the same map with values t and w,
    l, and random vectors over S with polynomial coefficients."""
    rng = random.Random(seed)
    F = FieldTower.rational(("a", "b", "c"))
    B = F.extend_inseparable(F.var("c"), "z")

    def conic_field(var, gen):
        R = B.extend_transcendental((var,))
        theta = ((R.one() + R.var("a") * R.var(var).square())
                 * R.var("b").invert())
        return R.extend_inseparable(theta, gen)

    S, T = conic_field("u", "y"), conic_field("t", "w")
    t, w = T.var("t"), T.gen_by_name("w")
    lam = T.zero()
    while lam.is_zero:
        lam = sum((sample_poly_elem(rng, T, 2) * g
                   for g in (T.one(), T.gen_by_name("z"), w)
                   if rng.random() < 0.7), T.zero())
    hom = TowerHom(S, T, {"u": lam * t, "y": lam * w}, denominator=lam)
    plain = TowerHom(S, T, {"u": lam * t * lam.invert(),
                            "y": lam * w * lam.invert()})
    gens = [S.one(), S.gen_by_name("z"), S.gen_by_name("y"),
            S.gen_by_name("z") * S.gen_by_name("y")]
    vectors = []
    for _ in range(6):
        vectors.append([sum((sample_poly_elem(rng, S, 3) * g for g in gens
                             if rng.random() < 0.5), S.zero())
                        for _ in range(rng.randrange(1, 5))])
    return hom, plain, lam, vectors


def _structural_power(vector):
    """The largest count of assigned factors in any term of the vector:
    the degree in u plus one for y, whatever cancels."""
    y_bit = 1 << [n for n, _ in vector[0].tower.gens].index("y")
    return max((sum(e for n, e in mono if n == "u") + bool(mask & y_bit)
                for x in vector for mask, fn in x.coeffs.items()
                for mono in fn.num.terms), default=0)


class TestApplyProjective:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_field_image_times_the_clearing_power(self, seed):
        hom, plain, lam, vectors = _projective_case(seed)
        for v in vectors:
            scale = lam ** _structural_power(v)
            assert hom.apply_projective(v) == [plain.apply(x) * scale
                                               for x in v]
        S, T = hom.source, hom.target
        assert hom.apply(S.var("u")) == T.var("t")
        assert hom.apply(S.gen_by_name("y")) == T.gen_by_name("w")

    @pytest.mark.parametrize("seed", [4, 5])
    def test_unit_denominator_gives_apply_entry_by_entry(self, seed):
        _, plain, _, vectors = _projective_case(seed)
        for v in vectors:
            assert plain.apply_projective(v) == [plain.apply(x) for x in v]


def _two_variable_case(seed):
    """A map from S = F(u, v)(y), y^2 = a u^2 + b v^2 + c, into
    T = F(t1, t2)(w), w^2 = a t1^2 + b t2^2 + c, over F = F2(a,b,c):
    u -> l*t1 / l, v -> l*t2 / l and y -> l*w / l for l = w plus a random
    polynomial (nonzero, as w is not in F(t1, t2)), with a, b, c kept.
    Returns the hom, the point map from T's points to S's, l, and random
    elements of S whose terms reach u and v at exponents 2 and 3, some
    over a denominator."""
    rng = random.Random(seed)
    F = FieldTower.rational(("a", "b", "c"))

    def conic_field(x1, x2, gen):
        R = F.extend_transcendental((x1, x2))
        return R.extend_inseparable(
            R.var("a") * R.var(x1).square() + R.var("b") * R.var(x2).square()
            + R.var("c"), gen)

    S, T = conic_field("u", "v", "y"), conic_field("t1", "t2", "w")
    w = T.gen_by_name("w")
    lam = sample_poly_elem(rng, T, 1, 2) + w
    hom = TowerHom(S, T, {"u": lam * T.var("t1"), "v": lam * T.var("t2"),
                          "y": lam * w}, denominator=lam)
    u, v, y = S.var("u"), S.var("v"), S.gen_by_name("y")
    elems = []
    for _ in range(6):
        x = S.zero()
        for _ in range(rng.randrange(1, 4)):
            term = (u ** rng.randrange(2, 4) * v ** rng.randrange(2, 4)
                    * F.embed(sample_poly_elem(rng, F, 2), S))
            x = x + (term * y if rng.random() < 0.5 else term)
        if rng.random() < 0.5:
            x = x / (u * v + S.var("a") + S.one())
        elems.append(x)

    def source_point(point):
        return {"a": point["a"], "b": point["b"], "c": point["c"],
                "u": point["t1"], "v": point["t2"], "y": point["w"]}

    return hom, source_point, lam, elems


class TestTwoAssignedVariables:
    """The packed grouping keys on every assigned slot at once: u and v
    at exponents >= 2, a, b, c kept, y assigned, over a denominator l."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_apply_and_apply_projective_match_the_oracle(self, seed):
        hom, source_point, lam, elems = _two_variable_case(seed)
        projective = hom.apply_projective(elems)
        # u, v and y each carry one factor 1/l
        power = max(sum(e for n, e in mono if n in ("u", "v")) + mask
                    for x in elems for mask, fn in x.coeffs.items()
                    for mono in fn.num.terms)
        assert power >= 5
        rng = random.Random(100 + seed)
        for _ in range(3):
            point = tower_point(hom.target, rng)
            at_source = source_point(point)
            scale = gf_pow(eval_elem(lam, point), power)
            for x, proj in zip(elems, projective):
                value = eval_elem(x, at_source)
                assert eval_elem(hom.apply(x), point) == value
                assert eval_elem(proj, point) == gf_mul(value, scale)


class TestStrings:
    def test_element_str_mentions_generators(self, K):
        y = K.gen_by_name("y")
        s = str(y * K.var("a") + K.one())
        assert "y" in s and "a" in s
