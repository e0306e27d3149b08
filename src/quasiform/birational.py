"""Birational geometry of quasilinear quadrics.

Decision procedures for domination in essential dimension, stable
equivalence, and birational equivalence, plus two constructions with exact
symbolic certificates: the ruling of a quadric whose first Witt index
exceeds 1, and the regularity report for a quadric as a scheme.

Each decision asks whether a form becomes isotropic over the function
field of another (`is_isotropic_over`).  Two dimension counts, against
[K:K^2] and against the norm field, and one rule for quasi-Pfister
neighbours, whose isotropy over k(q) is the inclusion of q's norm field
in theirs, settle most such questions before the function field is
built; the proofs are in that function.

The ruling of X with first Witt index r writes X birationally as
Y x P^{r-1}, where Y drops the last r-1 coefficients: the isotropic
vectors of X over k(Y) form an r-dimensional space with basis s_1,...,s_r,
giving phi(y, [c_1:...:c_r]) = [sum c_i s_i(y)]; composing the basis with a
projection pi: X -> Y and recombining with fiber functions f_i, read off
one coordinate of each pulled-back vector, recovers the generic point of X
exactly, which is the certificate that phi has an inverse.  Each s_i and
pi is one relation already known to exist, solved once; no kernel is
searched for.

A ruling is one record, `RulingDecomposition`: its certificate and phi's
coordinates, built from the certificate's basis; X, Y, r, the basis and
the inverse data are read off the certificate, so no copy can disagree
with it.  `construct_ruling` only solves for the basis and pi, and proves
nothing.  The certificate holds X, Y, the basis and pi; it pulls the
basis back through pi once, on first use, and derives the fibers from
that pull-back, so no builder supplies them.  `RulingCertificate.verify`,
which trusts no builder, is the one proof of each identity: X(s_i) = 0,
Y(pi) = 0 (by the hom of `_pull_basis`) and the recombination; X(phi) = 0
follows (`RulingDecomposition`), and its verify() adds only r >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ._elim import nullspace
from .errors import (
    DimensionTooSmall,
    DivisionByZero,
    EmbeddingFailure,
    InconsistencyDetected,
    IsotropicInput,
    NotRuled,
    UnknownVariable,
    ZeroElement,
)
from .fieldtower import FieldTower, TowerElem, TowerHom, fresh_names
from .forms import QuasilinearForm, anisotropic_part, is_anisotropic
from .gf2poly import Poly, RatFn, common_denominator, numerator_over
from .maps import projectively_equal
from .splitting import (
    _jacobian_witness,
    _norm_basis,
    _over_own_function_field,
    _require_function_field,
    essential_dimension,
    function_field,
)
from .sqlinalg import (
    _SquareBlocks,
    clear_denominators,
    isotropic_kernel_basis,
    span_saturate,
    square_combination_vanishes,
    square_span_contains,
)


def is_isotropic_over(p: QuasilinearForm, q: QuasilinearForm) -> bool:
    """Whether p acquires a new isotropic vector over the function field
    of q (for anisotropic p: whether p becomes isotropic there).

    The coefficients of p outside its anisotropic part p_an are in the
    span of those of p_an over K^2, so over any extension as well: p gains
    an isotropic vector over k(q) exactly when the r = dim p_an
    coefficients of p_an become dependent over k(q)^2.  With t the number
    of base variables of the common field K, [K:K^2] = 2^t (over a tower
    as well: each inseparable step y^2 = theta has K^2 = F^2(theta), so
    [K:K^2] = [K:F][F:F^2] / [K^2:F^2] = [F:F^2]).  Two dimension counts
    and one rule on norm fields settle the answer before k(q) is built:

    - (A) 2r > 2^t: true.
    - (B) otherwise, dim q > 2^(r-1): false.
    - (C) otherwise, if 2r > ndeg(p_an) (p_an is a quasi-Pfister
      neighbour): true exactly when N(q) lies in N(p_an), that is when
      every a_d a_i (i < d) lies in the span of N(p_an) over K^2.

    Proofs, for q = <a_1, ..., a_d> anisotropic, in the chart of
    function_field: k(q) = K(u)(y) with y^2 = theta and
    theta = (a_1 + a_2 u_1^2 + ... + a_{d-1} u_{d-2}^2) / a_d.  So theta
    lies in K(u^2), and not in K(u)^2 = K^2(u^2) (function_field), and
    k(q)^2 = K^2(u^2)(theta).

    - (A) M = K^2(u^2)(theta) lies in k(q)^2 and has degree 2 over
      K^2(u^2), as theta^2 lies there and theta does not.  K(u^2) holds M
      and has degree [K:K^2] = 2^t over K^2(u^2) (the u^2 are
      transcendental over K), so degree 2^(t-1) over M.  The coefficients
      of p_an lie in K, inside K(u^2), and more than 2^(t-1) of them are
      dependent over M.
    - (B) Let N(f) = K^2(b_2/b_1, ..., b_n/b_1) be the norm field of
      f = <b_1, ..., b_n>: n - 1 square roots over K^2, so
      [N(p_an):K^2] <= 2^(r-1).  The coefficients of f/b_1 lie in N(f),
      and are independent over K^2 when f is anisotropic, so
      dim q <= [N(q):K^2].  If p_an is isotropic over k(q), at x = v + w y
      with v, w over K(u), then p_an(v) + theta p_an(w) = 0, and w != 0
      as p_an stays anisotropic over the purely transcendental K(u).  So
      theta = p_an(v) / p_an(w) is a ratio of values of p_an / b_1 over
      K(u)^2 = K^2(u^2), and lies in E(u^2) with E = N(p_an).  theta is a
      polynomial in the u^2 with the coefficients a_i / a_d of K, and
      K[u^2] meets E(u^2) in E[u^2] (write the coefficients over a basis
      of K over E that holds 1), so every a_i / a_d is in E: N(q) lies in
      N(p_an), and dim q <= 2^(r-1).
    - (C) The lemma inside (B) is the direction "only if".  Conversely,
      let every a_i / a_d lie in E = N(p_an), of degree 2^k < 2r over
      K^2, and let phi = <e_1, ..., e_(2^k)> be its norm form, on a basis
      of E over K^2 with e_1 = 1.  Over K(u) phi takes every value in the
      K(u)^2-span of the e_j, which is E(u^2) and holds theta: theta =
      phi(w).  With v = (1, 0, ..., 0), phi(v) = 1, so over k(q)
      phi(w + y v) = theta + y^2 = 0, and w + y v != 0 (y is not in
      K(u)).  So the e_j are dependent over k(q)^2, and they span the
      field k(q)^2(E) over k(q)^2: a degree below 2^k that is a power of
      two (each e_j squares into k(q)^2), so at most 2^(k-1) < r.  The r
      coefficients of p_an / b_1 lie in E, so they are dependent over
      k(q)^2, and p_an is isotropic over k(q).  a_i / a_d is a_d a_i over
      the square a_d^2, so the test needs no inverse.

    (C) is tried only where p_an may be a neighbour.  r <= 3 always is
    one (ndeg <= 2^(r-1) < 2r), and then `_norm_basis` takes no test.  At
    depth 0, for r >= 4, a Jacobian rank with 2^rho >= 2r
    (`_jacobian_witness`, a lower bound on ndeg) proves that p_an is not
    one, and k(q) is built with no saturation.  Otherwise the norm field
    is saturated once, and its degree says which way to go.

    The checks on the forms come first, in the same order whether or not
    a rule settles the answer: different fields raise ValueError, then q
    raises as function_field does (DimensionTooSmall, IsotropicInput).
    """
    if p.field != q.field:
        raise ValueError("forms live over different base fields")
    _require_function_field(q)
    r = len(p.independent())
    if 2 * r > 1 << len(p.field.base_vars):
        return True
    if q.dim > 1 << (r - 1):
        return False
    # (C), unless the Jacobian proves that p_an is no neighbour
    p_an = anisotropic_part(p)
    if r <= 3 or p.field.depth or 1 << _jacobian_witness(p_an)[0] < 2 * r:
        basis = _norm_basis(p_an)
        if 2 * r > len(basis):
            a_d = q.coeffs[-1]
            return square_span_contains(basis,
                                        [a_d * a for a in q.coeffs[:-1]])
    return len(p.over(function_field(q).tower).independent()) < r


class DominationVerdict(Enum):
    """Ordering of two quadrics by essential dimension and isotropy."""

    X_BELOW_Y = "X<Y"
    Y_BELOW_X = "Y<X"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def essdim_domination_check(X: QuasilinearForm,
                            Y: QuasilinearForm) -> DominationVerdict:
    """Compare two anisotropic forms by mutual isotropy over function
    fields, cross-checking the computed essential dimensions.

    When Y is isotropic over k(X), the essential dimension of X cannot
    exceed that of Y, with equality exactly when X is also isotropic over
    k(Y); the check raises InconsistencyDetected if the computed data ever
    contradict this, which would be a library bug rather than a possible
    mathematical outcome.
    """
    es_x = essential_dimension(X)
    es_y = essential_dimension(Y)
    y_over_x = is_isotropic_over(Y, X)
    x_over_y = is_isotropic_over(X, Y)
    if y_over_x:
        if es_x > es_y or (es_x == es_y) != x_over_y:
            raise InconsistencyDetected(
                "essential dimensions contradict the isotropy data")
    if x_over_y:
        if es_y > es_x or (es_y == es_x) != y_over_x:
            raise InconsistencyDetected(
                "essential dimensions contradict the isotropy data")
    if y_over_x and x_over_y:
        return DominationVerdict.EQUIVALENT
    if y_over_x:
        return DominationVerdict.X_BELOW_Y
    if x_over_y:
        return DominationVerdict.Y_BELOW_X
    return DominationVerdict.INCOMPARABLE


def decide_stably_equivalent(X: QuasilinearForm, Y: QuasilinearForm) -> bool:
    """Stable equivalence: each form is isotropic over the other's
    function field.  Both forms are checked first, so neither the verdict
    nor the error depends on the order of the arguments.

    By the count (A) of `is_isotropic_over`, any two anisotropic forms of
    dimension > 2^(t-1) over a field K with [K:K^2] = 2^t are stably
    equivalent, and by its rule (C) two quasi-Pfister neighbours are
    stably equivalent exactly when their norm fields are equal; no
    function field is built for either."""
    for form in (X, Y):
        if form.dim < 2:
            raise DimensionTooSmall(
                f"stable equivalence needs dimension >= 2, got {form.dim}")
        if not is_anisotropic(form):
            raise IsotropicInput(
                "stable equivalence expects anisotropic forms")
    return is_isotropic_over(Y, X) and is_isotropic_over(X, Y)


def decide_birational(X: QuasilinearForm, Y: QuasilinearForm) -> bool:
    """Birational equivalence of the projective quadrics: stable
    equivalence plus equal dimension (both reduce to a common quadric
    with first Witt index 1 times projective spaces, whose dimensions
    then match)."""
    return X.dim == Y.dim and decide_stably_equivalent(X, Y)


@dataclass(frozen=True)
class FiberMap:
    """Projection of a quadric onto a subquadric together with the fiber
    coordinates of a product decomposition: the data of a map into
    (quadric of Y) x P^{r-1}, all over k(X).  A ruling's fibers are
    derived by its certificate (`RulingCertificate.fibers`)."""

    pi: Tuple[TowerElem, ...]
    fibers: Tuple[TowerElem, ...]


def _pull_basis(ff_y, s_basis: Sequence[Sequence[TowerElem]],
                pi_coords: Sequence[TowerElem],
                K: FieldTower) -> List[List[TowerElem]]:
    """Pull the isotropic basis back through the projection, avoiding
    fractions: each returned vector equals the substituted s_i times a
    nonzero scalar of K.

    With pi cleared of denominators to (d, p_2, ..., p_n), one TowerHom
    sends the function-field coordinates of Y to p_j / d, and
    `apply_projective` clears d from each vector by its structural power.
    The hom checks y's relation at pi: for pi of length dim Y that is
    Y(pi) = 0, else EmbeddingFailure.  `RulingCertificate` is its one
    caller: it pulls its basis back once, derives its fibers from the
    result and checks the recombination on it.
    """
    pi_poly = clear_denominators(pi_coords)
    hom = TowerHom(ff_y.tower, K, dict(zip(ff_y.fresh_names, pi_poly[1:])),
                   denominator=pi_poly[0])
    return [hom.apply_projective(clear_denominators(s)) for s in s_basis]


def _recombines(fibers: Sequence[TowerElem],
                pulled: Sequence[Sequence[TowerElem]],
                point: Sequence[TowerElem]) -> bool:
    """Whether f_1*t_1 + ... + f_r*t_r = point, coordinate by coordinate,
    for the fibers f_i and the pulled-back vectors t_i.  The identity is
    linear in the fibers and the point, so it is decided on them times
    the common denominator D of the fibers."""
    *fibers, den = clear_denominators(list(fibers) + [point[0].tower.one()])
    zero = den.tower.zero()
    for j, x in enumerate(point):
        combo = zero
        for f, t in zip(fibers, pulled):
            combo = combo + f * t[j]
        if combo != den * x:
            return False
    return True


def _ruling_map(s_basis: Sequence[Sequence[TowerElem]]
                ) -> Tuple[TowerElem, ...]:
    """The coordinates of phi = s_1 + t_1*s_2 + ... + t_{r-1}*s_r, over
    the product field k(Y)(t_1,...,t_{r-1}), which is their tower."""
    base = s_basis[0][0].tower
    names = fresh_names(base, "t", len(s_basis) - 1)
    P = base.extend_transcendental(names)
    ts = [P.var(n) for n in names]
    coords = []
    for j in range(len(s_basis[0])):
        acc = base.embed(s_basis[0][j], P)
        for t, s in zip(ts, s_basis[1:]):
            acc = acc + t * base.embed(s[j], P)
        coords.append(acc)
    return tuple(coords)


class RulingCertificate:
    """Exact identity behind a ruling decomposition.

    Pulling the isotropic basis s_1,...,s_r back through the projection pi
    and recombining with the fiber functions f_i returns the generic point
    g of X:

        f_1*(s_1 o pi) + ... + f_r*(s_r o pi) = g.

    The certificate holds X, Y, the basis (over k(Y)) and pi (over k(X),
    in Y's chart: first coordinate nonzero), and nothing derived from
    them.  The pull-back t_i = s_i o pi (`_pull_basis`) is computed once,
    on first use, and kept; a failed one is not.  The fibers are read off
    it: with d = dim Y, s_i is 1 at coordinate d-1+i and 0 at X's other
    last r coordinates, and so is t_i up to a nonzero factor (a field map
    sends only 0 to 0), so the identity reads f_i t_i[d-1+i] = g[d-1+i]
    there, and f_i = g[d-1+i] / t_i[d-1+i].  Any other coordinate is a
    check.

    The certificate is immutable, trusts no builder, and is the only
    proof of a ruling: verify() proves X(s_i) = 0 for each s_i over k(Y),
    and the pull-back's hom proves Y(pi) = 0 (and rejects a pi outside
    k(X) or zero at x_1); the recombination is then checked coordinate by
    coordinate.
    """

    __slots__ = ("X", "Y", "s_basis", "pi", "_pulled")

    def __init__(self, X: QuasilinearForm, Y: QuasilinearForm,
                 s_basis: Tuple[Tuple[TowerElem, ...], ...],
                 pi: Tuple[TowerElem, ...]):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "s_basis", s_basis)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_pulled", None)

    def __setattr__(self, *a):
        raise AttributeError("RulingCertificate is immutable")

    def _pull_back(self) -> Tuple[List[List[TowerElem]],
                                  Tuple[TowerElem, ...]]:
        """The pulled-back basis and the fibers read off it, computed on
        first use; raises as `_pull_basis` does, or ZeroElement where a
        t_i is 0 at d-1+i."""
        got = self._pulled
        if got is None:
            ff_x = function_field(self.X)
            pulled = _pull_basis(function_field(self.Y), self.s_basis,
                                 self.pi, ff_x.tower)
            g, j = ff_x.generic_point, self.Y.dim - 1
            fibers = tuple(g[j + i] / t[j + i] for i, t in enumerate(pulled))
            got = (pulled, fibers)
            object.__setattr__(self, "_pulled", got)
        return got

    @property
    def fibers(self) -> Tuple[TowerElem, ...]:
        return self._pull_back()[1]

    def verify(self) -> bool:
        # one basis vector per fiber, r of them: zip would drop the rest
        r = self.X.dim - self.Y.dim + 1
        if len(self.s_basis) != r:
            return False
        try:
            ff_y = function_field(self.Y)
            ff_x = function_field(self.X)
            x_coeffs = self.X.over(ff_y.tower).coeffs
        except (DimensionTooSmall, EmbeddingFailure, IsotropicInput):
            # no function field, or X's field is not below k(Y): nothing
            # for the identity to live in
            return False
        for s in self.s_basis:
            if len(s) != self.X.dim or any(c.tower != ff_y.tower for c in s):
                return False
            if not square_combination_vanishes(s, x_coeffs):
                return False
        # the hom's zip would drop coordinates past Y's
        if len(self.pi) != self.Y.dim:
            return False
        try:
            pulled, fibers = self._pull_back()
        except (DivisionByZero, EmbeddingFailure, UnknownVariable,
                ValueError, ZeroElement):
            # no field map: pi is off Y, 0 at x_1 or outside k(X), or a
            # basis vector names a variable k(X) lacks; or a pulled-back
            # vector is 0 where its fiber is read
            return False
        return _recombines(fibers, pulled, ff_x.generic_point)

    def __repr__(self) -> str:
        return (f"RulingCertificate({self.X} ~ {self.Y} x P^"
                f"{self.X.dim - self.Y.dim})")


class RulingDecomposition:
    """A birational decomposition X ~ Y x P^{r-1}: one immutable record of
    its certificate and the coordinates of phi built from it; verify()
    checks it.

    phi = s_1 + t_1 s_2 + ... + t_{r-1} s_r over k(Y)(t_1, ..., t_{r-1})
    (`_ruling_map`) is built here, so no decomposition holds a phi that
    its certificate's basis does not give.  X, Y, s_basis, r and `psi`
    (the inverse data: pi plus the fibers the certificate derives) are
    read off the certificate, which proves phi(psi(x)) = x.

    phi needs no check of its own.  X(v) = sum a_j v_j^2, and squaring is
    additive in characteristic 2, so
    X(s_1 + sum t_i s_(i+1)) = X(s_1) + sum t_i^2 X(s_(i+1)), which is 0
    once the certificate proves each X(s_i) = 0.  phi != 0: the
    recombination gives g != 0, so some s_i != 0, and the t_i are
    independent transcendentals over k(Y).
    """

    __slots__ = ("certificate", "phi")

    def __init__(self, certificate: RulingCertificate):
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "phi", _ruling_map(certificate.s_basis))

    def __setattr__(self, *a):
        raise AttributeError("RulingDecomposition is immutable")

    @property
    def X(self) -> QuasilinearForm:
        return self.certificate.X

    @property
    def Y(self) -> QuasilinearForm:
        return self.certificate.Y

    @property
    def s_basis(self) -> Tuple[Tuple[TowerElem, ...], ...]:
        return self.certificate.s_basis

    @property
    def psi(self) -> FiberMap:
        return FiberMap(self.certificate.pi, self.certificate.fibers)

    @property
    def r(self) -> int:
        return self.X.dim - self.Y.dim + 1

    def verify(self) -> bool:
        return self.r >= 2 and self.certificate.verify()

    def __repr__(self) -> str:
        return f"RulingDecomposition({self.certificate!r})"


def construct_ruling(X: QuasilinearForm) -> RulingDecomposition:
    """Decompose the quadric of X birationally as Y x P^{r-1}, where
    r = first_witt_index(X) and Y drops the last r-1 coefficients.

    With a_1..a_n the coefficients of X and d = dim Y: s_1 is Y's generic
    point over its last coordinate, s_i (i >= 2) the relation of a_{d-1+i}
    over a_1..a_{d-1} in k(Y), pi that of the first a_j which X's rank
    over k(X) skipped, over a_1..a_{j-1}.  The fibers are not computed
    here: the certificate derives them from its one pull-back of the basis
    through pi (`RulingCertificate.fibers`).

    Each relation is one exact solve, without a verdict, on a square
    system that holds it: pi on the system X's rank over k(X) built, the
    s_i on one system over k(Y).  No proof is made here: X(s_i) = 0, and
    with it X(phi) = 0, and Y(pi) = 0 are left to the certificate, so a
    basis vector off X or a pi off Y fails verify().

    Raises NotRuled when r = 1 (the decomposition would be trivial and no
    ruling exists along this route), and DimensionTooSmall or
    IsotropicInput as the first Witt index does.  An anisotropic X of
    dim 2 or 3 has r = 1 (splitting_pattern), so no field is built for it.
    Impossible failures raise InconsistencyDetected.
    """
    if 2 <= X.dim <= 3 and is_anisotropic(X):
        # a dim-1 or isotropic X raises below
        raise NotRuled("first Witt index is 1")
    ff_x, _, over_x, kept = _over_own_function_field(X)
    K = ff_x.tower
    r = X.dim - len(kept)
    if r < 2:
        raise NotRuled("first Witt index is 1")
    d = X.dim - (r - 1)
    Y = X.subform(range(d))
    ff_y = function_field(Y)
    a = X.over(ff_y.tower).coeffs
    zero, one = ff_y.tower.zero(), ff_y.tower.one()
    # Y's generic point over y, padded with zeros, is a zero of X.  X and Y
    # are stably equivalent (Y is in X, and an r-dimensional isotropic
    # space of X over k(X) meets Y's coordinates, of codimension r - 1),
    # and dim - i1 is invariant, so i1(Y) = 1: a_1..a_{d-1} are
    # independent over k(Y), and each later a_j has one relation over
    # them (X has index r over k(Y)(X) = k(X)(Y), so over k(Y) too).  One
    # system holds them and the targets a_{d+1}..a_n, without a_d.
    over_y = _SquareBlocks([(c,) for c in a[:d - 1] + a[d:]])
    y_inv = ff_y.generic_point[-1].invert()
    s_lists = [[c * y_inv for c in ff_y.generic_point] + [zero] * (r - 1)]
    for i in range(1, r):
        s_lists.append(over_y.solve(range(d - 1), d - 2 + i)
                       + [zero] * i + [one] + [zero] * (r - 1 - i))
    s_basis = tuple(tuple(s) for s in s_lists)

    # X's rank over k(X) keeps a_1..a_j and skips a_{j+1}: one relation.
    # It keeps n - r = d - 1 of a_1..a_{n-1}, so j < d: a zero of Y.
    j = next((j for j, i in enumerate(kept) if i != j), len(kept))
    roots = over_x.solve(range(j), j)
    if roots is None:
        raise InconsistencyDetected("subform stayed anisotropic over k(X)")
    pi = tuple(roots + [K.one()] + [K.zero()] * (d - 1 - j))
    if pi[0].is_zero:
        raise InconsistencyDetected(
            "projection chart degenerates: leading coordinate is zero")
    return RulingDecomposition(RulingCertificate(X, Y, s_basis, pi))


def unique_self_map_check(X: QuasilinearForm) -> bool:
    """Whether the quadric of X admits only one rational self-map route:
    true exactly when the isotropic kernel of X over its own function field
    is one-dimensional, in which case it must be spanned by the generic
    point (verified)."""
    ff = function_field(X)
    basis = isotropic_kernel_basis(X, ff.tower)
    if not basis:
        raise InconsistencyDetected(
            "form is anisotropic over its own function field")
    if len(basis) == 1:
        if not projectively_equal(basis[0], list(ff.generic_point)):
            raise InconsistencyDetected(
                "one-dimensional kernel misses the generic point")
        return True
    return False


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the regularity test with the individually evaluated
    conditions.

    `coefficient_products_independent`: the subset products of the scaled
    non-unit coefficients are independent over the squares (always
    evaluated).  `differentials_independent` and `generic_splitting` are
    evaluated only over purely rational base fields and are None
    otherwise.
    """

    regular: bool
    coefficient_products_independent: bool
    differentials_independent: Optional[bool]
    generic_splitting: Optional[bool]

    def __bool__(self) -> bool:
        return self.regular


def _differentials_independent(field: FieldTower,
                               elems: Sequence[TowerElem]) -> bool:
    """Linear independence over the field of the differentials of the
    given elements, via the Jacobian with respect to the base variables."""
    if not elems:
        return True
    fns = [e.coeffs.get(0, RatFn.zero()) for e in elems]
    # one row per variable, one column per element; a nonzero nullspace
    # vector is a dependence among the differentials
    rows: List[List[Poly]] = []
    for v in field.base_vars:
        entries = [fn.derivative(v) for fn in fns]
        den = common_denominator(entries)
        rows.append([numerator_over(d, den) for d in entries])
    return not nullspace(rows, len(elems))


def is_regular_quadric(q: QuasilinearForm) -> RegularityReport:
    """Whether the projective quadric of q is a regular scheme.

    The form is first scaled so its last coefficient is 1.  The always
    available test is independence over the squares of all subset products
    of the remaining coefficients; over a purely rational base field the
    Jacobian test (independence of the coefficient differentials) and the
    splitting-pattern test (anisotropic with pattern (n, n-1, ..., 1)) are
    evaluated as well and must agree, else InconsistencyDetected.

    The products are independent exactly when the norm degree is 2^(n-1),
    which is when splitting_pattern reads (n, n-1, ..., 1) off its bounds:
    the splitting test and the products test are one fact, so the norm
    field is saturated once (span_saturate) and the splitting answer is
    the products answer.  The differentials are the independent check,
    so `regular` keeps the saturation even at depth 0, where
    splitting_pattern may take the norm degree from the differentials at
    the witness point (splitting._jacobian_witness): the products test
    stays independent of the exact differentials it is checked against.
    """
    field = q.field
    scaled = q.scale(q.coeffs[-1].invert())
    n = q.dim
    front = list(scaled.coeffs[:-1])

    span = span_saturate(field, front)
    products_independent = len(span) == 1 << (n - 1)

    differentials: Optional[bool] = None
    generic: Optional[bool] = None
    if field.depth == 0:
        differentials = _differentials_independent(field, front)
        generic = products_independent
        if differentials != products_independent:
            raise InconsistencyDetected(
                "regularity conditions disagree: products and splitting "
                f"{products_independent}, differentials {differentials}")
    return RegularityReport(
        regular=products_independent,
        coefficient_products_independent=products_independent,
        differentials_independent=differentials,
        generic_splitting=generic,
    )
