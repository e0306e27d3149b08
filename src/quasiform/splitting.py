"""Function fields of quasilinear quadrics and splitting invariants.

The function field of the quadric q = 0 is built in the affine chart with
first coordinate 1: adjoin transcendentals for the middle coordinates, then
one inseparable generator y solving for the last coordinate.  Iterating
anisotropic part / function field yields the splitting pattern; its first
step is the first Witt index.

`function_field` is the one builder.  A form owns its function field as
it owns its rank: the field is built on the first call for a form object
and kept on it, so every later call on that object returns the same
`FunctionFieldData`, and no cache outlives the form.  Its anisotropy test
reads the rank the form object owns (`QuasilinearForm.independent`), so a
form that was ranked before, or that is known anisotropic by
construction (an anisotropic part, a subform of a form ranked
anisotropic), pays nothing for it.  Its checks on the form
(`_require_function_field`) are also those of a caller that may answer
without building the field; they run on every call that finds no field,
so an error is raised each time and never kept.

`over_own_function_field` is the one rule for q over k(q), which the open
levels of the splitting pattern, the first Witt index and the r of a
ruling read; a ruling also takes the square system the rule's rank built,
and solves its projection on it.  The generic point of k(q) is a zero of
q, so q's last coefficient is in the span of the others over the squares
there, and only the first dim - 1 coefficients are ranked.

The norm degree bounds the first Witt index from both sides and halves at
each level (splitting_pattern).  The pattern finds it once, for its first
level, and builds a field only for a level whose bounds do not meet.  A
first level of dim d <= 3 has norm degree 2^(d - 1) with no test
(`_norm_basis`).  Over a rational field (depth 0) the rank of the
Jacobian of the normalized coefficients at the witness point proves it
when that rank meets its upper bound (`_jacobian_witness`).  Otherwise
the norm field is saturated (`_norm_basis`, which `pfister.norm_degree`
also runs).  The pattern's length is one more than log2 of the norm
degree, which the invariants report reads.  So the pattern is
(d, d - 1, ..., 1) exactly when the norm degree is 2^(d - 1):
`is_regular_quadric`'s splitting test and its products test are one fact.

`_norm_basis` is the one saturation of a norm field, generated by the
products a_1 a_i, which need no inverse.  `birational.is_isotropic_over`
also reads its span: for a quasi-Pfister neighbour p, isotropy over k(q)
is the inclusion of q's norm field in p's, tested there with no field
built, and the Jacobian above tells it where p cannot be a neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import _gfnum
from .errors import DimensionTooSmall, InconsistencyDetected, IsotropicInput
from .fieldtower import FieldTower, TowerElem, fresh_names
from .forms import (
    QuasilinearForm,
    anisotropic_part,
    is_anisotropic,
    total_index,
)
from .sqlinalg import _independent, _saturate, _SquareBlocks


@dataclass(frozen=True)
class FunctionFieldData:
    """The function field of a quadric with its generic point.

    `fresh_names` lists the transcendentals introduced for the middle
    coordinates followed by the name of the inseparable generator.
    """

    tower: FieldTower
    generic_point: Tuple[TowerElem, ...]
    fresh_names: Tuple[str, ...]


@dataclass(frozen=True)
class SplittingPattern:
    dims: Tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("empty splitting pattern")
        for a, b in zip(self.dims, self.dims[1:]):
            if b >= a:
                raise ValueError("splitting pattern must strictly decrease")
        if self.dims[-1] > 1:
            raise ValueError("splitting pattern must end at dimension <= 1")

    @property
    def norm_degree(self) -> int:
        """The norm degree of the form's anisotropic part: each level
        halves it, down to 1 at dimension 1 (splitting_pattern)."""
        return 1 << (len(self.dims) - 1)

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.dims) + ")"


def _require_function_field(q: QuasilinearForm) -> None:
    """Raise as function_field does on a form it builds no field for: one
    of dimension < 2, or an isotropic one."""
    if q.dim < 2:
        raise DimensionTooSmall(
            f"function field needs dimension >= 2, got {q.dim}")
    if not is_anisotropic(q):
        raise IsotropicInput(
            "function field construction expects an anisotropic form")


def function_field(q: QuasilinearForm) -> FunctionFieldData:
    """k(q) in the chart x_1 = 1, solving for the last coordinate.

    For q = <a_1,...,a_d>: adjoin transcendentals u for x_2..x_{d-1}, set
    theta = (a_1 + a_2 u_1^2 + ... + a_{d-1} u_{d-2}^2) / a_d and extend by
    y with y^2 = theta; the generic point is (1, u_1, ..., u_{d-2}, y).

    Built once per form object and kept on it: a later call returns the
    same data.  A form with no function field raises on every call.
    """
    ff = q._function_field
    if ff is not None:
        return ff
    _require_function_field(q)
    d = q.dim
    # theta is not a square: a root s of theta in K = F(u) would make
    # (1, u_1, ..., u_{d-2}, s) a nonzero zero of q over K, and q
    # anisotropic over F stays anisotropic over the purely transcendental
    # extension K.  The generic point is a zero of q by the definition of
    # theta: a_1 + sum a_i u_i^2 + a_d y^2 = a_1 + sum a_i u_i^2 + a_d theta
    # = 0.  Neither fact is tested again here.  The second also makes q's
    # last coefficient dependent over k(q), which over_own_function_field
    # uses to rank only the others.
    base = q.field
    unames = fresh_names(base, "u", d - 2)
    yname = fresh_names(base, "y", 1)[0]
    K = base.extend_transcendental(unames)
    coeffs = [base.embed(c, K) for c in q.coeffs]
    us = [K.var(n) for n in unames]
    num = coeffs[0]
    for a, u in zip(coeffs[1:-1], us):
        num = num + a * u.square()
    theta = num * coeffs[-1].invert()
    tower = K._extend_non_square(theta, yname)
    point = tuple([tower.one()]
                  + [K.embed(u, tower) for u in us]
                  + [tower.gen_by_name(yname)])
    ff = FunctionFieldData(tower=tower, generic_point=point,
                           fresh_names=tuple(unames) + (yname,))
    object.__setattr__(q, "_function_field", ff)
    return ff


def total_index_over(q: QuasilinearForm, K_ext: FieldTower) -> int:
    """Total index of q after structural embedding into a larger tower."""
    return q.dim - len(q.over(K_ext).independent())


def over_own_function_field(
        q: QuasilinearForm) -> Tuple[FunctionFieldData, QuasilinearForm]:
    """k(q) and q over it, ranked without its last coefficient.

    The generic point (1, u_1, ..., u_{d-2}, y) of k(q) is a zero of q
    (function_field), and y is not zero, so over k(q)

        a_d = y^-2 (a_1 + a_2 u_1^2 + ... + a_{d-1} u_{d-2}^2)

    lies in the span of a_1, ..., a_{d-1} over the squares.  The greedy
    rank keeps a coefficient only when it is outside the span of those
    before it, so it never keeps a_d: the independent sub-list of q over
    k(q) is that of its first d - 1 coefficients, and only they are
    ranked.  The field is built here from q itself, so the rank is never
    paired with another form's field, and the form returned is a new
    object (k(q) is never q's own field), so the caller's q is not marked.
    Raises as the first Witt index does on a form of dimension < 2 or an
    isotropic form.
    """
    return _over_own_function_field(q)[:2]


def _over_own_function_field(
        q: QuasilinearForm
) -> Tuple[FunctionFieldData, QuasilinearForm, Optional[_SquareBlocks],
           List[int]]:
    """over_own_function_field, with the square system its rank built over
    k(q), whose columns are q's first dim - 1 coefficients (None for
    dim 2, whose one coefficient takes no step), and the indices the rank
    kept on it.  A ruling solves its projection on that system."""
    if q.dim < 2:
        raise DimensionTooSmall(
            f"first Witt index needs dimension >= 2, got {q.dim}")
    if not is_anisotropic(q):
        raise IsotropicInput("first Witt index expects an anisotropic form")
    ff = function_field(q)
    over = q.over(ff.tower)
    # a_d is dependent over k(q) by the proof above: rank the others only
    system, kept = _independent(over.coeffs[:-1])
    object.__setattr__(over, "_independent",
                       tuple(over.coeffs[i] for i in kept))
    return ff, over, system, kept


def _norm_basis(q: QuasilinearForm) -> List[TowerElem]:
    """A basis over the squares of q's norm field, the field generated over
    K^2 by q's coefficients normalized to represent 1, in binary counter
    order (span_saturate); its length is the norm degree.

    The generators are e_i = a_1 a_{i+1}, the ratios a_{i+1}/a_1 times the
    square a_1^2.  So they generate the same field over K^2, each lies
    outside the span so far exactly when its ratio does, and the degree
    and the counter order are those of the ratios; but a_1's denominator
    never enters the square systems.

    The first two doublings of the saturation need no test.  q is
    anisotropic exactly when a_1, ..., a_d are independent over K^2, and
    multiplying by a_1 is a K^2-linear bijection of K, so a_1^2, e_1, ...,
    e_{d-1} are independent too, and so are 1, e_1, ..., e_{d-1} (a_1^2 is
    a nonzero square).  Then e_1 lies outside span(1) and e_2 outside
    span(1, e_1), so saturating by them always adjoins both, giving
    [1, e_1, e_2, e_2 e_1], the expansion of <<e_1, e_2>>.  No third step
    is implied: <<e_1, e_2>> contains e_1 e_2, so e_3 may already lie in
    it.  Only e_3, ... are tested, by the loop span_saturate runs.

    splitting_pattern reads the length where the Jacobian leaves it open,
    pfister.norm_degree returns the basis, and birational.is_isotropic_over
    tests membership in its span to decide isotropy over k(q) for a
    quasi-Pfister neighbour (its rule (C)).
    """
    if not is_anisotropic(q):
        raise IsotropicInput("norm degree expects an anisotropic form")
    a_1 = q.coeffs[0]
    generators = [a_1 * c for c in q.coeffs[1:]]
    start = [q.field.one()]
    for e in generators[:2]:
        start += [e * s for s in start]
    basis = _saturate(start, generators[2:])
    if len(basis) & (len(basis) - 1):
        raise InconsistencyDetected(
            f"norm field dimension {len(basis)} is not a power of two")
    return basis


def _jacobian_witness(q: QuasilinearForm) -> Tuple[int, int]:
    """(rho, bound) with 2^rho <= ndeg(q) <= 2^bound, for q of dim d over
    a rational field K = F2(t_1, ..., t_n) (depth 0), from the Jacobian of
    q's normalized coefficients at the witness point.  Nothing here needs
    q anisotropic; callers that read the degree as q's invariant check
    that themselves.

    rho is the rank at the point (`_gfnum.ratio_jacobian_rank`) of the
    matrix M of columns c_1 dc_{i+1} + c_{i+1} dc_1, with c_i = num_i den_i
    for a_i = num_i/den_i.  c_i is a_i times the square den_i^2, so
    e_i = c_{i+1}/c_1 generates the same norm field N over K^2 as
    a_{i+1}/a_1, and the column is the gradient of e_i times c_1^2.

    - Lower bound.  D_j = d/dt_j is a derivation of K that kills K^2.  If
      x_i lies in K^2(x_1, ..., x_{i-1}), write x_i = sum_S c_S^2 x^S over
      the square-free products x^S of those x; then
      D_j x_i = sum_{k<i} lambda_k D_j x_k with
      lambda_k = sum_{S containing k} c_S^2 x^(S - k), the same for every
      j.  So x's whose gradients are independent over K each lie outside
      the field the ones before them generate over K^2, each doubles its
      degree, and rank(D_j e_i) = r gives r of the e_i generating a field
      of degree 2^r inside N.  M is that Jacobian with its columns scaled
      by c_1^2 != 0, a matrix of polynomials; a minor of M that is nonzero
      at the point is nonzero, so rho <= r and 2^rho <= ndeg.
    - Upper bounds.  ndeg <= 2^(d-1): each of the d - 1 ratios at most
      doubles the degree.  And ndeg <= 2^v, v the number of rows, the
      variables with an odd exponent in some num_i or den_i: every such
      polynomial lies in K^2(those t_j) (each term is a square times its
      odd variables), a field of degree 2^v over K^2 (the square-free
      monomials in t_1, ..., t_n are a basis of K over K^2).  bound is
      min(d - 1, v), so rho = bound proves ndeg = 2^rho.

    The lower bound holds at every point: M's entries are polynomials,
    read at the point by a ring homomorphism, whatever a_1 or a
    denominator is worth there.  A point that misses M's rank only leaves
    rho below the bound, and the saturation decides.  The proof does not need the
    converse of the lower bound (p-independence is independence of
    differentials, Matsumura, Commutative Ring Theory, section 26); by it
    r = log2 ndeg, so rho meets the bound on every form whose norm degree
    is 2^min(d - 1, v) unless every r x r minor of M vanishes at the
    point.
    """
    rho, rows = _gfnum.ratio_jacobian_rank(
        [(c.coeffs[0].num, c.coeffs[0].den) for c in q.coeffs])
    return rho, min(q.dim - 1, rows)


def _log_norm_degree(q: QuasilinearForm) -> int:
    """log2 of the norm degree of q, anisotropic: at depth 0 the Jacobian
    at the witness point (_jacobian_witness) when its bounds meet, and
    otherwise the saturation (_norm_basis)."""
    if q.field.depth == 0:
        rho, bound = _jacobian_witness(q)
        if rho == bound:
            return rho
    return len(_norm_basis(q)).bit_length() - 1


def splitting_pattern(q: QuasilinearForm) -> SplittingPattern:
    """Dimensions (dim q_0, ..., dim q_h) of the iterated anisotropic parts
    over the tower of function fields, down to dimension <= 1.

    The norm degree bounds each level's first Witt index, and a function
    field is built only for a level whose bounds do not meet.  It is found
    once, for q_0: 2^(d - 1) for d <= 3, at depth 0 from the Jacobian at
    the witness point when that proves it (_jacobian_witness), and
    otherwise by saturation (_norm_basis).  Each later level's is half
    the one before.
    Let q = <a_1, ..., a_d> be anisotropic over a field F of
    characteristic 2, and N(q) = F^2(a_1/a_d, ..., a_{d-1}/a_d) its norm
    field, of degree 2^k over F^2 (normalizing by a_1 instead gives the
    same field: a_i/a_1 = (a_i/a_d) / (a_1/a_d)).  Then

        max(1, d - 2^(k-1)) <= i_1(q) <= d - k,

    and the anisotropic part of q over k(q) has norm degree 2^(k-1).
    Proof, in the chart of function_field: k(q) = L = K(y) with
    K = F(u_1, ..., u_{d-2}), y^2 = theta and
    theta = (a_1 + a_2 u_1^2 + ... + a_{d-1} u_{d-2}^2) / a_d.

    - L^2 = K^2(theta) has degree 2 over K^2 = F^2(u^2), as theta is not
      a square in K (function_field).  theta lies in N(q)(u^2).
    - So L^2(a_i/a_d) = N(q)(u^2).  Its degree over F^2(u^2) is 2^k (the
      u_i^2 are transcendental over F, so a basis of N(q) over F^2 stays
      one), so its degree over L^2 is 2^(k-1).
    - Lower bound: the anisotropic part of q over L has m coefficients
      among the a_i, independent over L^2, and so are their quotients by
      a_d, which lie in that field of dimension 2^(k-1) over L^2:
      m <= 2^(k-1).  And i_1 >= 1: the generic point is a zero.
    - Upper bound: that part's m coefficients span the same L^2-space as
      a_1, ..., a_d, so their ratios generate the same field over L^2,
      N(q)(u^2): its norm field, of degree 2^(k-1).  Each of the m - 1
      normalized coefficients at most doubles the degree, so
      2^(k-1) <= 2^(m-1), and m >= k.

    For d >= 2, k >= 1 (1 and a_2/a_1 are independent).  The bounds meet
    exactly when 2^(k-1) = k (k <= 2) or d - k = 1 (maximal norm degree
    2^(d-1)), and then i_1 = d - k.  The next level, of dim k and norm
    degree 2^(k-1), is maximal, so the rest of the pattern is k, k - 1,
    ..., 1 with no field built.  The elementary cases are ndeg = 2 (dim 2:
    i_1 = 1) and ndeg = 4 (dim 3: i_1 = 1; dim 4: i_1 = 2).  Where the
    bounds are open, k(q) is built, and the next level's norm degree is
    still 2^(k-1), with no second saturation.  Each level halves the norm
    degree and a form of dim 1 has norm degree 1, so the pattern has
    k + 1 entries (SplittingPattern.norm_degree).
    """
    current = anisotropic_part(q)
    d = current.dim
    # for d <= 3 the saturation takes only the doublings that need no
    # test (_norm_basis), so k = d - 1
    k = d - 1 if d <= 3 else _log_norm_degree(current)
    dims: List[int] = [d]
    # the bounds are open unless k <= 2 or k = d - 1 (docstring)
    while 2 < k < d - 1:
        current = anisotropic_part(over_own_function_field(current)[1])
        d, k = current.dim, k - 1
        dims.append(d)
    # i_1 = d - k, and every later level has maximal norm degree
    dims.extend(range(k, 0, -1))
    return SplittingPattern(tuple(dims))


def first_witt_index(q: QuasilinearForm) -> int:
    """Total index of q over its own function field."""
    return total_index(over_own_function_field(q)[1])


def essential_dimension(q: QuasilinearForm) -> int:
    """(dim q - 2) - (i_1(q) - 1) for anisotropic q of dimension >= 2."""
    return (q.dim - 2) - (first_witt_index(q) - 1)


def hl_bound(dim: int) -> int:
    """dim - 2^n with 2^n the largest power of two strictly below dim."""
    if dim < 2:
        raise DimensionTooSmall("bound needs dimension >= 2")
    return dim - (1 << (dim - 1).bit_length() - 1)


def check_hl_bound(q: QuasilinearForm) -> bool:
    """First Witt index never exceeds dim minus the largest power of two
    strictly below dim; used as an internal consistency oracle."""
    return first_witt_index(q) <= hl_bound(q.dim)
