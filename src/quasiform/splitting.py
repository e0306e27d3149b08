"""Function fields of quasilinear quadrics and splitting invariants.

The function field of the quadric q = 0 is built in the affine chart with
first coordinate 1: adjoin transcendentals for the middle coordinates, then
one inseparable generator y solving for the last coordinate.  Iterating
anisotropic part / function field yields the splitting pattern; its first
step is the first Witt index.

`function_field` is the one builder.  Its anisotropy test reads the rank
the form object owns (`QuasilinearForm.independent`), so a form that was
ranked before, or that is known anisotropic by construction (an
anisotropic part, a subform of a form ranked anisotropic), pays nothing
for it.  Its checks on the form (`_require_function_field`) are also
those of a caller that may answer without building the field.

`over_own_function_field` is the one rule for q over k(q), which the
levels of the splitting pattern down to dimension 4, the first Witt index
and the r of a ruling read; a ruling also takes the square system the
rule's rank built, and solves its projection on it.  The generic point of
k(q) is a zero of q, so q's last coefficient is in the span of the others
over the squares there, and only the first dim - 1 coefficients are
ranked.  An anisotropic form of dimension 2 or 3 has first Witt index 1
(splitting_pattern), so the rest of the pattern is read off its dimension
and no field is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DimensionTooSmall, IsotropicInput
from .fieldtower import FieldTower, TowerElem, fresh_names
from .forms import (
    QuasilinearForm,
    anisotropic_part,
    is_anisotropic,
    total_index,
)
from .sqlinalg import _independent, _SquareBlocks


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
    """
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
    return FunctionFieldData(tower=tower, generic_point=point,
                             fresh_names=tuple(unames) + (yname,))


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


def splitting_pattern(q: QuasilinearForm) -> SplittingPattern:
    """Dimensions (dim q_0, ..., dim q_h) of the iterated anisotropic parts
    over the tower of function fields, down to dimension <= 1.

    Function fields are built only while the anisotropic part has
    dimension >= 4.  An anisotropic form of dimension 2 or 3 has first Witt
    index 1, the Hoffmann-Laghribi bound (hl_bound) at its value 1, so the
    rest of the pattern is dim - 1, ..., 1.  Elementary proofs, for q
    anisotropic over a field F of characteristic 2, in the chart of
    function_field (scaling q changes neither its quadric nor the
    dimensions of its anisotropic parts):

    - dim 2, q = <a_1, a_2>: k(q) = F(y) with y^2 = a_1 / a_2, so
      a_1 = a_2 y^2 and one dimension is left.
    - dim 3, q = <1, a, b>: q is isotropic over k(q), so at most two
      dimensions are left.  Suppose a and b were both squares in
      k(q) = F(u)(y).  As a is not a square in F (q is anisotropic), nor
      in the purely transcendental F(u), k(q) = F(u)(sqrt a), and so
      b in F(u)^2(a) = F^2(a)(u^2).  Its elements in F are those of
      F^2(a) = F^2 + a F^2, so b = x^2 + a z^2 with x, z in F, and
      <1, a, b> would be isotropic over F.  So two dimensions are left.
    """
    current = anisotropic_part(q)
    dims: List[int] = [current.dim]
    while current.dim >= 4:
        current = anisotropic_part(over_own_function_field(current)[1])
        dims.append(current.dim)
    # i_1 = 1 from here on (docstring)
    dims.extend(range(current.dim - 1, 0, -1))
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
