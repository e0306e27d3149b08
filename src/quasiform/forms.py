"""Quasilinear quadratic forms <a_1,...,a_n> and their intrinsic invariants.

A quasilinear form over a field K of characteristic 2 is a diagonal form
q(x) = a_1 x_1^2 + ... + a_n x_n^2.  Its isotropic vectors form a K-linear
subspace, and everything intrinsic reduces to linear algebra over the
subfield of squares: anisotropy, total index and isometry read the rank of
the coefficient list, and similarity solves one square system over the
span of the target form's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BadCodimension,
    DimensionMismatch,
    IsotropicInput,
    ZeroCoefficient,
    ZeroElement,
)
from .fieldtower import FieldTower, TowerElem, fresh_names
from .sqlinalg import (
    k2_rank,
    kernel_from_coefficients,
    square_combination,
    square_nullspace_multi,
    square_span_contains,
)


class QuasilinearForm:
    """A diagonal quadratic form with nonzero coefficients in a field tower.

    The form owns its coefficients' rank over the squares: `independent()`
    ranks once, and every invariant of the form object reads that rank.
    It owns its function field the same way: `splitting.function_field`
    builds k(q) once per form object and keeps it in `_function_field`.
    A form made from another (subform, over, scale, anisotropic part) is
    a new object and starts without one."""

    __slots__ = ("field", "coeffs", "_independent", "_function_field")

    def __init__(self, field: FieldTower, coeffs: Sequence[TowerElem]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ZeroCoefficient("a form needs at least one coefficient")
        for i, c in enumerate(coeffs):
            if c.tower != field:
                raise ValueError(f"coefficient {i} lives in a different tower")
            if c.is_zero:
                raise ZeroCoefficient(f"coefficient {i} is zero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_independent", None)
        object.__setattr__(self, "_function_field", None)

    def __setattr__(self, *a):
        raise AttributeError("QuasilinearForm is immutable")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def independent(self) -> Tuple[TowerElem, ...]:
        """The earliest maximal coefficient sub-list independent over the
        squares, ranked on first use."""
        indep = self._independent
        if indep is None:
            indep = tuple(k2_rank(self.coeffs)[1])
            object.__setattr__(self, "_independent", indep)
        return indep

    def evaluate(self, vector: Sequence[TowerElem]) -> TowerElem:
        if len(vector) != self.dim:
            raise DimensionMismatch(
                f"vector length {len(vector)} != form dimension {self.dim}")
        return square_combination(vector, self.coeffs)

    def scale(self, c: TowerElem) -> "QuasilinearForm":
        if c.is_zero:
            raise ZeroElement("scaling a form by zero")
        return QuasilinearForm(self.field, [c * a for a in self.coeffs])

    def subform(self, indices: Sequence[int]) -> "QuasilinearForm":
        indices = list(indices)
        # a negative index would name a coordinate twice under two numbers
        if not all(0 <= i < self.dim for i in indices):
            raise DimensionMismatch(
                f"subform indices {indices} out of range for dimension "
                f"{self.dim}")
        sub = QuasilinearForm(self.field, [self.coeffs[i] for i in indices])
        # a subform on distinct coordinates of a form ranked anisotropic is
        # anisotropic: a zero of it, padded with zeros, is a zero of the form
        if (self._independent == self.coeffs
                and len(set(indices)) == len(indices)):
            object.__setattr__(sub, "_independent", sub.coeffs)
        return sub

    def over(self, K: FieldTower) -> "QuasilinearForm":
        """The same form with coefficients embedded into a larger tower."""
        if K == self.field:
            return self
        return QuasilinearForm(K, [self.field.embed(c, K) for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuasilinearForm)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        return "<" + ", ".join(str(c) for c in self.coeffs) + ">"

    def __repr__(self) -> str:
        return f"QuasilinearForm({self})"


@dataclass(frozen=True)
class FormInvariants:
    dim: int
    total_index: int
    anisotropic_dim: int


def total_index(q: QuasilinearForm) -> int:
    """dim q minus the rank of the coefficients over squares."""
    return q.dim - len(q.independent())


def anisotropic_part(q: QuasilinearForm) -> QuasilinearForm:
    """The form on the earliest maximal independent coefficient sub-list."""
    part = QuasilinearForm(q.field, q.independent())
    # independent over the squares by construction: anisotropic
    object.__setattr__(part, "_independent", part.coeffs)
    return part


def invariants(q: QuasilinearForm) -> FormInvariants:
    it = total_index(q)
    return FormInvariants(dim=q.dim, total_index=it, anisotropic_dim=q.dim - it)


def is_anisotropic(q: QuasilinearForm) -> bool:
    return len(q.independent()) == q.dim


def is_isometric(q: QuasilinearForm, q2: QuasilinearForm) -> bool:
    """Equal dimension and equal coefficient spans over squares.  The spans
    are compared by rank and one-way membership: a subspace of the same
    finite dimension is the whole space."""
    if q.field != q2.field:
        raise ValueError("forms live over different towers")
    if q.dim != q2.dim:
        return False
    basis1, basis2 = q.independent(), q2.independent()
    if len(basis1) != len(basis2):
        return False
    return square_span_contains(basis1, basis2)


def decide_similar(q: QuasilinearForm,
                   q2: QuasilinearForm) -> Optional[TowerElem]:
    """A factor c with c*q isometric to q2, or None when no factor exists.

    Both forms are normalized to represent 1, as v (v_0 = 1) and w (w_0 = 1).
    A factor c = c*1 then lies in span(w), so it is written over w itself as
    c = sum_k e_k^2 w_k, which makes c*v_0 in span(w) hold by construction.
    Each j = 1..d-1 asks for c*v_j in span(w):

        sum_k e_k^2 (w_k v_j) + sum_k f_{j,k}^2 w_k = 0.

    Any nonzero kernel vector has e != 0: e = 0 would leave
    sum_k f_{j,k}^2 w_k = 0, and the w_k are independent over squares (q2 is
    anisotropic), so f = 0 too.  Then c != 0 for the same reason, so c is
    invertible and c*span(v), of the same dimension as span(w), equals it.
    Conversely every factor lies in span(w) and solves the system, so the
    kernel is nonzero exactly when the forms are similar, and any one
    kernel vector gives a factor.  For d = 1 there is no equation and
    c = 1, giving the factor b/a for <a> and <b>.
    """
    if q.field != q2.field:
        raise ValueError("forms live over different towers")
    if q.dim != q2.dim:
        raise DimensionMismatch(
            f"similarity needs equal dimensions, got {q.dim} and {q2.dim}")
    if not is_anisotropic(q) or not is_anisotropic(q2):
        raise IsotropicInput("similarity decision expects anisotropic forms")
    field = q.field
    if is_isometric(q, q2):
        return field.one()
    a1, b1 = q.coeffs[0], q2.coeffs[0]
    v = [a1.invert() * c for c in q.coeffs]       # represents 1
    w = [b1.invert() * c for c in q2.coeffs]      # represents 1
    d = q.dim
    # unknown roots: e_k (c over w), then f_{j,k} per equation j >= 1
    zero = field.zero()
    gen_rows: List[List[TowerElem]] = []
    for j in range(1, d):
        row = [wk * v[j] for wk in w] + [zero] * ((d - 1) * d)
        row[j * d:(j + 1) * d] = w
        gen_rows.append(row)
    kernel = square_nullspace_multi(gen_rows) if gen_rows else [field.one()]
    if kernel is None:
        return None
    factor = square_combination(kernel[:d], w) * b1 * a1.invert()
    if not is_isometric(q.scale(factor), q2):
        raise AssertionError("similarity factor failed isometry check")
    return factor


def generic_subform(q: QuasilinearForm, j: int) -> QuasilinearForm:
    """Restrict j times to a generic hyperplane x_d = c_1 x_1 + ... +
    c_{d-1} x_{d-1} with fresh transcendental c_i; the restriction stays
    diagonal in characteristic 2 with coefficients a_i + a_d c_i^2."""
    if not 0 <= j <= q.dim - 2:
        raise BadCodimension(
            f"codimension {j} out of range for dimension {q.dim}")
    if not is_anisotropic(q):
        raise IsotropicInput("generic subforms expect an anisotropic form")
    form = q
    for _ in range(j):
        d = form.dim
        names = fresh_names(form.field, "c", d - 1)
        K = form.field.extend_transcendental(names)
        old = [form.field.embed(c, K) for c in form.coeffs]
        cs = [K.var(n) for n in names]
        new_coeffs = [old[i] + old[d - 1] * cs[i].square()
                      for i in range(d - 1)]
        form = QuasilinearForm(K, new_coeffs)
    return form


def isotropic_vectors_basis(q: QuasilinearForm) -> List[List[TowerElem]]:
    """Basis of the subspace of isotropic vectors over the base tower."""
    return kernel_from_coefficients(q.coeffs)
