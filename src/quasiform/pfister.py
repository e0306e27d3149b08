"""Quasi-Pfister forms, norm fields, neighbors, and Albert multiplication.

An n-fold quasi-Pfister form <<a_1,...,a_n>> is the 2^n-dimensional diagonal
form of all subset products of its slots.  Subset indices follow binary
counter order: coefficient at mask m is the product of slots[i] over the set
bits of m, so <<a,b,c>> expands to <1,a,b,ab,c,ac,bc,abc>.

The norm field of a form (normalized to represent 1) is the algebra its
coefficients generate over the squares; its dimension, the norm degree, is a
power of two, and the form is a quasi-Pfister neighbor exactly when its
dimension exceeds half its norm degree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import (
    BadDecomposition,
    InconsistencyDetected,
    IndexMismatch,
    ZeroSlot,
)
from .fieldtower import FieldTower, TowerElem, fresh_names
from .forms import QuasilinearForm
from .maps import RationalMap
from .splitting import _norm_basis, function_field
from .sqlinalg import square_combination


class QuasiPfisterForm:
    """Slots plus their full subset-product expansion in binary counter order."""

    __slots__ = ("field", "slots", "expansion")

    def __init__(self, field: FieldTower, slots: Sequence[TowerElem]):
        slots = tuple(slots)
        for i, s in enumerate(slots):
            if s.tower != field:
                raise ValueError(f"slot {i} lives in a different tower")
            if s.is_zero:
                raise ZeroSlot(f"slot {i} is zero")
        expansion = [field.one()]
        for s in slots:
            expansion.extend([s * e for e in expansion])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "expansion", tuple(expansion))

    def __setattr__(self, *a):
        raise AttributeError("QuasiPfisterForm is immutable")

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def form(self) -> QuasilinearForm:
        return QuasilinearForm(self.field, self.expansion)

    def evaluate(self, x: Sequence[TowerElem]) -> TowerElem:
        """P(x) = sum of expansion[m] * x_m^2 over a common tower."""
        if len(x) != self.dim:
            raise IndexMismatch(
                f"vector length {len(x)} != form dimension {self.dim}")
        tower = x[0].tower
        return square_combination(
            x, [self.field.embed(c, tower) for c in self.expansion])

    def __str__(self) -> str:
        return "<<" + ", ".join(str(s) for s in self.slots) + ">>"

    def __repr__(self) -> str:
        return f"QuasiPfisterForm({self})"


def quasi_pfister(slots: Sequence[TowerElem],
                  field: Optional[FieldTower] = None) -> QuasilinearForm:
    """The diagonal form of all subset products of the slots."""
    if field is None:
        if not slots:
            raise ValueError("empty slot list needs an explicit field")
        field = slots[0].tower
    return QuasiPfisterForm(field, slots).form()


class NormField:
    """Basis over squares of the field generated by a form's normalized
    coefficients, in binary counter order (see span_saturate): the basis
    element at index m is the product of the adjoined coefficients over
    the set bits of m, so the basis is the expansion of the quasi-Pfister
    form whose slots sit at the powers of two."""

    __slots__ = ("base", "basis")

    def __init__(self, base: FieldTower, basis: Sequence[TowerElem]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", tuple(basis))

    def __setattr__(self, *a):
        raise AttributeError("NormField is immutable")

    @property
    def degree(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"NormField(degree={self.degree})"


def norm_degree(q: QuasilinearForm) -> Tuple[int, NormField]:
    """Dimension over squares of the algebra generated by the coefficients
    of q normalized to represent 1, together with that algebra (the
    saturation is splitting._norm_basis, which splitting_pattern and
    birational.is_isotropic_over also run).  Its generators are the
    products a_1 a_i, the ratios a_i/a_1 times the square a_1^2: the same
    field and degree, and each basis element, and so each slot of
    is_quasi_pfister_neighbor, is the ratios' one times a square."""
    basis = _norm_basis(q)
    return len(basis), NormField(q.field, basis)


def norm_field_slots(nf: NormField) -> List[TowerElem]:
    """A minimal multiplicative generating set: the basis elements at the
    powers of two, whose subset products in binary counter order are the
    whole basis.  Each slot doubles the span over squares, so there are
    log2(degree) of them."""
    slots = [nf.basis[1 << i] for i in range(nf.degree.bit_length() - 1)]
    if QuasiPfisterForm(nf.base, slots).expansion != nf.basis:
        raise InconsistencyDetected("slot extraction lost part of the norm field")
    return slots


def is_quasi_pfister_neighbor(q: QuasilinearForm) -> Optional[QuasiPfisterForm]:
    """The quasi-Pfister form of q's norm field when dim q exceeds half the
    norm degree; None otherwise.  Detection is relative to the norm field,
    the smallest quasi-Pfister form whose span contains the normalized
    coefficients."""
    degree, nf = norm_degree(q)
    if 2 * q.dim <= degree:
        return None
    return QuasiPfisterForm(q.field, norm_field_slots(nf))


def albert_multiply(P: QuasiPfisterForm, x: Sequence[TowerElem],
                    y: Sequence[TowerElem]) -> List[TowerElem]:
    """Albert's bilinear product on coordinates of P: the U-component is
    the sum over S xor T = U of x_S * y_T * P.expansion[S and T]; it
    satisfies P(x o y) = P(x) * P(y)."""
    dim = P.dim
    if len(x) != dim or len(y) != dim:
        raise IndexMismatch(
            f"vectors of length {len(x)}, {len(y)} for a form of dimension {dim}")
    tower = x[0].tower
    coeffs = [P.field.embed(c, tower) for c in P.expansion]
    zero = tower.zero()
    out = [zero] * dim
    for s in range(dim):
        xs = x[s]
        if xs.is_zero:
            continue
        for t in range(dim):
            yt = y[t]
            if yt.is_zero:
                continue
            u = s ^ t
            out[u] = out[u] + xs * yt * coeffs[s & t]
    return out


class SpecialRulingCertificate:
    """Ambient identity behind the special neighbor ruling: evaluating the
    target form on the image coordinates equals P(x_s) times the source
    form, identically in free coordinates.  The certificate is immutable;
    verify() rebuilds both sides."""

    __slots__ = ("P", "indices", "multipliers", "lhs", "rhs")

    def __init__(self, P: QuasiPfisterForm, indices: Tuple[int, ...],
                 multipliers: Tuple[TowerElem, ...],
                 lhs: TowerElem, rhs: TowerElem):
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("SpecialRulingCertificate is immutable")

    def verify(self) -> bool:
        *_, lhs, rhs = _ambient_identity(self.P, self.indices,
                                         self.multipliers)
        return lhs == rhs and lhs == self.lhs and rhs == self.rhs

    def __repr__(self) -> str:
        return f"SpecialRulingCertificate({self.lhs} == {self.rhs})"


def _block_forms(P: QuasiPfisterForm, indices: Tuple[int, ...],
                 multipliers: Sequence[TowerElem]
                 ) -> Tuple[QuasilinearForm, QuasilinearForm]:
    """source = b_1 P | ... | b_{s-1} P | b_s P_1  and
    target = b_1 P | ... | b_{s-1} P | <b_s>."""
    field = P.field
    s = len(multipliers)
    src: List[TowerElem] = []
    tgt: List[TowerElem] = []
    for b in multipliers[:-1]:
        src.extend(b * c for c in P.expansion)
        tgt.extend(b * c for c in P.expansion)
    bs = multipliers[-1]
    src.extend(bs * P.expansion[i] for i in indices)
    tgt.append(bs)
    return QuasilinearForm(field, src), QuasilinearForm(field, tgt)


def _pad(xs_small: Sequence[TowerElem], indices: Tuple[int, ...],
         dim: int, tower: FieldTower) -> List[TowerElem]:
    full = [tower.zero()] * dim
    for value, i in zip(xs_small, indices):
        full[i] = value
    return full


def _ambient_identity(P: QuasiPfisterForm, indices: Tuple[int, ...],
                      multipliers: Sequence[TowerElem]
                      ) -> Tuple[QuasilinearForm, QuasilinearForm,
                                 "FieldTower", List[TowerElem],
                                 TowerElem, TowerElem]:
    """The ambient identity  target(image(x)) = P(x_s) * source(x)  over
    fresh transcendental coordinates.

    Returns the source and target forms (`_block_forms`), the coordinate
    tower, the image coordinates over it, and both sides of the identity.
    """
    field = P.field
    s = len(multipliers)
    dim = P.dim
    names: List[List[str]] = []
    tower = field
    for j in range(1, s):
        block = fresh_names(tower, f"x{j}_", dim)
        tower = tower.extend_transcendental(block)
        names.append(block)
    xs_names = fresh_names(tower, "xs_", len(indices))
    tower = tower.extend_transcendental(xs_names)

    blocks = [[tower.var(n) for n in block] for block in names]
    xs_small = [tower.var(n) for n in xs_names]
    xs_full = _pad(xs_small, indices, dim, tower)

    source, target = _block_forms(P, indices, multipliers)
    image: List[TowerElem] = []
    for xj in blocks:
        image.extend(albert_multiply(P, xs_full, xj))
    p_of_xs = P.evaluate(xs_full)
    image.append(p_of_xs)

    flat = [x for block in blocks for x in block] + xs_small
    lhs = target.over(tower).evaluate(image)
    rhs = p_of_xs * source.over(tower).evaluate(flat)
    return source, target, tower, image, lhs, rhs


def special_neighbor_ruling(P: QuasiPfisterForm,
                            p1_indices: Sequence[int],
                            b: Sequence[TowerElem]) -> RationalMap:
    """The ruling map (x_1,...,x_s) -> (x_s o x_1, ..., x_s o x_{s-1}, P(x_s))
    from the quadric of b_1 P | ... | b_s P_1 to the quadric of
    b_1 P | ... | b_{s-1} P | <b_s>, where P_1 is the coordinate subform of
    P on the given expansion indices.

    The attached certificate is the polynomial identity
    target(image(x)) = P(x_s) * source(x) in free coordinates, which shows
    every point of the source quadric lands on the target quadric.

    For s = 1 the target is one-dimensional and its quadric has no points:
    the single coordinate P(x_1) is the source equation up to the unit b_1,
    so it vanishes identically on the source quadric.  The map is then
    returned over the free ambient coordinates (ambient=True) with the
    certificate witnessing the vanishing.
    """
    indices = tuple(p1_indices)
    if not indices:
        raise BadDecomposition("subform needs at least one coordinate")
    if len(set(indices)) != len(indices) or sorted(indices) != list(indices):
        raise BadDecomposition("subform indices must be strictly increasing")
    if indices[0] < 0 or indices[-1] >= P.dim:
        raise BadDecomposition(
            f"subform indices out of range for dimension {P.dim}")
    multipliers = tuple(b)
    if not multipliers:
        raise BadDecomposition("at least one multiplier is required")
    for i, m in enumerate(multipliers):
        if m.is_zero:
            raise BadDecomposition(f"multiplier {i} is zero")
        if m.tower != P.field:
            raise ValueError(f"multiplier {i} lives in a different tower")

    source, target, ambient, image, lhs, rhs = _ambient_identity(
        P, indices, multipliers)
    if lhs != rhs:
        raise InconsistencyDetected("special ruling identity failed")
    certificate = SpecialRulingCertificate(P, indices, multipliers, lhs, rhs)

    s = len(multipliers)
    if s == 1:
        return RationalMap(ambient, image, target,
                           certificate=certificate, ambient=True)

    ff = function_field(source)
    K = ff.tower
    gp = list(ff.generic_point)
    dim = P.dim
    blocks = [gp[j * dim:(j + 1) * dim] for j in range(s - 1)]
    xs_small = gp[(s - 1) * dim:]
    xs_full = _pad(xs_small, indices, dim, K)
    coords: List[TowerElem] = []
    for xj in blocks:
        coords.extend(albert_multiply(P, xs_full, xj))
    coords.append(P.evaluate(xs_full))
    return RationalMap(K, coords, target, certificate=certificate)
