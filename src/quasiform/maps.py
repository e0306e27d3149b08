"""Rational maps between quadrics, with exact symbolic certificates."""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, InconsistencyDetected
from .fieldtower import FieldTower, TowerElem
from .forms import QuasilinearForm
from .sqlinalg import square_combination_vanishes


class RationalMap:
    """A projective-coordinate map from a quadric into a target quadric.

    `coords` live over `source_field` (typically the function field of the
    source quadric), one per coefficient of the target; construction
    checks that the target form vanishes on them exactly and that they are
    not all zero.  `certificate`, when present, carries an independently
    re-verifiable symbolic identity.

    With `ambient=True` the coordinates are written over a free ambient
    coordinate field instead of the source quadric's function field, so
    pointwise vanishing cannot be checked; a certificate proving the
    vanishing modulo the source equation is then mandatory and is verified
    in its place.  This covers degenerate targets whose quadric has no
    points, where the coordinate formulas vanish identically on the source.
    """

    __slots__ = ("source_field", "coords", "target", "certificate", "ambient")

    def __init__(self, source_field: FieldTower,
                 coords: Sequence[TowerElem],
                 target: QuasilinearForm,
                 certificate=None,
                 ambient: bool = False):
        coords = tuple(coords)
        if len(coords) != target.dim:
            raise DimensionMismatch(
                f"vector length {len(coords)} != form dimension {target.dim}")
        if all(c.is_zero for c in coords):
            raise InconsistencyDetected("rational map with all-zero coordinates")
        for c in coords:
            if c.tower != source_field:
                raise ValueError("coordinate outside the source field")
        if ambient:
            if certificate is None:
                raise ValueError(
                    "an ambient map needs a certificate for its vanishing")
            if not certificate.verify():
                raise InconsistencyDetected(
                    "certificate of an ambient map does not verify")
        elif not square_combination_vanishes(
                coords, target.over(source_field).coeffs):
            raise InconsistencyDetected(
                "target form does not vanish on the map's coordinates")
        object.__setattr__(self, "source_field", source_field)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, *a):
        raise AttributeError("RationalMap is immutable")

    def verify(self) -> bool:
        """Re-check the vanishing invariant and any attached certificate."""
        if all(c.is_zero for c in self.coords):
            return False
        if not self.ambient and not square_combination_vanishes(
                self.coords, self.target.over(self.source_field).coeffs):
            return False
        if self.certificate is not None:
            return self.certificate.verify()
        return not self.ambient

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"RationalMap({self} -> {self.target})"


def projectively_equal(v: Sequence[TowerElem],
                       w: Sequence[TowerElem]) -> bool:
    """Equality of projective tuples by cross-multiplication of all pairs."""
    if len(v) != len(w):
        return False
    if all(x.is_zero for x in v) or all(x.is_zero for x in w):
        return False
    for i in range(len(v)):
        for j in range(len(v)):
            if v[i] * w[j] != v[j] * w[i]:
                return False
    return True
