"""Towers of purely inseparable quadratic extensions over GF(2)(v1,...,vN).

A tower K = F(y1,...,ys) starts from a rational function field F and adjoins
generators y_i with y_i^2 = theta_i, where theta_i is a non-square element of
the subtower below it.  Elements are stored in normal form as expansions over
the square-free generator monomials y^m (m a bit mask over generators) with
RatFn coefficients; y^2 never appears because multiplication reduces it via
theta on the spot.

Key consequence used for inversion: squaring strips the top generator, so
x^(2^s) always lies in the rational base, giving 1/x = x^(2^s - 1) / x^(2^s).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DivisionByZero,
    EmbeddingFailure,
    IsSquare,
    NameCollision,
    TowerDepthExceeded,
    UnknownVariable,
    ZeroElement,
)
from .gf2poly import (MAX_EXPONENT, Poly, RatFn, _power, _shift,
                      slot_shifts)
from .gf2poly import _poly as _trusted_poly

CoeffMap = Tuple[Tuple[int, RatFn], ...]

DEFAULT_DEPTH_LIMIT = 8


def _freeze(coeffs: Dict[int, RatFn]) -> CoeffMap:
    return tuple(sorted((m, c) for m, c in coeffs.items() if not c.is_zero))


class FieldTower:
    """Immutable description of F2(base_vars)(y1,...,ys), y_i^2 = theta_i.

    `gens` lists (name, theta) pairs in adjunction order; each theta is kept
    as a frozen coefficient map supported on masks of the generators below
    it.  Equality is structural, so independently built identical towers
    compare equal and their elements interoperate.
    """

    __slots__ = ("base_vars", "gens", "depth_limit", "_theta_masks")

    def __init__(
        self,
        base_vars: Tuple[str, ...],
        gens: Tuple[Tuple[str, CoeffMap], ...] = (),
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ):
        names: List[str] = list(base_vars) + [n for n, _ in gens]
        seen = set()
        for n in names:
            if n in seen:
                raise NameCollision(f"duplicate name in tower: {n!r}")
            seen.add(n)
        for i, (_, theta) in enumerate(gens):
            if any(m >> i for m, _ in theta):
                raise ValueError(
                    "defining element must live in the preceding subtower")
        object.__setattr__(self, "base_vars", tuple(base_vars))
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "depth_limit", depth_limit)
        object.__setattr__(self, "_theta_masks", {})

    def __setattr__(self, *a):
        raise AttributeError("FieldTower is immutable")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        # a shared tower, such as a form's own function field, at once
        if self is other:
            return True
        return (isinstance(other, FieldTower)
                and self.base_vars == other.base_vars
                and self.gens == other.gens)

    def __hash__(self) -> int:
        return hash((self.base_vars, self.gens))

    @property
    def depth(self) -> int:
        return len(self.gens)

    @property
    def gen_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.gens)

    @property
    def all_names(self) -> Tuple[str, ...]:
        return self.base_vars + self.gen_names

    def __str__(self) -> str:
        s = f"F2({','.join(self.base_vars)})"
        for name, theta in self.gens:
            s += f"({name}:{name}^2={self._coeffs_str(dict(theta))})"
        return s

    def __repr__(self) -> str:
        return f"FieldTower({self})"

    # -- construction ------------------------------------------------------

    @staticmethod
    def rational(names: Iterable[str],
                 depth_limit: int = DEFAULT_DEPTH_LIMIT) -> "FieldTower":
        return FieldTower(tuple(names), (), depth_limit)

    def extend_transcendental(self, names: Iterable[str]) -> "FieldTower":
        """Adjoin `names` as new base variables; the constructor raises
        NameCollision if one is already in the tower or repeated."""
        return FieldTower(self.base_vars + tuple(names), self.gens,
                          self.depth_limit)

    def extend_inseparable(self, theta: "TowerElem", name: str) -> "FieldTower":
        tower = self._extend_non_square(theta, name)
        if theta.sqrt_in_tower() is not None:
            raise IsSquare(
                "defining element is already a square; extension is trivial")
        return tower

    def _extend_non_square(self, theta: "TowerElem",
                           name: str) -> "FieldTower":
        """extend_inseparable for a theta its caller has proved to be a
        non-square: every check except the square test."""
        if theta.tower != self:
            raise ValueError("defining element belongs to a different tower")
        if theta.is_zero:
            raise ZeroElement("defining element of an extension must be nonzero")
        if self.depth + 1 > self.depth_limit:
            raise TowerDepthExceeded(
                f"tower depth limit {self.depth_limit} exceeded")
        return FieldTower(self.base_vars,
                          self.gens + ((name, _freeze(theta.coeffs)),),
                          self.depth_limit)

    # -- elements ----------------------------------------------------------

    def element(self, coeffs: Dict[int, RatFn]) -> "TowerElem":
        """The element sum_m coeffs[m] * y^m; UnknownVariable if a
        coefficient uses a name outside the base variables."""
        self._check_names(coeffs.values())
        return TowerElem(self, coeffs)

    def zero(self) -> "TowerElem":
        return TowerElem(self, {})

    def one(self) -> "TowerElem":
        return TowerElem(self, {0: RatFn.one()})

    def scalar(self, value) -> "TowerElem":
        """Lift a RatFn or Poly over the base variables into the tower;
        UnknownVariable if its numerator or denominator uses another name."""
        if isinstance(value, Poly):
            value = RatFn.from_poly(value)
        self._check_names((value,))
        return TowerElem(self, {0: value})

    def _check_names(self, fns: Iterable[RatFn]) -> None:
        """UnknownVariable if a numerator or denominator among `fns` uses
        a name outside the base variables."""
        used = 0
        for fn in fns:
            used |= fn.num.packed_or() | fn.den.packed_or()
        stray = [v for v in slot_shifts(used) if v not in self.base_vars]
        if stray:
            raise UnknownVariable(f"undeclared variable(s): {sorted(stray)}")

    def var(self, name: str) -> "TowerElem":
        return TowerElem(
            self, {0: RatFn.from_poly(Poly.variable(name, self.base_vars))})

    def gen(self, i: int) -> "TowerElem":
        if not 0 <= i < self.depth:
            raise IndexError("no such generator")
        return TowerElem(self, {1 << i: RatFn.one()})

    def gen_by_name(self, name: str) -> "TowerElem":
        for i, (n, _) in enumerate(self.gens):
            if n == name:
                return self.gen(i)
        raise KeyError(f"no generator named {name!r}")

    def theta(self, i: int) -> Dict[int, RatFn]:
        return dict(self.gens[i][1])

    # -- embedding ---------------------------------------------------------

    def embeds_into(self, other: "FieldTower") -> bool:
        return (set(self.base_vars) <= set(other.base_vars)
                and self.gens == other.gens[: self.depth])

    def embed(self, x: "TowerElem", into: "FieldTower") -> "TowerElem":
        """Name-preserving structural embedding; no isomorphism search."""
        if x.tower != self:
            raise ValueError("element belongs to a different tower")
        if not self.embeds_into(into):
            raise EmbeddingFailure(
                f"no structural embedding of {self} into {into}")
        return TowerElem(into, dict(x.coeffs))

    # -- internal arithmetic on coefficient dicts ---------------------------

    def _theta_mask(self, mask: int) -> Dict[int, RatFn]:
        """The element (y^mask)^2 = prod of theta_i over bits of mask."""
        cached = self._theta_masks.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            out = {0: RatFn.one()}
        else:
            top = mask.bit_length() - 1
            out = self._mul(self._theta_mask(mask ^ (1 << top)),
                            self.theta(top), top)
        self._theta_masks[mask] = out
        return out

    def _add(self, d1: Dict[int, RatFn], d2: Dict[int, RatFn]) -> Dict[int, RatFn]:
        out = dict(d1)
        for m, c in d2.items():
            prev = out.get(m)
            s = c if prev is None else prev + c
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def _scale(self, d: Dict[int, RatFn], r: RatFn) -> Dict[int, RatFn]:
        if r.is_zero:
            return {}
        if r.is_one:
            return dict(d)
        return {m: c * r for m, c in d.items()}

    def _mul(self, d1: Dict[int, RatFn], d2: Dict[int, RatFn],
             level: Optional[int] = None) -> Dict[int, RatFn]:
        if not d1 or not d2:
            return {}
        if level is None:
            level = self.depth
        if set(d1) == {0}:
            return self._scale(d2, d1[0])
        if set(d2) == {0}:
            return self._scale(d1, d2[0])
        bit = 1 << (level - 1)
        lo1 = {m: c for m, c in d1.items() if not m & bit}
        hi1 = {m ^ bit: c for m, c in d1.items() if m & bit}
        lo2 = {m: c for m, c in d2.items() if not m & bit}
        hi2 = {m ^ bit: c for m, c in d2.items() if m & bit}
        out: Dict[int, RatFn] = {}
        if lo1 and lo2:
            out = self._mul(lo1, lo2, level - 1)
        if hi1 and hi2:
            cross = self._mul(self._mul(hi1, hi2, level - 1),
                              self.theta(level - 1), level - 1)
            out = self._add(out, cross)
        odd: Dict[int, RatFn] = {}
        if lo1 and hi2:
            odd = self._mul(lo1, hi2, level - 1)
        if hi1 and lo2:
            odd = self._add(odd, self._mul(hi1, lo2, level - 1))
        for m, c in odd.items():
            prev = out.get(m | bit)
            s = c if prev is None else prev + c
            if s.is_zero:
                out.pop(m | bit, None)
            else:
                out[m | bit] = s
        return out

    def _square(self, d: Dict[int, RatFn]) -> Dict[int, RatFn]:
        out: Dict[int, RatFn] = {}
        for m, c in d.items():
            out = self._add(out, self._scale(self._theta_mask(m), c.square()))
        return out

    def _coeffs_str(self, d: Dict[int, RatFn]) -> str:
        if not d:
            return "0"
        names = self.gen_names
        parts = []
        for m in sorted(d):
            c = d[m]
            mono = "*".join(names[i] for i in range(self.depth) if m >> i & 1)
            if not mono:
                parts.append(str(c))
            elif c.is_one:
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return "+".join(parts)


class TowerElem:
    """An element of a FieldTower in reduced square-free-monomial form."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Dict[int, RatFn]):
        clean = {m: c for m, c in coeffs.items() if not c.is_zero}
        for m in clean:
            if m >> tower.depth:
                raise ValueError("coefficient mask outside tower generators")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("TowerElem is immutable")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return set(self.coeffs) == {0} and self.coeffs[0].is_one

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def is_rational(self) -> bool:
        """True when the expansion is supported on the trivial monomial."""
        return set(self.coeffs) <= {0}

    def _check(self, other: "TowerElem") -> None:
        if self.tower != other.tower:
            raise ValueError("elements of different towers")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TowerElem") -> "TowerElem":
        self._check(other)
        return _elem(self.tower, self.tower._add(self.coeffs, other.coeffs))

    __sub__ = __add__

    def __mul__(self, other: "TowerElem") -> "TowerElem":
        self._check(other)
        return _elem(self.tower, self.tower._mul(self.coeffs, other.coeffs))

    def scale(self, r: RatFn) -> "TowerElem":
        return _elem(self.tower, self.tower._scale(self.coeffs, r))

    def square(self) -> "TowerElem":
        return _elem(self.tower, self.tower._square(self.coeffs))

    def invert(self) -> "TowerElem":
        """1/x via x^(2^e) in the rational base for the least such e."""
        if self.is_zero:
            raise ZeroElement("cannot invert zero")
        t = self.tower
        if self.is_rational:
            return _elem(t, {0: self.coeffs[0].invert()})
        prod = {0: RatFn.one()}
        z = self.coeffs
        while True:
            prod = t._mul(prod, z)
            z = t._square(z)
            if set(z) <= {0}:
                break
        return _elem(t, t._scale(prod, z[0].invert()))

    def __truediv__(self, other: "TowerElem") -> "TowerElem":
        return self * other.invert()

    def __pow__(self, n: int) -> "TowerElem":
        if n < 0:
            return self.invert() ** (-n)
        return _power(self.tower.one(), self, n)

    def sqrt_in_tower(self) -> Optional["TowerElem"]:
        """The square root inside the tower if one exists, else None.

        An element is a square exactly when it lies in the span, over squares
        of the rational base, of the squared generator monomials; that span
        membership is a semilinear solve.
        """
        from .sqlinalg import tower_square_root

        return tower_square_root(self)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, TowerElem)
                and self.tower == other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.tower, _freeze(self.coeffs)))

    def __str__(self) -> str:
        return self.tower._coeffs_str(self.coeffs)

    def __repr__(self) -> str:
        return f"TowerElem({self})"


_new = object.__new__
_set = object.__setattr__


def _elem(tower: FieldTower, coeffs: Dict[int, RatFn]) -> TowerElem:
    """Trusted constructor: takes `coeffs` as it is, without the zero
    filter and the mask check of TowerElem(tower, coeffs).

    Sound for the results of the tower's own arithmetic on elements of
    `tower`: `_add` and `_mul` drop every sum that cancels, a product or
    inverse of nonzero fractions is nonzero (the base is a field), and
    every mask they produce is a bitwise combination of masks below
    2^depth, so it stays there.  The dict must not be shared.
    """
    e = _new(TowerElem)
    _set(e, "tower", tower)
    _set(e, "coeffs", coeffs)
    return e


def fresh_names(tower: FieldTower, base: str, count: int) -> List[str]:
    """Deterministic unused names base1, base2, ... skipping taken ones."""
    taken = set(tower.all_names)
    out: List[str] = []
    i = 1
    while len(out) < count:
        name = f"{base}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


class TowerHom:
    """A field map between towers: each assigned base variable and
    generator goes to value / d for one common `denominator` d of the
    target, which defaults to one.

    Unassigned base variables must exist in the target and map to
    themselves; unassigned generators must exist in the target by name.
    Construction validates every generator image against its defining
    relation (the image squared must equal the substituted theta, else
    EmbeddingFailure), and a zero d or a denominator whose image
    collapses to zero raises DivisionByZero: the assignment then does not
    define a field map.

    Images are formed without dividing by d: the image of a coefficient
    map is kept as (N, k), image = N / d^k, where k is the largest number
    of assigned factors in any term: the assigned degree of a numerator
    monomial plus one for each assigned generator of its mask, whatever
    cancels.  `apply` divides once, returning the field image N / d^k;
    `apply_projective` returns the images of a vector times the d^k that
    clears the whole vector, so it never divides.  A polynomial is mapped
    on its packed terms, grouped by the slots of the assigned variables.
    Powers of the assigned values and of d are memoised across
    applications, so build one hom per substitution task.
    """

    __slots__ = ("source", "target", "_var_assign", "_slots", "_assigned",
                 "_stray", "_gens", "_d", "_powers")

    def __init__(self, source: FieldTower, target: FieldTower,
                 assignments: Dict[str, TowerElem],
                 denominator: Optional[TowerElem] = None):
        var_assign: Dict[str, TowerElem] = {}
        gen_assign: Dict[str, TowerElem] = {}
        gen_names = [name for name, _ in source.gens]
        for name, value in assignments.items():
            if value.tower != target:
                raise ValueError(
                    f"assigned value for {name!r} is not in the target tower")
            if name in source.base_vars:
                var_assign[name] = value
            elif name in gen_names:
                gen_assign[name] = value
            else:
                raise UnknownVariable(
                    f"{name!r} names nothing in the source tower")
        if denominator is None:
            denominator = target.one()
        elif denominator.tower != target:
            raise ValueError("the denominator is not in the target tower")
        elif denominator.is_zero:
            raise DivisionByZero("the common denominator of a map is zero")
        for v in source.base_vars:
            if v not in var_assign and v not in target.base_vars:
                raise UnknownVariable(
                    f"unassigned variable {v!r} is missing from the target tower")
        self.source = source
        self.target = target
        self._var_assign = var_assign
        # (name, bit offset) of each assigned variable's slot, the mask of
        # those slots, and that of every slot neither they nor the target's
        # base variables use
        self._slots = [(name, _shift(name)) for name in var_assign]
        self._assigned = sum(MAX_EXPONENT << sh for _, sh in self._slots)
        self._stray = ~(self._assigned | sum(
            MAX_EXPONENT << _shift(v) for v in target.base_vars))
        self._d = denominator
        self._powers: Dict[Tuple[Optional[str], int], TowerElem] = {}
        # (value, power of d below it) per generator, in adjunction order
        self._gens: List[Tuple[TowerElem, int]] = []
        for name, theta in source.gens:
            if name in gen_assign:
                value, power = gen_assign[name], 1
            else:
                try:
                    value, power = target.gen_by_name(name), 0
                except KeyError:
                    raise EmbeddingFailure(
                        f"generator {name!r} has no assignment and no "
                        f"counterpart in the target tower") from None
            # (value / d^power)^2 = N / d^k, cleared of the lower power
            # of d on each side (d != 0, so no solution is gained or lost)
            n_theta, k = self._coeffs(theta)
            lhs, rhs = value.square(), n_theta
            if k > 2 * power:
                lhs = lhs * self._power(None, k - 2 * power)
            elif k < 2 * power:
                rhs = rhs * self._power(None, 2 * power - k)
            if lhs != rhs:
                raise EmbeddingFailure(
                    f"image of generator {name!r} violates its defining relation")
            self._gens.append((value, power))

    def _power(self, name: Optional[str], exp: int) -> TowerElem:
        """The value assigned to `name`, or d for None, to the power exp."""
        key = (name, exp)
        got = self._powers.get(key)
        if got is None:
            base = self._d if name is None else self._var_assign[name]
            got = base ** exp
            self._powers[key] = got
        return got

    def _over_common(self, parts: List[Tuple[TowerElem, int]]
                     ) -> Tuple[List[TowerElem], int]:
        """Each N / d^k of `parts` as a numerator over d^top, top the
        largest k."""
        top = max((k for _, k in parts), default=0)
        return [n if k == top else n * self._power(None, top - k)
                for n, k in parts], top

    def _sum(self, parts: List[Tuple[TowerElem, int]]
             ) -> Tuple[TowerElem, int]:
        numerators, top = self._over_common(parts)
        return sum(numerators, self.target.zero()), top

    def _poly(self, p: Poly) -> Tuple[TowerElem, int]:
        stray = p.packed_or() & self._stray
        if stray:
            raise UnknownVariable(
                f"undeclared variable(s): {sorted(slot_shifts(stray))}")
        assigned = self._assigned
        groups: Dict[int, List[int]] = {}
        for t in p.packed:
            a = t & assigned
            groups.setdefault(a, []).append(t ^ a)
        parts: List[Tuple[TowerElem, int]] = []
        for a, rests in groups.items():
            # a nonzero polynomial in the target's base variables
            part = _elem(self.target,
                         {0: RatFn.from_poly(_trusted_poly(frozenset(rests)))})
            k = 0
            for name, sh in self._slots:
                e = a >> sh & MAX_EXPONENT
                if e:
                    part = part * self._power(name, e)
                    k += e
            parts.append((part, k))
        return self._sum(parts)

    def _coeffs(self, items: Iterable[Tuple[int, RatFn]]
                ) -> Tuple[TowerElem, int]:
        parts: List[Tuple[TowerElem, int]] = []
        for mask, fn in items:
            num, k = self._poly(fn.num)
            if not fn.den.is_one:
                den, k_den = self._poly(fn.den)
                if den.is_zero:
                    raise DivisionByZero(
                        "a denominator maps to zero under the substitution")
                num = num * self._power(None, k_den) * den.invert()
            for i, (value, power) in enumerate(self._gens):
                if mask >> i & 1:
                    num = num * value
                    k += power
            parts.append((num, k))
        return self._sum(parts)

    def _image(self, elem: TowerElem) -> Tuple[TowerElem, int]:
        if elem.tower != self.source:
            raise ValueError("element is not in the hom's source tower")
        return self._coeffs(elem.coeffs.items())

    def apply(self, elem: TowerElem) -> TowerElem:
        """The field image of `elem`."""
        num, k = self._image(elem)
        return num if k == 0 else num * self._power(None, k).invert()

    def apply_projective(self, vector: Sequence[TowerElem]
                         ) -> List[TowerElem]:
        """The images of `vector` times d^k, for the k of the largest
        (N, k) among its entries: numerators over one power of d."""
        return self._over_common([self._image(e) for e in vector])[0]

