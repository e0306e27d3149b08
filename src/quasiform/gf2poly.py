"""Sparse multivariate polynomials and rational functions over GF(2).

A polynomial is a set of monomials: coefficients are always 1, addition is
symmetric difference of term sets, and squaring doubles every exponent (the
Frobenius is additive in characteristic 2).  A monomial is stored as a tuple
of (variable, exponent) pairs sorted by name, exponents positive arbitrary
precision integers.  The empty tuple is the constant monomial.

Rational functions are pairs num/den normalized by their polynomial GCD at
construction; over GF(2) the only unit is 1, so reduced fractions are unique
and equality is structural.

Everything here is immutable and pure.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .errors import DivisionByZero, UnknownVariable

Monomial = Tuple[Tuple[str, int], ...]

_MONO_ONE: Monomial = ()
_ONE_TERMS: FrozenSet[Monomial] = frozenset((_MONO_ONE,))
# Poly.one's shared instances, one per variable tuple
_ONES: Dict[Tuple[str, ...], "Poly"] = {}


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_square(m: Monomial) -> Monomial:
    return tuple((v, 2 * e) for v, e in m)


def _mono_total_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


class Poly:
    """A multivariate polynomial over GF(2).

    `terms` is a frozenset of monomials; `variables` records the declared
    ambient variables (a superset of the names actually used).  Equality and
    hashing look at terms only, so the same polynomial viewed over a larger
    variable set compares equal.
    """

    __slots__ = ("terms", "variables", "_hash")

    def __init__(self, terms: Iterable[Monomial], variables: Tuple[str, ...]):
        fs = frozenset(terms)
        used = {v for m in fs for v, _ in m}
        missing = used.difference(variables)
        if missing:
            raise UnknownVariable(f"undeclared variable(s): {sorted(missing)}")
        object.__setattr__(self, "terms", fs)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Tuple[str, ...] = ()) -> "Poly":
        return Poly((), variables)

    @staticmethod
    def one(variables: Tuple[str, ...] = ()) -> "Poly":
        # shared: every reduced fraction with a polynomial value carries
        # it as denominator
        p = _ONES.get(variables)
        if p is None:
            p = _ONES[variables] = Poly(_ONE_TERMS, variables)
        return p

    @staticmethod
    def variable(name: str, variables: Tuple[str, ...]) -> "Poly":
        if name not in variables:
            raise UnknownVariable(f"undeclared variable: {name!r}")
        return Poly((((name, 1),),), variables)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def _vars_with(self, other: "Poly") -> Tuple[str, ...]:
        if self.variables == other.variables:
            return self.variables
        return tuple(sorted(set(self.variables) | set(other.variables)))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.terms ^ other.terms, self._vars_with(other))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly((), self._vars_with(other))
        if self.is_one:
            return Poly(other.terms, self._vars_with(other))
        if other.is_one:
            return Poly(self.terms, self._vars_with(other))
        if len(self.terms) * len(other.terms) >= 16:
            # aligned exponent vectors make the inner loop a tuple add,
            # skipping the per-product merge and sort of named monomials
            names = tuple(sorted({v for m in self.terms for v, _ in m}
                                 | {v for m in other.terms for v, _ in m}))
            prod = _t_mul(_aligned(self.terms, names),
                          _aligned(other.terms, names))
            return Poly(_named(prod, names), self._vars_with(other))
        acc: set = set()
        for m1 in self.terms:
            for m2 in other.terms:
                m = _mono_mul(m1, m2)
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return Poly(acc, self._vars_with(other))

    def square(self) -> "Poly":
        return Poly((_mono_square(m) for m in self.terms), self.variables)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base.square()
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and squares ----------------------------------------------

    def derivative(self, v: str) -> "Poly":
        """Formal partial derivative; exponents act mod 2."""
        if v not in self.variables:
            raise UnknownVariable(f"undeclared variable: {v!r}")
        acc: set = set()
        for m in self.terms:
            d = dict(m)
            e = d.get(v, 0)
            if e % 2 == 0:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            mm = tuple(sorted(d.items()))
            if mm in acc:
                acc.remove(mm)
            else:
                acc.add(mm)
        return Poly(acc, self.variables)

    def square_root(self) -> Optional["Poly"]:
        """The unique square root, if every exponent is even."""
        out = []
        for m in self.terms:
            if any(e % 2 for _, e in m):
                return None
            out.append(tuple((v, e // 2) for v, e in m))
        return Poly(out, self.variables)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms, key=lambda m: (-_mono_total_degree(m), m))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(_mono_str(m) for m in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# GCD machinery.  Internally polynomials are converted to sets of exponent
# tuples aligned to a local variable list; tuple comparison is then a valid
# (lex) monomial order and arithmetic is plain componentwise addition.
# ---------------------------------------------------------------------------


class _NotDivisible(Exception):
    pass


def _aligned(terms: FrozenSet[Monomial], names: Tuple[str, ...]) -> set:
    idx = {n: i for i, n in enumerate(names)}
    width = len(names)
    out = set()
    for m in terms:
        v = [0] * width
        for n, e in m:
            v[idx[n]] = e
        out.add(tuple(v))
    return out


def _named(tuples: set, names: Tuple[str, ...]) -> FrozenSet[Monomial]:
    return frozenset(
        tuple((names[i], e) for i, e in enumerate(t) if e) for t in tuples
    )


def _t_add(acc: set, term: tuple) -> None:
    if term in acc:
        acc.remove(term)
    else:
        acc.add(term)


def _t_mul(s1: set, s2: set) -> set:
    out: set = set()
    for t1 in s1:
        for t2 in s2:
            _t_add(out, tuple(a + b for a, b in zip(t1, t2)))
    return out


def _t_content(ts: set) -> tuple:
    it = iter(ts)
    c = list(next(it))
    for t in it:
        changed = False
        for i, e in enumerate(t):
            if e < c[i]:
                c[i] = e
                changed = True
        if not changed and not any(c):
            break
    return tuple(c)


def _t_shift_down(ts: set, c: tuple) -> set:
    if not any(c):
        return set(ts)
    return {tuple(e - ce for e, ce in zip(t, c)) for t in ts}


def _t_div(p: set, d: set) -> set:
    """Exact division of aligned term sets; raises _NotDivisible.

    Heap-ordered: the remainder is kept as a lazily cancelled max-heap, so
    each quotient step costs |d| pushes instead of a scan of the remainder.
    Negating every exponent turns Python's min-heap into the needed
    descending lexicographic order.
    """
    if not d:
        raise DivisionByZero("polynomial division by zero")
    if not p:
        return set()
    ld = max(d)
    tail = [m for m in d if m != ld]
    heap = [tuple(-x for x in t) for t in p]
    heapq.heapify(heap)
    q: set = set()
    while heap:
        neg = heapq.heappop(heap)
        alive = True
        while heap and heap[0] == neg:
            heapq.heappop(heap)
            alive = not alive
        if not alive:
            continue
        qt = tuple(-n - l for n, l in zip(neg, ld))
        if any(x < 0 for x in qt):
            raise _NotDivisible
        q.add(qt)
        for m in tail:
            heapq.heappush(heap, tuple(-(a + b) for a, b in zip(qt, m)))
    return q


def _t_used_vars(ts: set) -> set:
    used = set()
    for t in ts:
        for i, e in enumerate(t):
            if e:
                used.add(i)
    return used


def _univ(ts: set, k: int) -> Dict[int, set]:
    """View an aligned term set as univariate in slot k."""
    out: Dict[int, set] = {}
    for t in ts:
        d = t[k]
        t0 = t[:k] + (0,) + t[k + 1 :]
        _t_add(out.setdefault(d, set()), t0)
    return {d: c for d, c in out.items() if c}


def _deuniv(u: Dict[int, set], k: int) -> set:
    out: set = set()
    for d, cs in u.items():
        for t in cs:
            _t_add(out, t[:k] + (t[k] + d,) + t[k + 1 :])
    return out


def _t_gcd_many(sets: Iterable[set], width: int) -> set:
    one = {(0,) * width}
    g: Optional[set] = None
    for s in sets:
        g = set(s) if g is None else _t_gcd(g, s, width)
        if g == one:
            return g
    assert g is not None
    return g


def _univ_primitive(u: Dict[int, set], width: int) -> Dict[int, set]:
    if not u:
        return u
    cont = _t_gcd_many(u.values(), width)
    if cont == {(0,) * width}:
        return u
    return {d: _t_div(c, cont) for d, c in u.items()}


def _prem(A: Dict[int, set], B: Dict[int, set]) -> Dict[int, set]:
    """Pseudo-remainder of A by B in the chosen slot (char 2, sign-free)."""
    dB = max(B)
    lcB = B[dB]
    R = dict(A)
    while R and max(R) >= dB:
        dR = max(R)
        lcR = R[dR]
        new: Dict[int, set] = {}
        for d, c in R.items():
            prod = _t_mul(lcB, c)
            tgt = new.setdefault(d, set())
            for t in prod:
                _t_add(tgt, t)
        for d, c in B.items():
            prod = _t_mul(lcR, c)
            tgt = new.setdefault(d + dR - dB, set())
            for t in prod:
                _t_add(tgt, t)
        R = {d: c for d, c in new.items() if c}
    return R


def _t_gcd(a: set, b: set, width: int) -> set:
    if not a:
        return set(b)
    if not b:
        return set(a)
    if a == b:
        return set(a)
    one = {(0,) * width}
    ca = _t_content(a)
    cb = _t_content(b)
    c = tuple(min(x, y) for x, y in zip(ca, cb)) if width else ()
    a0 = _t_shift_down(a, ca)
    b0 = _t_shift_down(b, cb)
    mono = {c}
    if a0 == one or b0 == one:
        return mono
    common = _t_used_vars(a0) & _t_used_vars(b0)
    if not common:
        return mono
    k = max(common)
    A = _univ(a0, k)
    B = _univ(b0, k)
    contA = _t_gcd_many(A.values(), width)
    contB = _t_gcd_many(B.values(), width)
    g_cont = _t_gcd(contA, contB, width)
    A = {d: _t_div(cs, contA) for d, cs in A.items()} if contA != one else A
    B = {d: _t_div(cs, contB) for d, cs in B.items()} if contB != one else B
    if max(A) < max(B):
        A, B = B, A
    while B:
        R = _prem(A, B)
        A = B
        B = _univ_primitive(R, width)
    g = _deuniv(A, k)
    for part in (g_cont, mono):
        if part != one:
            g = _t_mul(g, part)
    return g


def _monomial_gcd(p: Poly, mono: Monomial) -> Poly:
    """gcd of a polynomial with a single monomial: per-variable minimum of
    the monomial's exponent and the polynomial's content exponent."""
    out = []
    for v, e in mono:
        low = min((dict(m).get(v, 0) for m in p.terms), default=0)
        e = min(e, low)
        if e:
            out.append((v, e))
    return Poly((tuple(out),), p.variables)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor; GF(2) has trivial units, so it is canonical."""
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    if p.is_one or p == q:
        return p
    if q.is_one:
        return q
    if len(q.terms) == 1:
        return _monomial_gcd(p, next(iter(q.terms)))
    if len(p.terms) == 1:
        return _monomial_gcd(q, next(iter(p.terms)))
    names = tuple(sorted({v for m in p.terms for v, _ in m}
                         | {v for m in q.terms for v, _ in m}))
    g = _t_gcd(_aligned(p.terms, names), _aligned(q.terms, names), len(names))
    return Poly(_named(g, names), p._vars_with(q))


def poly_divmod_exact(p: Poly, d: Poly) -> Poly:
    """Exact quotient p/d; raises ValueError when the division is not exact."""
    if d.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero:
        return Poly.zero(p.variables)
    if d.is_one:
        return p
    names = tuple(sorted({v for m in p.terms for v, _ in m}
                         | {v for m in d.terms for v, _ in m}))
    try:
        q = _t_div(_aligned(p.terms, names), _aligned(d.terms, names))
    except _NotDivisible:
        raise ValueError("inexact polynomial division") from None
    return Poly(_named(q, names), p._vars_with(d))


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero or q.is_zero:
        return Poly.zero(p._vars_with(q))
    return poly_divmod_exact(p * q, poly_gcd(p, q))


# ---------------------------------------------------------------------------
# Rational functions.
# ---------------------------------------------------------------------------


class RatFn:
    """A reduced fraction of GF(2) polynomials with nonzero denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            den = Poly.one(den.variables)
        elif not den.is_one:
            g = poly_gcd(num, den)
            if not g.is_one:
                num = poly_divmod_exact(num, g)
                den = poly_divmod_exact(den, g)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RatFn is immutable")

    @staticmethod
    def from_poly(p: Poly) -> "RatFn":
        return RatFn(p, Poly.one(p.variables))

    @staticmethod
    def zero(variables: Tuple[str, ...] = ()) -> "RatFn":
        return RatFn(Poly.zero(variables), Poly.one(variables))

    @staticmethod
    def one(variables: Tuple[str, ...] = ()) -> "RatFn":
        return RatFn(Poly.one(variables), Poly.one(variables))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num._vars_with(self.den)

    def __add__(self, other: "RatFn") -> "RatFn":
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __sub__ = __add__

    def __mul__(self, other: "RatFn") -> "RatFn":
        if self.is_zero or other.is_zero:
            return RatFn.zero(self.variables)
        if self.den.is_one and other.den.is_one:
            return RatFn(self.num * other.num, self.den)
        # cross-reduce before multiplying to keep the final gcd small
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_one else poly_divmod_exact(self.num, g1)
        d2 = other.den if g1.is_one else poly_divmod_exact(other.den, g1)
        n2 = other.num if g2.is_one else poly_divmod_exact(other.num, g2)
        d1 = self.den if g2.is_one else poly_divmod_exact(self.den, g2)
        return RatFn(n1 * n2, d1 * d2)

    def invert(self) -> "RatFn":
        if self.is_zero:
            raise DivisionByZero("inverting zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        return self * other.invert()

    def square(self) -> "RatFn":
        return RatFn(self.num.square(), self.den.square())

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.invert() ** (-n)
        result = RatFn.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base.square()
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        # reduced fractions over a UFD with trivial units are unique
        return (isinstance(other, RatFn)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def derivative(self, v: str) -> "RatFn":
        """Quotient rule, characteristic 2: (num' den + num den') / den^2."""
        n = self.num.derivative(v) * self.den + self.num * self.den.derivative(v)
        return RatFn(n, self.den.square())

    def square_root(self) -> Optional["RatFn"]:
        rn = self.num.square_root()
        if rn is None:
            return None
        rd = self.den.square_root()
        if rd is None:
            return None
        return RatFn(rn, rd)

    def square_coordinates(self) -> Dict[FrozenSet[str], "RatFn"]:
        """Write self as a sum over square-free monomials mu of c_mu^2 * mu.

        Returns {odd-variable set: c_mu}; the decomposition num/den =
        (num*den)/den^2 splits num*den by exponent parity, and each parity
        class divided by its square-free monomial is a perfect square.
        """
        if self.is_zero:
            return {}
        n = self.num * self.den
        classes: Dict[FrozenSet[str], set] = {}
        for m in n.terms:
            parity = frozenset(v for v, e in m if e % 2)
            stripped = tuple((v, (e - 1) // 2 if e % 2 else e // 2) for v, e in m)
            stripped = tuple((v, e) for v, e in stripped if e)
            cls = classes.setdefault(parity, set())
            if stripped in cls:
                cls.remove(stripped)
            else:
                cls.add(stripped)
        out: Dict[FrozenSet[str], RatFn] = {}
        for parity, terms in classes.items():
            if not terms:
                continue
            root = Poly(terms, n.variables)
            out[parity] = RatFn(root, self.den)
        return out

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


def is_square(p):
    """Square root of a Poly or RatFn if one exists, else None."""
    return p.square_root()


def derivative(p: Poly, v: str) -> Poly:
    """Formal partial derivative of a polynomial."""
    return p.derivative(v)
