"""Sparse multivariate polynomials and rational functions over GF(2).

A polynomial is a set of monomials: coefficients are always 1, addition is
symmetric difference of term sets, and squaring doubles every exponent (the
Frobenius is additive in characteristic 2).

A monomial is a packed exponent vector (Monagan and Pearce, "Sparse
polynomial division using a heap", JSC 2011): one int with each exponent
in a 16-bit slot.  Every variable name gets one slot for the life of the
process, interned on first use in the slot table `_SLOT_SHIFT`, so a
polynomial is its terms alone: the names it uses are the nonzero slots of
its terms, and the field it lives in (`FieldTower.base_vars`) records the
declared names.  Exponents are at most MAX_EXPONENT = 2^15 - 1, so the
top bit of every slot is a guard that stays clear: a monomial product is
one add, a square a shift left by one, the parities are `t & _LOW`, a
borrow in a subtraction sets a guard (divisibility test), and int order
is a lex order compatible with products.  A product or square that would
pass the limit raises `ResourceLimit` rather than carry into the next
slot.  `Poly.terms` is a view for callers, decoding the terms into named
monomials: (variable, exponent) pairs sorted by name, the constant
monomial being ().  The library itself works on the packed terms and
never reads it.

Rational functions are pairs num/den reduced by their polynomial GCD; over
GF(2) the only unit is 1, so reduced fractions are unique and equality is
structural.

`Poly(terms, variables)` and `RatFn(num, den)` are the checking public
constructors (names among `variables`, which is checked against and not
kept, exponents in range, a gcd).  Results built here use the trusted
`_poly` and `_ratfn`.  `_poly` is sound for terms the kernel computed from
checked terms.  `_ratfn` is sound where the fraction is reduced by proof:
the square, square root and inverse of a reduced fraction, a polynomial
over 1, and n1*n2 / (d1*d2) after cross-reduction (no prime factor of
d1*d2 divides n1 or n2).  Values are never mutated.
"""

from __future__ import annotations

import heapq
import threading
from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .errors import DivisionByZero, ResourceLimit, UnknownVariable

# named monomial, as the `terms` view yields it
Monomial = Tuple[Tuple[str, int], ...]

_WIDTH = 16
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1
# slot table: name -> bit offset of its slot, and slot index -> name; it
# only grows, and nothing but speed depends on the order names arrive in
_SLOT_SHIFT: Dict[str, int] = {}
_SLOT_NAME: List[str] = []
# (name, bit offset) of every slot, sorted by name as named monomials are
_SLOT_ORDER: List[Tuple[str, int]] = []
# bit 0, bit _WIDTH-2 and bit _WIDTH-1 (the guard) of every slot in use
_LOW = 0
_HALF = 0
_GUARD = 0

_INTERNING = threading.Lock()

_EMPTY: FrozenSet[int] = frozenset()
_ONE_T: FrozenSet[int] = frozenset((0,))


def _shift(name: str) -> int:
    """Bit offset of the slot of `name`, interning it on first use."""
    global _LOW, _HALF, _GUARD, _SLOT_ORDER
    sh = _SLOT_SHIFT.get(name)
    if sh is None:
        with _INTERNING:
            sh = _SLOT_SHIFT.get(name)
            if sh is None:
                sh = _WIDTH * len(_SLOT_NAME)
                _SLOT_NAME.append(name)
                _LOW |= 1 << sh
                _HALF |= 1 << (sh + _WIDTH - 2)
                _GUARD |= 1 << (sh + _WIDTH - 1)
                # a new list, so a reader never sees one half updated
                _SLOT_ORDER = sorted(_SLOT_ORDER + [(name, sh)])
                # published last: a slot in use is always in the masks
                _SLOT_SHIFT[name] = sh
    return sh


def _overflow() -> ResourceLimit:
    return ResourceLimit(
        f"exponent above {MAX_EXPONENT}, the largest a polynomial holds")


def monomial_times(mono: int, name: str, e: int) -> int:
    """The packed monomial `mono` times name^e, for 0 <= e <= MAX_EXPONENT.
    The exponent of `name` passes MAX_EXPONENT exactly where the product
    of the two polynomials would, and it raises the same ResourceLimit."""
    sh = _shift(name)
    if (mono >> sh & MAX_EXPONENT) + e > MAX_EXPONENT:
        raise _overflow()
    return mono + (e << sh)


def slot_shifts(bits: int) -> Dict[str, int]:
    """{name: bit offset} of the slots that are nonzero in `bits`, for
    instance in the OR of some packed terms."""
    return {_SLOT_NAME[sh // _WIDTH]: sh
            for sh in range(0, bits.bit_length(), _WIDTH)
            if bits >> sh & MAX_EXPONENT}


def _decode(t: int) -> Monomial:
    return tuple([(v, e) for v, sh in _SLOT_ORDER
                  if (e := t >> sh & MAX_EXPONENT)])


class _Terms:
    """A polynomial's monomials, decoded as they are iterated."""

    __slots__ = ("packed",)

    def __init__(self, packed: FrozenSet[int]):
        self.packed = packed

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Monomial]:
        return map(_decode, self.packed)


def _poly(packed: FrozenSet[int], bits: Optional[int] = None) -> "Poly":
    """Trusted constructor; `bits` is the OR of the terms when known."""
    p = _new(Poly)
    p.packed = packed
    p._or = bits
    return p


class Poly:
    """A multivariate polynomial over GF(2): its packed terms, nothing else.

    `packed` is the frozenset of packed monomials; equality, hashing and
    printing read only it.  `Poly(terms, variables)` and `variable` check
    every name against `variables` and keep none of them.
    """

    __slots__ = ("packed", "_or")

    def __init__(self, terms: Iterable[Monomial], variables: Tuple[str, ...]):
        variables = tuple(variables)
        packed = set()
        for mono in terms:
            t = 0
            for v, e in mono:
                if v not in variables:
                    raise UnknownVariable(f"undeclared variable(s): {[v]}")
                if not 0 <= e <= MAX_EXPONENT:
                    raise _overflow() if e > 0 else ValueError(
                        f"negative exponent {e} of {v!r}")
                t += e << _shift(v)
            packed.add(t)
        self.packed = frozenset(packed)
        self._or = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        # shared: every reduced fraction with a polynomial value carries
        # it as denominator
        return _ONE

    @staticmethod
    def variable(name: str, variables: Tuple[str, ...]) -> "Poly":
        if name not in variables:
            raise UnknownVariable(f"undeclared variable: {name!r}")
        t = 1 << _shift(name)
        return _poly(frozenset((t,)), t)

    @staticmethod
    def monomial(mono: int) -> "Poly":
        """The polynomial whose one term is the packed monomial `mono`
        (monomial_times)."""
        return _poly(frozenset((mono,)), mono)

    # -- predicates and views ----------------------------------------------

    @property
    def terms(self) -> _Terms:
        return _Terms(self.packed)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_one(self) -> bool:
        return self.packed == _ONE_T

    def __bool__(self) -> bool:
        return bool(self.packed)

    def packed_or(self) -> int:
        """OR of the packed terms: a slot is nonzero in it exactly when its
        variable occurs, and its bits bound every exponent there."""
        bits = self._or
        if bits is None:
            bits = self._or = reduce(or_, self.packed, 0)
        return bits

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _poly(self.packed ^ other.packed)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.packed, other.packed
        if not a or not b:
            return _ZERO
        # values are never mutated, so a unit factor returns the other one
        if a == _ONE_T:
            return other
        if b == _ONE_T:
            return self
        return _poly(_t_mul(a, b, self.packed_or() | other.packed_or()))

    def square(self) -> "Poly":
        bits = self.packed_or()
        if bits & _HALF:
            raise _overflow()
        return _poly(frozenset([t << 1 for t in self.packed]), bits << 1)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(_ONE, self, n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)

    # -- calculus and squares ----------------------------------------------

    def derivative(self, v: str) -> "Poly":
        """Formal partial derivative; exponents act mod 2.  Zero for a name
        no polynomial uses, which gets no slot."""
        sh = _SLOT_SHIFT.get(v)
        if sh is None:
            return _ZERO
        unit = 1 << sh
        return _poly(frozenset([t - unit for t in self.packed if t & unit]))

    def square_root(self) -> Optional["Poly"]:
        """The unique square root, if every exponent is even."""
        bits = self.packed_or()
        if bits & _LOW:
            return None
        return _poly(frozenset([t >> 1 for t in self.packed]), bits >> 1)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending total degree, then by named monomial."""
        if not self.packed:
            return "0"
        keyed = sorted([(-sum([e for _, e in m]), m)
                        for m in map(_decode, self.packed)])
        return "+".join([
            "*".join([v if e == 1 else f"{v}^{e}" for v, e in m]) or "1"
            for _, m in keyed])

    def __repr__(self) -> str:
        return f"Poly({self})"


_new = object.__new__
_ZERO = _poly(_EMPTY, 0)
_ONE = _poly(_ONE_T, 0)


def _power(result, base, n: int):
    """result * base^n, squaring base no more often than needed (so the
    largest exponent a polynomial holds is reachable)."""
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base.square()
    return result


# Kernel on sets of packed terms.  Every term in use fits the slots that
# _LOW, _HALF and _GUARD cover, which the bitwise tricks below rely on.


class _NotDivisible(Exception):
    pass


def _t_mul(s1, s2, bits: Optional[int] = None) -> FrozenSet[int]:
    """Product of term sets; `bits` is the OR of all their terms."""
    if bits is None:
        bits = reduce(or_, s1, 0) | reduce(or_, s2, 0)
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    if len(s2) == 1:
        (m,) = s2
        out = frozenset([m + t for t in s1])
    else:
        acc: set = set()
        for m in s2:
            acc ^= {m + t for t in s1}
        out = frozenset(acc)
    # exponents below 2^(_WIDTH-2) cannot sum past MAX_EXPONENT
    if bits & _HALF and reduce(or_, out, 0) & _GUARD:
        raise _overflow()
    return out


def _mono_min(x: int, y: int) -> int:
    """Slot-wise minimum of two packed monomials."""
    # a slot of (x | G) - y keeps its guard exactly when x >= y there
    ge = (((x | _GUARD) - y) & _GUARD) >> (_WIDTH - 1)
    return x ^ ((x ^ y) & (ge * MAX_EXPONENT))


def _content(ts: Iterable[int], c: Optional[int] = None) -> Optional[int]:
    """Monomial gcd of the terms and of `c` if given; None for none."""
    for t in ts:
        if c is None:
            c = t
        elif not c:
            break
        else:
            c = _mono_min(c, t)
    return c


def _shift_down(ts: FrozenSet[int], c: int) -> FrozenSet[int]:
    return frozenset([t - c for t in ts]) if c else ts


def _t_div(p: FrozenSet[int], d: FrozenSet[int]) -> FrozenSet[int]:
    """Exact quotient of term sets; raises _NotDivisible.

    Heap-ordered: the remainder is kept as a lazily cancelled max-heap, so
    each quotient step costs |d| pushes instead of a scan of the remainder.
    Negating every term turns Python's min-heap into descending order.
    """
    if not d:
        raise DivisionByZero("polynomial division by zero")
    if not p:
        return _EMPTY
    guard = _GUARD
    ld = max(d)
    if len(d) == 1:
        q = [t - ld for t in p]
        # a negative term makes the OR negative
        bits = reduce(or_, q, 0)
        if bits < 0 or bits & guard:
            raise _NotDivisible
        return frozenset(q)
    tail = [m for m in d if m != ld]
    heap = [-t for t in p]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    q = []
    while heap:
        neg = pop(heap)
        alive = True
        while heap and heap[0] == neg:
            pop(heap)
            alive = not alive
        if not alive:
            continue
        qt = -neg - ld
        if qt < 0 or qt & guard:
            raise _NotDivisible
        q.append(qt)
        for m in tail:
            push(heap, -(qt + m))
    return frozenset(q)


def _univ(ts: Iterable[int], sh: int) -> Dict[int, set]:
    """View a term set as univariate in the slot at offset sh."""
    out: Dict[int, set] = {}
    for t in ts:
        d = t >> sh & MAX_EXPONENT
        s = out.get(d)
        if s is None:
            s = out[d] = set()
        s.add(t - (d << sh))
    return out


def _primitive(u: Dict[int, set]):
    """Content and primitive part of a univariate view."""
    cont = None
    for c in u.values():
        cont = c if cont is None else _t_gcd(cont, c)
        if cont == _ONE_T:
            return cont, u
    return cont, {d: _t_div(c, cont) for d, c in u.items()}


def _prem(A: Dict[int, set], B: Dict[int, set]) -> Dict[int, set]:
    """Pseudo-remainder of A by B in the chosen slot (char 2, sign-free)."""
    dB = max(B)
    lcB = B[dB]
    R = A
    while R and max(R) >= dB:
        dR = max(R)
        lcR = R[dR]
        new = {d: set(_t_mul(lcB, c)) for d, c in R.items()}
        for d, c in B.items():
            prod = _t_mul(lcR, c)
            tgt = new.get(d + dR - dB)
            if tgt is None:
                new[d + dR - dB] = set(prod)
            else:
                tgt ^= prod
        R = {d: c for d, c in new.items() if c}
    return R


def _t_gcd(a, b) -> FrozenSet[int]:
    if not (a and b) or a == b:
        return a or b
    ca = _content(a)
    cb = _content(b)
    mono = frozenset((_mono_min(ca, cb),))
    a0 = _shift_down(a, ca)
    b0 = _shift_down(b, cb)
    if a0 == _ONE_T or b0 == _ONE_T:
        return mono
    # (bits | G) - _LOW keeps the guard of exactly the nonzero slots
    common = ((reduce(or_, a0, 0) | _GUARD) - _LOW) & (
        (reduce(or_, b0, 0) | _GUARD) - _LOW) & _GUARD
    if not common:
        return mono
    # main variable: the last common one by name.  The choice moves the
    # cost a lot: on one 3-variable input the highest slot took over 20 s
    # where this takes 0.2 s
    sh = max(slot_shifts(common >> (_WIDTH - 1)).items())[1]
    contA, A = _primitive(_univ(a0, sh))
    contB, B = _primitive(_univ(b0, sh))
    g_cont = _t_gcd(contA, contB)
    if max(A) < max(B):
        A, B = B, A
    while B:
        A, B = B, _primitive(_prem(A, B))[1]
    g = frozenset([t + (d << sh) for d, cs in A.items() for t in cs])
    for part in (g_cont, mono):
        if part != _ONE_T:
            g = _t_mul(g, part)
    return g


def strip_monomial_content(row: List[Poly]) -> List[Poly]:
    """Divide a row through by the monomial gcd of all its terms."""
    c = _content(t for p in row for t in p.packed)
    if not c:
        return row
    return [_poly(_shift_down(p.packed, c)) for p in row]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor; GF(2) has trivial units, so it is canonical."""
    if q.is_zero or p.is_one or p == q:
        return p
    if p.is_zero or q.is_one:
        return q
    a, b = p.packed, q.packed
    if len(b) == 1 or len(a) == 1:
        g = frozenset((_content(b, _content(a)),))
    else:
        g = _t_gcd(a, b)
    return _poly(g)


def poly_divmod_exact(p: Poly, d: Poly) -> Poly:
    """Exact quotient p/d; raises ValueError when the division is not exact."""
    if d.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero or d.is_one:
        return p
    try:
        q = _t_div(p.packed, d.packed)
    except _NotDivisible:
        raise ValueError("inexact polynomial division") from None
    return _poly(q)


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero or q.is_zero:
        return _ZERO
    return poly_divmod_exact(p * q, poly_gcd(p, q))


def common_denominator(fns: Iterable["RatFn"]) -> Poly:
    """Least common multiple of the denominators of the fractions; 1 when
    every denominator is 1."""
    den = None
    for fn in fns:
        d = fn.den
        if not d.is_one:
            den = d if den is None else poly_lcm(den, d)
    return _ONE if den is None else den


def numerator_over(f: "RatFn", den: Poly) -> Poly:
    """f * den as a polynomial, for a multiple `den` of f's denominator."""
    num = f.num
    if den.is_one or not num.packed:
        return num
    return num * (den if f.den.is_one else poly_divmod_exact(den, f.den))


def parity_split(p: Poly) -> Dict[FrozenSet[str], Poly]:
    """Write p as a sum over square-free monomials mu of c_mu^2 * mu.

    Returns {odd-variable set: c_mu}, nonzero classes only: the terms of
    one exponent parity, divided by their square-free monomial, are the
    square of c_mu.
    """
    classes: Dict[int, List[int]] = {}
    for t in p.packed:
        parity = t & _LOW
        classes.setdefault(parity, []).append((t ^ parity) >> 1)
    return {frozenset(slot_shifts(parity)): _poly(frozenset(ts))
            for parity, ts in classes.items()}


# ---------------------------------------------------------------------------
# Rational functions.
# ---------------------------------------------------------------------------


def _cancel(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """p and q divided by their gcd."""
    g = poly_gcd(p, q)
    if g.is_one:
        return p, q
    return poly_divmod_exact(p, g), poly_divmod_exact(q, g)


def _ratfn(num: Poly, den: Poly) -> "RatFn":
    """Trusted constructor: num/den must be reduced with den nonzero and
    den = 1 when num = 0 (see the module docstring)."""
    r = _new(RatFn)
    r.num = num
    r.den = den
    return r


class RatFn:
    """A reduced fraction of GF(2) polynomials with nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            den = _ONE
        elif not (den.is_one or num.is_one):
            num, den = _cancel(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: Poly) -> "RatFn":
        return _ratfn(p, _ONE)

    @staticmethod
    def zero() -> "RatFn":
        return _ratfn(_ZERO, _ONE)

    @staticmethod
    def one() -> "RatFn":
        return _ratfn(_ONE, _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other: "RatFn") -> "RatFn":
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __sub__ = __add__

    def __mul__(self, other: "RatFn") -> "RatFn":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1.packed or not n2.packed:
            return RatFn.zero()
        if d1.is_one and d2.is_one:
            return _ratfn(n1 * n2, d1)
        # cross-reduce before multiplying: the product is then reduced
        if not d2.is_one:
            n1, d2 = _cancel(n1, d2)
        if not d1.is_one:
            n2, d1 = _cancel(n2, d1)
        return _ratfn(n1 * n2, d1 * d2)

    def invert(self) -> "RatFn":
        if self.is_zero:
            raise DivisionByZero("inverting zero rational function")
        return _ratfn(self.den, self.num)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        return self * other.invert()

    def square(self) -> "RatFn":
        return _ratfn(self.num.square(), self.den.square())

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.invert() ** (-n)
        return _power(RatFn.one(), self, n)

    def __eq__(self, other) -> bool:
        # reduced fractions over a UFD with trivial units are unique
        return (isinstance(other, RatFn)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def derivative(self, v: str) -> "RatFn":
        """Quotient rule, characteristic 2: (num' den + num den') / den^2."""
        n = self.num.derivative(v) * self.den + self.num * self.den.derivative(v)
        return RatFn(n, self.den.square())

    def square_root(self) -> Optional["RatFn"]:
        rn, rd = self.num.square_root(), self.den.square_root()
        return None if rn is None or rd is None else _ratfn(rn, rd)

    def square_coordinates(self) -> Dict[FrozenSet[str], "RatFn"]:
        """Write self as a sum over square-free monomials mu of c_mu^2 * mu.

        Returns {odd-variable set: c_mu}; the decomposition num/den =
        (num*den)/den^2 splits num*den by exponent parity, and each parity
        class divided by its square-free monomial is a perfect square.
        """
        return {odd: RatFn(root, self.den)
                for odd, root in parity_split(self.num * self.den).items()}

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"

