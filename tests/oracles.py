"""Independent oracles used to cross-check the library.

Everything here is deliberately built on different representations than the
package: GF(2^15) numeric evaluation instead of symbolic rational functions,
exponent-parity counting instead of semilinear elimination, and a plain
GF(2) monomial-matching kernel instead of tower algebra.  A disagreement
between an oracle and the library is always a bug in one of the two.
"""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# GF(2^15) as integers < 2^15 with multiplication modulo x^15 + x + 1.
GF_BITS = 15
GF_MODULUS = (1 << 15) | 0b11
GF_ORDER = 1 << 15


def gf_mul(x: int, y: int) -> int:
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> GF_BITS:
            x ^= GF_MODULUS
    return acc


def gf_pow(x: int, n: int) -> int:
    acc = 1
    while n:
        if n & 1:
            acc = gf_mul(acc, x)
        x = gf_mul(x, x)
        n >>= 1
    return acc


def gf_inv(x: int) -> int:
    if x == 0:
        raise ZeroDivisionError("inverting 0 in GF(2^15)")
    return gf_pow(x, GF_ORDER - 2)


def gf_sqrt(x: int) -> int:
    """Frobenius is bijective in characteristic 2: sqrt = x^(2^14)."""
    return gf_pow(x, 1 << (GF_BITS - 1))


# Univariate GF(2)[x] on int bit vectors, for the irreducibility self-test.

def bits_degree(p: int) -> int:
    return p.bit_length() - 1


def bits_mulmod(a: int, b: int, mod: int) -> int:
    deg = bits_degree(mod)
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> deg:
            a ^= mod
    return acc


def bits_gcd(a: int, b: int) -> int:
    while b:
        da, db = bits_degree(a), bits_degree(b)
        if da < db:
            a, b = b, a
            continue
        a ^= b << (da - db)
    return a


def bits_is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^n) == x mod f, and gcd(x^(2^(n/p)) + x, f) = 1
    for every prime p dividing n = deg f."""
    n = bits_degree(f)
    if n <= 0:
        return False

    def x_pow_pow2(k: int) -> int:
        acc = 0b10  # the polynomial x
        for _ in range(k):
            acc = bits_mulmod(acc, acc, f)
        return acc

    if x_pow_pow2(n) != 0b10:
        return False
    primes = set()
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            primes.add(d)
            m //= d
        d += 1
    if m > 1:
        primes.add(m)
    for p in primes:
        h = x_pow_pow2(n // p) ^ 0b10
        if bits_gcd(f, h) != 1:
            return False
    return True


# Numeric evaluation of library objects at GF(2^15) points.  Inseparable
# generators get the square root of their defining element, which exists
# and is unique in a finite field of characteristic 2.

def eval_poly(poly, assign: Dict[str, int]) -> int:
    acc = 0
    for mono in poly.terms:
        term = 1
        for var, exp in mono:
            term = gf_mul(term, gf_pow(assign[var], exp))
        acc ^= term
    return acc


def eval_ratfn(fn, assign: Dict[str, int]) -> int:
    den = eval_poly(fn.den, assign)
    return gf_mul(eval_poly(fn.num, assign), gf_inv(den))


def tower_point(tower, rng: random.Random,
                max_tries: int = 64) -> Dict[str, int]:
    """Random values for the base variables plus induced generator values.

    Retries when a denominator or defining element hits zero; anisotropy
    never matters here, only definedness.
    """
    for _ in range(max_tries):
        assign = {v: rng.randrange(1, GF_ORDER) for v in tower.base_vars}
        try:
            for name, theta in tower.gens:
                theta_val = eval_coeffmap(theta, tower, assign)
                assign[name] = gf_sqrt(theta_val)
        except ZeroDivisionError:
            continue
        return assign
    raise RuntimeError("could not find a point avoiding all denominators")


def eval_coeffmap(coeffs, tower, assign: Dict[str, int]) -> int:
    """Evaluate a mask -> RatFn map; masks select generators of the tower.

    Works for defining elements (whose masks only touch generators below
    their own level, already assigned by the time they are needed)."""
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    acc = 0
    for mask, fn in items:
        term = eval_ratfn(fn, assign)
        for level in range(mask.bit_length()):
            if mask >> level & 1:
                term = gf_mul(term, assign[tower.gens[level][0]])
        acc ^= term
    return acc


def eval_elem(elem, assign: Dict[str, int]) -> int:
    """Evaluate a TowerElem at a point produced by tower_point."""
    return eval_coeffmap(elem.coeffs, elem.tower, assign)


def gf_matrix_rank(rows: List[List[int]]) -> int:
    """Gaussian elimination over GF(2^15)."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = gf_inv(rows[rank][col])
        rows[rank] = [gf_mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a ^ gf_mul(factor, b)
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def numeric_rank(vectors: Sequence[Sequence], tower,
                 rng: random.Random, trials: int = 3) -> int:
    """Max over sample points of the evaluated rank; a lower bound for the
    rank over the tower, and almost surely equal to it."""
    best = 0
    for _ in range(trials):
        assign = tower_point(tower, rng)
        try:
            rows = [[eval_elem(e, assign) for e in vec] for vec in vectors]
        except ZeroDivisionError:
            continue
        best = max(best, gf_matrix_rank(rows))
    return best


def witness_point(names):
    """The witness point of polynomials in exactly these variables, as an
    assignment for the bitwise oracle: x^log, the logarithms drawn in name
    order from the generator seeded with 0x51D2."""
    rng = random.Random(0x51D2)
    return {v: gf_pow(2, rng.randrange(GF_ORDER - 1)) for v in sorted(names)}


# Exponent-parity oracle: monomials are independent over squares exactly
# when their exponent vectors differ somewhere mod 2, so the total index
# of a monomial-coefficient form is dim minus the number of parity classes.

Exponents = Tuple[int, ...]


def parity_class(exps: Exponents) -> Exponents:
    return tuple(e % 2 for e in exps)


def monomial_total_index(coeff_exponents: Sequence[Exponents]) -> int:
    classes = {parity_class(e) for e in coeff_exponents}
    return len(coeff_exponents) - len(classes)


def parity_rank(coeff_exponents: Sequence[Exponents]) -> int:
    """GF(2) rank of the exponent-parity vectors.  Monomials multiply by
    adding exponents and squares are the even classes, so the field that
    monomials generate over squares has degree 2 ** parity_rank."""
    pivots: Dict[int, int] = {}          # leading bit -> reduced vector
    for exps in coeff_exponents:
        v = sum((e % 2) << i for i, e in enumerate(exps))
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)



def monomial_similar(coeff_exponents: Sequence[Exponents],
                     other_exponents: Sequence[Exponents]) -> bool:
    """Similarity of two anisotropic monomial-coefficient forms: the parity
    classes T of the second are a translate x + S of the classes S of the
    first.  A monomial of class x is then a factor.  Conversely, write a
    factor c over the parity classes and let C be its support: c*m_s lies
    in span(T) for each s in S, so u + S is inside T for every u in C, and
    |S| = |T| makes it all of T."""
    S = {parity_class(e) for e in coeff_exponents}
    T = {parity_class(e) for e in other_exponents}
    if len(S) != len(coeff_exponents) or len(T) != len(other_exponents):
        raise ValueError("the oracle expects anisotropic forms")
    if len(S) != len(T):
        return False
    s0 = next(iter(S))
    return any({tuple(a ^ b ^ c for a, b, c in zip(s, s0, t)) for s in S} == T
               for t in T)

# Brute-force isotropy for monomial-coefficient forms: with entries
# x_i = sum_m c_im m (c in GF(2)), the value sum_i a_i x_i^2 equals
# sum_im c_im (a_i m^2), linear in the c's.  The kernel is read off by
# matching equal product monomials.

def monomials_up_to(nvars: int, max_degree: int) -> List[Exponents]:
    out: List[Exponents] = []

    def rec(prefix: List[int], remaining: int, budget: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], nvars, max_degree)
    return sorted(out)


def exponent_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def exponent_double(a: Exponents) -> Exponents:
    return tuple(2 * x for x in a)


# The quasilinear form of Karpenko's bound on the first Witt index: an
# anisotropic form of dim d has i_1 - 1 < 2^v_2(d - i_1).  It excludes
# levels the Hoffmann-Laghribi bound allows, such as (d, i_1) = (7, 2)
# and (8, 3).  Read off integers only, so it shares nothing with the
# library.

def karpenko_violations(dims: Sequence[int]) -> List[Tuple[int, int]]:
    """The levels (d, i_1) that break the bound, for a splitting pattern
    given by the dims of its successive anisotropic parts."""
    # rest & -rest is 2^v_2(rest); no anisotropic level splits totally
    return [(d, d - rest) for d, rest in zip(dims, dims[1:])
            if rest < 1 or d - rest - 1 >= rest & -rest]


def brute_isotropy_kernel(coeff_exponents: Sequence[Exponents],
                          entry_degree: int
                          ) -> List[List[List[Exponents]]]:
    """Basis of isotropic vectors with polynomial entries of bounded degree.

    Each basis vector is a list of entries, each entry a list of monomial
    exponent tuples summed over GF(2).  Columns of the linear map are
    single monomials a_i * m^2, so the GF(2) kernel is spanned by pairs of
    columns with equal product.
    """
    nvars = len(coeff_exponents[0]) if coeff_exponents else 0
    monos = monomials_up_to(nvars, entry_degree)
    by_product: Dict[Exponents, List[Tuple[int, Exponents]]] = {}
    for i, a_exp in enumerate(coeff_exponents):
        for m in monos:
            product = exponent_add(a_exp, exponent_double(m))
            by_product.setdefault(product, []).append((i, m))
    dim = len(coeff_exponents)
    basis: List[List[List[Exponents]]] = []
    for columns in by_product.values():
        first = columns[0]
        for other in columns[1:]:
            entries: List[List[Exponents]] = [[] for _ in range(dim)]
            for i, m in (first, other):
                entries[i].append(m)
            basis.append(entries)
    return basis


def check_isotropy_exact(coeff_exponents: Sequence[Exponents],
                         vector: Sequence[Sequence[Exponents]]) -> bool:
    """Exact isotropy of a monomial-sum vector by multiset parity."""
    counts: Dict[Exponents, int] = {}
    for a_exp, entry in zip(coeff_exponents, vector):
        for m in entry:
            product = exponent_add(a_exp, exponent_double(m))
            counts[product] = counts.get(product, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def kernel_vector_to_elems(field, variables: Sequence[str],
                           vector: Sequence[Sequence[Exponents]]):
    """Convert an oracle kernel vector into tower elements of the field."""
    elems = []
    for entry in vector:
        acc = field.zero()
        for exps in entry:
            term = field.one()
            for var, e in zip(variables, exps):
                term = term * field.var(var) ** e
            acc = acc + term
        elems.append(acc)
    return elems


# Seeded samplers.  They build library objects, but all verification logic
# stays in the oracles above.

def sample_monomial_exponents(rng: random.Random, nvars: int,
                              max_degree: int) -> Exponents:
    total = rng.randrange(max_degree + 1)
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def sample_monomial_form(rng: random.Random, field, dim: int,
                         max_degree: int):
    """A form with monomial coefficients, plus the oracle-side exponents."""
    nvars = len(field.base_vars)
    exponents = [sample_monomial_exponents(rng, nvars, max_degree)
                 for _ in range(dim)]
    return monomial_form(field, exponents), exponents


def monomial_form(field, exponents: Sequence[Exponents]):
    """The form whose coefficients are the monomials with these exponents
    over the base variables of a rational tower."""
    from quasiform.forms import QuasilinearForm

    coeffs = []
    for exps in exponents:
        term = field.one()
        for var, e in zip(field.base_vars, exps):
            term = term * field.var(var) ** e
        coeffs.append(term)
    return QuasilinearForm(field, coeffs)


def sample_poly_elem(rng: random.Random, field, max_degree: int,
                     max_terms: int = 3):
    """A random nonzero polynomial element of a rational tower."""
    variables = field.base_vars
    acc = field.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        term = field.one()
        for var, e in zip(variables,
                          sample_monomial_exponents(rng, len(variables),
                                                    max_degree)):
            term = term * field.var(var) ** e
        acc = acc + term
    if acc.is_zero:
        return field.one()
    return acc


def sample_form(rng: random.Random, field, dim: int, max_degree: int = 2):
    """A form with random polynomial coefficients."""
    from quasiform.forms import QuasilinearForm

    return QuasilinearForm(
        field, [sample_poly_elem(rng, field, max_degree) for _ in range(dim)])


def tower_sampler(seed: int, depth: int = 2):
    """The tower F2(a,b,c)(y)(z), or its first `depth` steps, with
    denominators in both defining elements, and samplers of fractions and
    of fractions times a generator monomial in it."""
    from quasiform.fieldtower import FieldTower

    F = FieldTower.rational(("a", "b", "c"))
    a, b, c = F.var("a"), F.var("b"), F.var("c")
    K = F
    if depth >= 1:
        K = F.extend_inseparable(a * (b + F.one()).invert(), "y")
    if depth >= 2:
        theta = F.embed(b * (c + F.one()).invert(), K) + K.gen(0)
        K = K.extend_inseparable(theta, "z")
    rng = random.Random(seed)

    def fraction(degree):
        return (sample_poly_elem(rng, K, degree, 2)
                * sample_poly_elem(rng, K, 1, 2).invert())

    def element(degree=2):
        mono = K.one()
        for i in range(K.depth):
            if rng.random() < 0.5:
                mono = mono * K.gen(i)
        return fraction(degree) * mono

    return K, rng, fraction, element



# Script expressions.  The parser packs a run of variables into one
# monomial and keeps RatFn arithmetic for the rest; this sampler evaluates
# every expression factor by factor with Poly and RatFn operations.

def sample_expression(rng: random.Random, names: Sequence[str],
                      depth: int = 2) -> Tuple[str, Optional[object]]:
    """A random coefficient expression over `names`: its script text and
    its value, a RatFn computed directly, or None when it divides by zero.

    Terms often lead with a run of variables that repeat and take powers;
    there are sums, products, quotients, the constants 0 and 1, and
    parenthesized expressions nested `depth` deep, with or without a power.
    """
    from quasiform.gf2poly import Poly, RatFn

    names = tuple(names)

    def op(f, x, y):
        return None if x is None or y is None else f(x, y)

    def quotient(x, y):
        return None if y.is_zero else x * y.invert()

    def variable(exponent_choices):
        name = rng.choice(names)
        e = rng.choice(exponent_choices)
        value = RatFn.from_poly(Poly.variable(name, names))
        if e is None:
            return name, value
        return f"{name}^{e}", value ** e

    def factor(d):
        r = rng.random()
        if r < 0.15:
            c = rng.choice("01")
            return c, RatFn.one() if c == "1" else RatFn.zero()
        if r < 0.45 or d == 0:
            return variable((None, None, 0, 2))
        text, value = expr(d - 1)
        text = f"({text})"
        if rng.random() < 0.5:
            e = rng.randint(0, 2)
            text += f"^{e}"
            value = op(lambda x, _: x ** e, value, value)
        return text, value

    def term(d):
        if rng.random() < 0.6:
            parts, value = [], RatFn.one()
            for _ in range(rng.randint(1, 4)):
                text, v = variable((None, 0, 1, 2, 3))
                parts.append(text)
                value = value * v
            text = "*".join(parts)
        else:
            text, value = factor(d)
        for _ in range(rng.choice((0, 0, 1, 2))):
            sym = rng.choice("**/")
            t, v = factor(d)
            text += sym + t
            value = op(RatFn.__mul__ if sym == "*" else quotient, value, v)
        return text, value

    def expr(d):
        text, value = term(d)
        for _ in range(rng.choice((0, 0, 1, 2))):
            t, v = term(d)
            text += " + " + t
            value = op(RatFn.__add__, value, v)
        return text, value

    return expr(depth)

# The full kernel basis of exact elimination.  Unlike the oracles above,
# these reuse the library's own elimination: the library keeps one kernel
# vector, the first of this basis, and these rebuild the rest.

def elim_kernel_basis(rows, ncols: int) -> List[List]:
    """One vector per free unknown of `_elim`'s forward pass on the rows
    of A, by back-substitution with that unknown set to 1 and every other
    free one to 0, in column order: a basis of the right kernel over the
    fraction field.  `_elim.nullspace` returns its first vector."""
    from quasiform import _elim
    from quasiform.gf2poly import RatFn
    e = _elim._Eliminator(rows)
    pivots = e.forward(ncols)
    pivot_cols = {c for _, c in pivots}
    return [_elim._back_substitute(e.rows, pivots, ncols, None,
                                   {f: RatFn.one()})
            for f in range(ncols) if f not in pivot_cols]


def square_kernel_basis(gen_rows) -> List[List]:
    """`elim_kernel_basis` of the square system of the equations
    sum_i c_i^2 * gen_rows[e][i] = 0, as root vectors in their tower: a
    basis over the rational base field F, 2^depth vectors per dimension
    of the kernel over the tower.  `sqlinalg.square_nullspace_multi`
    returns its first vector."""
    from quasiform.sqlinalg import _SquareBlocks, _coeff_vectors
    ngens = len(gen_rows[0])
    blocks = _SquareBlocks(list(zip(*gen_rows)))
    cols = range(ngens)
    system = blocks.system(blocks.rows(cols), cols)
    return [_coeff_vectors(v, ngens, blocks.nmasks, blocks.tower)
            for v in elim_kernel_basis(system, ngens * blocks.nmasks)]


# Frozen expected values, derived by hand before the implementation ran:
# splitting patterns of the standard examples, their first Witt indices,
# and their norm degrees.
FROZEN = {
    "pfister2": {"pattern": (4, 2, 1), "i1": 2, "norm_degree": 4,
                 "essential_dimension": 1},
    "pfister3": {"pattern": (8, 4, 2, 1), "i1": 4, "norm_degree": 8,
                 "essential_dimension": 3},
    "five_dim": {"i1": 1, "norm_degree": 8, "anisotropic": True,
                 "regular": False},
    "three_dim_neighbor": {"pattern": (3, 2, 1), "i1": 1, "norm_degree": 4},
    "generic": {2: (2, 1), 3: (3, 2, 1), 4: (4, 3, 2, 1),
                5: (5, 4, 3, 2, 1)},
}
