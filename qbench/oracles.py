"""Independent oracles for the benchmark's answers.

Every benchmark form has monomial coefficients, and over F2(x1,...,xn) a
monomial is a square times the square-free monomial of its odd exponents.
Its class over the squares is therefore a bit mask, the exponent parity,
and the invariants below reduce to counting masks and to GF(2) linear
algebra on them.  Nothing here imports the library: an oracle that
disagrees with it points at a bug in one of the two.

Exponent vectors are tuples of non-negative integers, one per variable.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]


def parity(exps: Exponents) -> int:
    """Bit i is set when variable i has an odd exponent."""
    mask = 0
    for i, e in enumerate(exps):
        if e & 1:
            mask |= 1 << i
    return mask


def parity_classes(coeffs: Iterable[Exponents]) -> frozenset:
    return frozenset(parity(c) for c in coeffs)


def gf2_rank(masks: Iterable[int]) -> int:
    """Rank over GF(2) of bit vectors, by an xor basis keyed on top bits."""
    basis: Dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def gf2_span(masks: Iterable[int]) -> frozenset:
    span = {0}
    for v in masks:
        if v not in span:
            span |= {s ^ v for s in span}
    return frozenset(span)


def total_index(coeffs: Sequence[Exponents]) -> int:
    """dim minus the number of distinct exponent-parity classes."""
    return len(coeffs) - len(parity_classes(coeffs))


def _normalized(coeffs: Sequence[Exponents]) -> List[int]:
    p0 = parity(coeffs[0])
    return [parity(c) ^ p0 for c in coeffs[1:]]


def norm_degree(coeffs: Sequence[Exponents]) -> int:
    """2^(GF(2)-rank of the parity vectors after dividing by the first)."""
    return 1 << gf2_rank(_normalized(coeffs))


def norm_span(coeffs: Sequence[Exponents]) -> frozenset:
    """The parity masks of the norm field's monomial basis."""
    return gf2_span(_normalized(coeffs))


def is_neighbor(coeffs: Sequence[Exponents]) -> bool:
    return 2 * len(coeffs) > norm_degree(coeffs)


def hl_bound(dim: int) -> int:
    """i1 <= dim - 2^floor(log2(dim - 1)) for anisotropic forms."""
    return dim - (1 << ((dim - 1).bit_length() - 1))


def first_witt_index(coeffs: Sequence[Exponents]) -> Optional[int]:
    """i1 of an anisotropic monomial form where the theory pins it down:
    dim - norm_degree/2 for quasi-Pfister neighbours, 1 wherever the
    Hoffmann-Laghribi bound is 1 (every dimension 3 form); None otherwise."""
    if is_neighbor(coeffs):
        return len(coeffs) - norm_degree(coeffs) // 2
    if hl_bound(len(coeffs)) == 1:
        return 1
    return None


def check_invariants(coeffs: Sequence[Exponents], report: dict) -> List[str]:
    """Disagreements between an `invariants` report and the oracles, for an
    anisotropic monomial form."""
    dim = len(coeffs)
    bad: List[str] = []

    def expect(key, value):
        if report.get(key) != value:
            bad.append(f"{key}: expected {value!r}, got {report.get(key)!r}")

    expect("dim", dim)
    expect("total_index", total_index(coeffs))
    expect("anisotropic", True)
    expect("anisotropic_dim", dim)
    expect("norm_degree", norm_degree(coeffs))
    i1 = report.get("first_witt_index")
    known = first_witt_index(coeffs)
    if known is not None:
        expect("first_witt_index", known)
    elif not isinstance(i1, int) or not 1 <= i1 <= hl_bound(dim):
        bad.append(f"first_witt_index {i1!r} outside [1, {hl_bound(dim)}]")
    if isinstance(i1, int):
        expect("essential_dimension", dim - 1 - i1)
        pattern = report.get("splitting_pattern") or []
        if pattern[:2] != [dim, dim - i1]:
            bad.append(f"splitting_pattern {pattern} does not start at "
                       f"({dim}, {dim - i1})")
        if any(b >= a for a, b in zip(pattern, pattern[1:])) or \
                not pattern or pattern[-1] > 1:
            bad.append(f"splitting_pattern {pattern} is not a strictly "
                       f"decreasing run down to dimension <= 1")
    return bad


def check_ruling(coeffs: Sequence[Exponents], report: dict) -> List[str]:
    """Disagreements between a verified `ruling` report and the oracles:
    a form is ruled exactly when i1 >= 2, and every certificate verifies."""
    i1 = first_witt_index(coeffs)
    if i1 is None:
        raise ValueError("ruling oracle needs a form whose i1 is known")
    bad: List[str] = []
    if report.get("ruled") != (i1 >= 2):
        bad.append(f"ruled: expected {i1 >= 2}, got {report.get('ruled')!r}")
    elif i1 >= 2:
        if report.get("witt_index") != i1:
            bad.append(f"witt_index: expected {i1}, "
                       f"got {report.get('witt_index')!r}")
        if len(report.get("subquadric", ())) != len(coeffs) - (i1 - 1):
            bad.append("subquadric has the wrong dimension")
        if report.get("certificate_verified") is not True:
            bad.append("ruling certificate failed to verify")
    return bad


def translates(a: frozenset, b: frozenset) -> bool:
    """Whether b = a xor t for one mask t: then a monomial factor maps the
    form with classes a onto the one with classes b."""
    if len(a) != len(b):
        return False
    p0 = min(a)
    return any(frozenset(p ^ p0 ^ q for p in a) == b for q in b)


def check_compare(p: Sequence[Exponents], q: Sequence[Exponents],
                  report: dict) -> List[str]:
    """Disagreements between a `compare` report on two anisotropic monomial
    forms and the oracles."""
    bad: List[str] = []
    iso = report.get("isometric")
    sim = report.get("similar")
    stab = report.get("stably_equivalent")
    bir = report.get("birational")
    same_dim = len(p) == len(q)
    cp, cq = parity_classes(p), parity_classes(q)
    if iso != (cp == cq):
        bad.append(f"isometric: expected {cp == cq}, got {iso!r}")
    if iso and not sim:
        bad.append("isometric forms reported not similar")
    if sim and not bir:
        bad.append("similar forms reported not birational")
    if bir != (bool(stab) and same_dim):
        bad.append(f"birational {bir!r} != stably equivalent {stab!r} "
                   f"and equal dimension {same_dim}")
    if translates(cp, cq) and not sim:
        bad.append("forms related by a monomial factor reported not similar")
    if is_neighbor(p) and is_neighbor(q):
        same_norm = norm_span(p) == norm_span(q)
        if stab != same_norm:
            bad.append(f"stably_equivalent: neighbours with "
                       f"{'equal' if same_norm else 'different'} norm "
                       f"fields, got {stab!r}")
    return bad
