"""Fraction-free elimination over GF(2)[a,b,c]: solutions checked exactly in
RatFn, kernels checked by annihilation and by their size against the rank
of the matrix at GF(2^15) points.  `nullspace` returns one kernel vector,
the first of the full basis that the oracle rebuilds."""

import random

import pytest

from quasiform import _elim
from quasiform.gf2poly import Poly, RatFn

from oracles import elim_kernel_basis, eval_poly, gf_matrix_rank, GF_ORDER

VARS = ("a", "b", "c")
A, B, C = (Poly.variable(v, VARS) for v in VARS)
ONE = Poly.one()
ZERO = Poly.zero()
SEEDS = range(24)


def random_poly(rng):
    """A nonzero polynomial of one to three square-free monomials."""
    monos = {tuple(v for v in VARS if rng.random() < 0.5)
             for _ in range(rng.randrange(1, 4))}
    return Poly([tuple((v, 1) for v in mono) for mono in monos], VARS)


def sparse_matrix(rng):
    """A seeded matrix with many zeros: block-diagonal or ragged (row i
    starts at a random column), with some rows combinations of others so
    the rank falls short."""
    nrows, ncols = rng.randrange(3, 6), rng.randrange(3, 7)
    if rng.random() < 0.5:
        cut_r, cut_c = rng.randrange(1, nrows), rng.randrange(1, ncols)

        def allowed(i, j):
            return (i < cut_r) == (j < cut_c)
    else:
        starts = [rng.randrange(ncols) for _ in range(nrows)]

        def allowed(i, j):
            return j >= starts[i]
    rows = [[random_poly(rng) if allowed(i, j) and rng.random() < 0.6
             else ZERO for j in range(ncols)] for i in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        f, g = random_poly(rng), random_poly(rng)
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], rows[1])]
    return rows


def augmented(matrix, rhs):
    """The rows [A | b] that solve and solvable take."""
    return [row + [b] for row, b in zip(matrix, rhs)]


def times(matrix, x):
    return [sum((RatFn.from_poly(m) * v for m, v in zip(row, x)),
                RatFn.zero()) for row in matrix]


def rank_at_points(matrix, rng, points=4):
    """Largest rank of the matrix at a few GF(2^15) points: a lower bound
    of its rank, equal to it at almost every point."""
    best = 0
    for _ in range(points):
        point = {v: rng.randrange(1, GF_ORDER) for v in VARS}
        best = max(best, gf_matrix_rank(
            [[eval_poly(e, point) for e in row] for row in matrix]))
    return best


@pytest.fixture
def rescales(monkeypatch):
    """Counts the calls of `_current` that divide a stale row by the pivot
    it last saw."""
    seen = []
    real = _elim._Eliminator._current

    def counting(self, i):
        li = self.last[i]
        if li is not self.prev and li is not None and not li.is_one:
            seen.append(i)
        return real(self, i)

    monkeypatch.setattr(_elim._Eliminator, "_current", counting)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_and_solvable_agree(seed):
    rng = random.Random(seed)
    m = sparse_matrix(rng)
    ncols = len(m[0])
    x0 = [RatFn.from_poly(random_poly(rng) if rng.random() < 0.7 else ZERO)
          for _ in range(ncols)]
    consistent = [r.num for r in times(m, x0)]
    arbitrary = [random_poly(rng) for _ in m]
    for rhs in (consistent, arbitrary):
        x = _elim.solve(augmented(m, rhs), ncols)
        assert _elim.solvable(augmented(m, rhs), ncols) == (x is not None)
        if x is not None:
            assert times(m, x) == [RatFn.from_poly(b) for b in rhs]
    assert _elim.solve(augmented(m, consistent), ncols) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_annihilates_and_has_full_size(seed):
    rng = random.Random(seed)
    m = sparse_matrix(rng)
    ncols = len(m[0])
    basis = elim_kernel_basis(m, ncols)
    for vec in basis:
        assert len(vec) == ncols and any(vec)
        assert not any(times(m, vec))
    assert len(basis) == ncols - rank_at_points(m, rng)
    # the one vector is the basis's first, None exactly when it is empty
    assert _elim.nullspace(m, ncols) == (basis[0] if basis else None)


def test_stale_rows_are_rescaled(rescales):
    for seed in SEEDS:
        rng = random.Random(seed)
        m = sparse_matrix(rng)
        _elim.nullspace(m, len(m[0]))
    assert rescales


def test_two_steps_pivot_on_the_shared_one():
    # both first pivots are the shared Poly.one(): the row updated on
    # step one is then current on step two without rescaling
    m = [[ONE, A + B, B + C, C],
         [A + C, A * B + ONE, A + ONE, ZERO],
         [ZERO, ONE, A * C + B, B + ONE]]
    assert _elim._Eliminator(m).forward(4)[:2] == [(0, 0), (2, 1)]
    rhs = [A, B, C]
    x = _elim.solve(augmented(m, rhs), 4)
    assert x is not None and times(m, x) == [RatFn.from_poly(b) for b in rhs]
    kernel = _elim.nullspace(m, 4)
    assert len(elim_kernel_basis(m, 4)) == 4 - rank_at_points(
        m, random.Random(0)) == 1
    assert any(kernel) and not any(times(m, kernel))


def test_a_system_without_rows_leaves_every_unknown_free():
    zeros = _elim.solve([], 3)
    assert zeros is not None and len(zeros) == 3
    assert all(v.is_zero for v in zeros)
    assert _elim.solvable([], 3)
    one, zero = RatFn.one(), RatFn.zero()
    assert _elim.nullspace([], 3) == [one, zero, zero]
    assert _elim.nullspace([[ONE]], 1) is None
