"""Constructors for the named example states and product bases.

Every matrix here is written down with exact integer (or simple rational)
entries and converted to floating point once, so structural identities such
as invariance under partial transposition hold to machine precision and the
kernel membership of specific product vectors is exact.

The constructors fall in three groups:

- counting helpers: :func:`delta` and the binomial degree identity,
- unextendible product bases: the two-parameter tiles construction
  :func:`gentiles2_upb` with its complement state,
- block-factored state families: a rigid good 3x4 state, a good 3xN family,
  a seven-parameter bad 3x4 family and its bad MxN extension, and a
  projector whose kernel holds exactly ten product vectors.

:data:`FAMILIES` is the one registry of the named families: for each, its
constructor, shape rule, parameter option and sweep grid.  The command line
takes its family choices, refusals, defaults and grids from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .qstate import (
    BipartiteDims,
    BipartiteState,
    BlockFactor,
    HermitianOperator,
    ProductVector,
    from_blocks,
)

UPB_ORTHO_TOL = 1e-12


def delta(m: int, n: int) -> int:
    """Degree of the rank-one variety in C^m (x) C^n: C(m+n-2, m-1).

    This is also the exact number of product vectors in the kernel of an
    m x n PPT state of rank m+n-2 whenever that number is finite.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return math.comb(m + n - 2, m - 1)


def degree_identity_holds(m: int, n: int, r: int) -> bool:
    """Check sum_k C(r,k) C(m+n-2-r, m-1-k) == C(m+n-2, m-1) in exact integers.

    The left side counts, per split size k, the index partitions that appear
    when the kernel variety of a rank-r good separable state is decomposed
    into products of orthocomplements; the identity says their degrees add
    up to delta(m, n).
    """
    total = 0
    for k in range(max(0, r - n + 1), min(m - 1, r) + 1):
        if m + n - 2 - r >= m - 1 - k >= 0:
            total += math.comb(r, k) * math.comb(m + n - 2 - r, m - 1 - k)
    return total == delta(m, n)


# ---------------------------------------------------------------------------
# unextendible product bases


@dataclass(eq=False)
class UpbFamily:
    """An orthonormal family of product vectors with an unextendible span;
    the constructor refuses a Gram deviation above UPB_ORTHO_TOL."""

    dims: BipartiteDims
    vectors: tuple
    family_name: str

    def __init__(self, dims: BipartiteDims, vectors: Sequence[ProductVector],
                 family_name: str):
        vectors = tuple(vectors)
        if vectors:
            v = np.array([pv.vec() for pv in vectors])
            gram = v.conj() @ v.T
            err = np.abs(gram - np.eye(len(vectors))).max()
            if err > UPB_ORTHO_TOL:
                raise ValueError(f"product vectors are not orthonormal: deviation {err:.3e}")
        self.dims = dims
        self.vectors = vectors
        self.family_name = family_name

    def __len__(self):
        return len(self.vectors)


def gentiles2_upb(m: int, n: int) -> UpbFamily:
    """The m*n - 2m + 1 vector tiles basis on C^m (x) C^n, n >= m >= 3, n > 3.

    Three layers: m "domino" vectors (|j> - |j+1 mod m|)/sqrt(2) (x) |j>, the
    m(n-3) vectors |j> (x) w_jk built from powers of the (n-2)nd root of
    unity, and the uniform all-ones vector.  Root-of-unity powers are taken
    with the exponent reduced mod n-2 so large products do not drift.
    """
    if not (n >= m >= 3 and n > 3):
        raise ValueError(f"tiles basis needs n >= m >= 3 and n > 3, got ({m}, {n})")
    vectors = []
    for j in range(m):
        a = np.zeros(m, dtype=complex)
        a[j] += 1.0
        a[(j + 1) % m] -= 1.0
        b = np.zeros(n, dtype=complex)
        b[j] = 1.0
        vectors.append(ProductVector(a / np.sqrt(2.0), b))
    for j in range(m):
        for k in range(1, n - 2):
            a = np.zeros(m, dtype=complex)
            a[j] = 1.0
            b = np.zeros(n, dtype=complex)
            for i in range(m - 2):
                b[(i + j + 1) % m] += np.exp(2j * np.pi * ((i * k) % (n - 2)) / (n - 2))
            for i in range(m - 2, n - 2):
                b[i + 2] += np.exp(2j * np.pi * ((i * k) % (n - 2)) / (n - 2))
            vectors.append(ProductVector(a, b / np.sqrt(n - 2.0)))
    vectors.append(ProductVector(np.ones(m, dtype=complex) / np.sqrt(m),
                                 np.ones(n, dtype=complex) / np.sqrt(n)))
    assert len(vectors) == m * n - 2 * m + 1
    return UpbFamily(BipartiteDims(m, n), vectors, family_name="gentiles2")


def upb_complement_state(upb: UpbFamily) -> BipartiteState:
    """Identity minus the projector onto the span of the basis vectors.

    For an unextendible basis this is a PPT entangled state whose range is
    the orthocomplement of the basis span.
    """
    d = upb.dims.total
    rho = np.eye(d, dtype=complex)
    for pv in upb.vectors:
        v = pv.vec()
        rho -= np.outer(v, v.conj())
    return BipartiteState(HermitianOperator(upb.dims, rho))


def circulant_det(first_row: Sequence[float]) -> complex:
    """Determinant of the circulant matrix with the given first row.

    Computed as the product of f(z) over the M-th roots of unity z, where
    f is the polynomial whose coefficients are the row entries.  Agrees
    with a dense determinant of the assembled matrix.
    """
    row = np.asarray(first_row, dtype=complex)
    mm = row.size
    if mm == 0:
        raise ValueError("first row must be nonempty")
    roots = np.exp(2j * np.pi * np.arange(mm) / mm)
    powers = roots[:, None] ** np.arange(mm)[None, :]
    return complex(np.prod(powers @ row))


def circulant_matrix(first_row: Sequence[float]) -> np.ndarray:
    """Dense circulant with entries Z[i, j] = row[(j - i) mod M]."""
    row = np.asarray(first_row, dtype=complex)
    mm = row.size
    idx = (np.arange(mm)[None, :] - np.arange(mm)[:, None]) % mm
    return row[idx]


# ---------------------------------------------------------------------------
# the ten-product-vector projector (3x4, rank five)


def _ten_rank_one_matrices() -> list:
    """Seven orthogonal rank-one 3x4 integer matrices plus three combinations.

    The first seven span a seven-dimensional subspace; the three listed
    integer combinations are again rank one, and these ten are the only
    rank-one matrices in the span.
    """
    w = np.zeros((7, 3, 4))
    w[0, 0, 0], w[0, 1, 0] = 1, -1
    w[1, 1, 1], w[1, 2, 1] = 1, -1
    w[2, 0, 2], w[2, 2, 2] = -1, 1
    w[3, 0, 1], w[3, 0, 3] = 1, -1
    w[4, 1, 2], w[4, 1, 3] = 1, -1
    w[5, 2, 0], w[5, 2, 3] = 1, -1
    w[6] = 1
    extra = [
        15 * (-w[0] + w[2] + w[4] + w[5]) - 5 * w[3] + 3 * w[6],
        15 * (w[0] - w[1] + w[3] + w[5]) - 5 * w[4] + 3 * w[6],
        15 * (w[1] - w[2] + w[3] + w[4]) - 5 * w[5] + 3 * w[6],
    ]
    return list(w) + extra


def _rank_one_split(matrix: np.ndarray) -> ProductVector:
    u, sv, vh = np.linalg.svd(matrix)
    if sv.size > 1 and sv[1] > 1e-10 * sv[0]:
        raise ValueError(f"matrix is not rank one: sigma_2/sigma_1 = {sv[1]/sv[0]:.3e}")
    return ProductVector(u[:, 0], vh[0])


def kon_mnogo() -> tuple:
    """Projector complementary to the span of the seven matrices above.

    Returns (state, points): a 3x4 PPT state of rank five together with the
    ten rank-one members of its kernel as product vectors.
    """
    mats = _ten_rank_one_matrices()
    proj = np.zeros((12, 12))
    for w in mats[:7]:
        v = w.ravel()
        proj += np.outer(v, v) / float(v @ v)
    rho = np.eye(12) - proj
    state = BipartiteState(HermitianOperator(BipartiteDims(3, 4), rho))
    points = [_rank_one_split(w) for w in mats]
    return state, points


# ---------------------------------------------------------------------------
# block-factored families


def good_3x4() -> BipartiteState:
    """A rigid good 3x4 PPT state of rank five with integer block factor.

    Invariant under partial transposition; its range contains no product
    vectors while its kernel holds exactly ten, in general position.
    """
    c0 = np.zeros((5, 4))
    c0[0, 0] = c0[1, 1] = c0[2, 2] = 1
    c1 = np.array([
        [0, 1, 2, 0],
        [1, 0, 0, 0],
        [2, 0, 1, 0],
        [0, 0, 1, 0],
        [0, 0, -1, 1],
    ], dtype=float)
    c2 = np.array([
        [1, 0, 0, 0],
        [0, -1, 1, 0],
        [0, 1, -1, 0],
        [-3, -1, 1, 1],
        [0, 0, 0, 1],
    ], dtype=float)
    return from_blocks(BlockFactor(BipartiteDims(3, 4), [c0, c1, c2]))


def _check_good_b(b: np.ndarray, n: int) -> np.ndarray:
    if b.size != n - 3:
        raise ValueError(f"good 3x{n} family needs {n - 3} parameters, got {b.size}")
    if np.abs(b.imag).max(initial=0.0) > 0:
        raise ValueError("parameters b must be real")
    sq = b.real ** 2
    if np.any(np.abs(sq - 1.0) < 1e-9):
        raise ValueError("parameters b must satisfy b_i^2 != 1")
    if n > 4:
        diffs = np.abs(sq[:, None] - sq[None, :])[np.triu_indices(b.size, 1)]
        if diffs.size and diffs.min() < 1e-9:
            raise ValueError("parameters b must have pairwise distinct squares")
    return b.real


def good_3xn(n: int, b: Optional[Sequence[float]] = None) -> BipartiteState:
    """Good 3xn PPT state of rank n+1, parametrized by n-3 reals.

    The three (n+1) x n blocks are an identity-like block and two arrowhead
    blocks whose corner is the diagonal matrix of the parameters; all cross
    products of blocks are real symmetric, so the state is invariant under
    partial transposition.
    """
    if n <= 3:
        raise ValueError(f"good 3xn family needs n > 3, got n={n}")
    b = np.asarray([i + 1.0 for i in range(1, n - 2)] if b is None else b, dtype=complex)
    b = _check_good_b(b, n)
    k = n - 3
    bm = np.diag(b)
    c0 = np.zeros((n + 1, n))
    for i in range(n - 1):
        c0[i, i] = 1.0
    c1 = np.zeros((n + 1, n))
    c1[:k, :k] = (n - 3.0) * (bm @ bm - np.eye(k))
    c1[:k, k] = 1.0
    c1[:k, k + 1] = b
    c1[k, :k] = 1.0
    c1[k + 1, :k] = b
    c1[k + 1, k + 1] = 1.0
    c1[k + 2, k + 1] = 1.0
    c1[k + 3, k + 1] = -1.0
    c1[k + 3, k + 2] = 1.0
    c2 = np.zeros((n + 1, n))
    c2[:k, :k] = bm - np.eye(k)
    c2[k, k] = -1.0
    c2[k, k + 1] = 1.0
    c2[k + 1, k] = 1.0
    c2[k + 1, k + 1] = -1.0
    c2[k + 2, :k] = 1.0 - b * b
    c2[k + 2, k] = -1.0
    c2[k + 2, k + 1] = 1.0
    c2[k + 2, k + 2] = 1.0
    c2[k + 3, k + 2] = 1.0
    return from_blocks(BlockFactor(BipartiteDims(3, n), [c0, c1, c2]))


def _bad_3x4_blocks(a, b, c, d, e, f, g) -> list:
    for name, val in zip("abcde", (a, b, c, d, e)):
        if val == 0:
            raise ValueError(f"bad 3x4 family requires parameter {name} to be nonzero")
    c0 = np.zeros((5, 4))
    c0[0, 0] = c0[1, 1] = 1.0
    c1 = np.zeros((5, 4))
    c1[1, 1] = -b * e / a
    c1[2, 2] = 1.0
    c1[3, 3] = 1.0
    c1[4, 1] = b
    c2 = np.zeros((5, 4))
    c2[0, 1] = a
    c2[1, 0] = a
    c2[1, 1] = f
    c2[2, 1] = b
    c2[3, 1] = b * d
    c2[3, 3] = c
    c2[4, 0] = e
    c2[4, 1] = g
    c2[4, 2] = 1.0
    c2[4, 3] = d
    return [c0, c1, c2]


def bad_3x4(a=1.0, b=1.0, c=1.0, d=1.0, e=1.0, f=0.0, g=0.0) -> BipartiteState:
    """Seven-parameter bad 3x4 PPT state of rank five (a..e nonzero).

    The kernel contains the whole plane |0> (x) span{|2>, |3>}, hence
    infinitely many product vectors, yet the range is free of them.
    """
    return from_blocks(BlockFactor(BipartiteDims(3, 4), _bad_3x4_blocks(a, b, c, d, e, f, g)))


def _bad_3xn_blocks(n: int) -> list:
    if n < 4:
        raise ValueError(f"bad 3xn family needs n >= 4, got n={n}")
    if n == 4:
        return _bad_3x4_blocks(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    # identity block with the last two columns and rows cleared
    c0 = np.zeros((n + 1, n))
    for i in range(n - 2):
        c0[i, i] = 1.0
    # path-graph adjacency on the first n-3 indices, then a fixed 4x3 tail
    c1 = np.zeros((n + 1, n))
    for i in range(n - 4):
        c1[i, i + 1] = 1.0
        c1[i + 1, i] = 1.0
    c1[n - 3, n - 3] = -1.0
    c1[n - 2, n - 2] = 1.0
    c1[n - 1, n - 1] = 1.0
    c1[n, n - 3] = 1.0
    # path-graph adjacency one index longer, with a heavier last row
    c2 = np.zeros((n + 1, n))
    for i in range(n - 3):
        c2[i, i + 1] = 1.0
        c2[i + 1, i] = 1.0
    c2[n - 2, n - 3] = 1.0
    c2[n - 1, n - 3] = 1.0
    c2[n - 1, n - 1] = 1.0
    c2[n, n - 5] = 1.0
    c2[n, n - 4] = 1.0
    c2[n, n - 2] = 1.0
    c2[n, n - 1] = 1.0
    return [c0, c1, c2]


def bad_3xn(n: int) -> BipartiteState:
    """Bad 3xn PPT state of rank n+1; the n=4 member is :func:`bad_3x4` at defaults.

    The reduced operator on A is exact and real::

        rho_A = [[n-2,  -1,     0  ],
                 [ -1, 2n-4,  2n-7 ],
                 [  0, 2n-7,  2n+1 ]]   (n >= 5)

    The corner is ||C2||_F^2: 2(n-3) path entries, 3 in rows n-2 and n-1,
    and one last-row entry per column n-5, n-4, n-2, n-1.  At n=4 column n-5
    does not exist, so the last row has three entries and the corner is 2n = 8.
    """
    return from_blocks(BlockFactor(BipartiteDims(3, n), _bad_3xn_blocks(n)))


def bad_mxn(m: int, n: int, c: Optional[Sequence[float]] = None) -> BipartiteState:
    """Bad m x n PPT state of rank m+n-2 with m-3 real parameters c.

    Extends the 3xn blocks by one extra row per additional A dimension; the
    parameters must be real, nonzero and pairwise distinct.  At m=3 this is
    exactly :func:`bad_3xn` (no parameters).  The kernel always contains
    |0> (x) span{|n-2>, |n-1>}.
    """
    if m < 3 or n < 4:
        raise ValueError(f"bad mxn family needs m >= 3 and n >= 4, got ({m}, {n})")
    c = np.asarray([float(i) for i in range(3, m)] if c is None else c, dtype=complex)
    if c.size != m - 3:
        raise ValueError(f"bad {m}x{n} family needs {m - 3} parameters, got {c.size}")
    if np.any(c.imag != 0):
        raise ValueError("parameters c must be real")
    c = c.real
    if np.any(c == 0):
        raise ValueError("parameters c must be nonzero")
    diffs = np.abs(c[:, None] - c[None, :])[np.triu_indices(c.size, 1)]
    if diffs.size and diffs.min() == 0:
        raise ValueError("parameters c must be pairwise distinct")
    base = _bad_3xn_blocks(n)
    p = np.zeros((n + 1, n))
    p[0, 1] = 1.0
    blocks = []
    for i in range(m):
        top = base[i] if i < 3 else p
        q = np.zeros((m - 3, n))
        if i == 0:
            q[:, 0] = 1.0
        elif i > 2:
            q[i - 3, 0] = c[i - 3]
            q[i - 3, 1] = -1.0
        blocks.append(np.vstack([top, q]))
    return from_blocks(BlockFactor(BipartiteDims(m, n), blocks))


# ---------------------------------------------------------------------------
# the family registry


def _bad_3x4_member(m: int, n: int, params: Optional[Sequence[float]]) -> BipartiteState:
    if params is None:
        return bad_3x4()
    if len(params) != 7:
        raise ValueError(f"bad 3x4 family needs 7 parameters, got {len(params)}")
    return bad_3x4(*params)


def _good_3xn_grid(rng, n_range, draws):
    """`draws` random parameter points per n, squares kept apart from 1 and each other."""
    for n in range(n_range[0], n_range[1] + 1):
        for _ in range(draws):
            while True:
                b = np.round(rng.uniform(1.1, 4.0, size=n - 3), 6)
                sq = b ** 2
                if np.all(np.abs(sq - 1.0) > 1e-3) and (
                        len(b) < 2 or np.min(np.abs(np.subtract.outer(sq, sq))
                                             [np.triu_indices(len(b), 1)]) > 1e-3):
                    break
            yield 3, n, b.tolist()


def _bad_3x4_grid(rng, draws):
    """`draws` random points: a..e of either sign away from zero, f and g in [-1, 1]."""
    for _ in range(draws):
        core = rng.uniform(0.3, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
        fg = rng.uniform(-1.0, 1.0, size=2)
        yield 3, 4, np.round(np.concatenate([core, fg]), 6).tolist()


@dataclass(frozen=True)
class Family:
    """How the command line builds and sweeps one named family.

    - ``build(m, n, params)``: the member at shape (m, n); ``params`` are the
      values of the parameter option, None for the family's defaults,
    - ``shape``: the fixed (m, n), None where the caller chooses,
    - ``param``: the one parameter option the family reads, if any,
    - ``grid(rng, **options)``: the sweep points as (m, n, params), for the
      families that have a sweep grid; ``grid_defaults`` names the options
      the grid reads, with their defaults.
    """

    build: Callable
    shape: tuple = (None, None)
    param: Optional[str] = None
    grid: Optional[Callable] = None
    grid_defaults: Optional[dict] = None


FAMILIES = {
    "gentiles2": Family(lambda m, n, p: gentiles2_upb(m, n)),
    "kon-mnogo": Family(lambda m, n, p: kon_mnogo()[0], shape=(3, 4)),
    "good-3x4": Family(lambda m, n, p: good_3x4(), shape=(3, 4)),
    "good-3xN": Family(lambda m, n, b: good_3xn(n, b), shape=(3, None), param="b",
                       grid=_good_3xn_grid, grid_defaults={"n_range": (4, 8), "draws": 5}),
    "bad-3x4": Family(_bad_3x4_member, shape=(3, 4), param="params",
                      grid=_bad_3x4_grid, grid_defaults={"draws": 5}),
    "bad-3xN": Family(lambda m, n, p: bad_3xn(n), shape=(3, None),
                      grid=lambda rng, n_range: ((3, n, None) for n in
                                                 range(n_range[0], n_range[1] + 1)),
                      grid_defaults={"n_range": (4, 8)}),
    "bad-MxN": Family(lambda m, n, c: bad_mxn(m, n, c), param="c",
                      grid=lambda rng, max_sum: ((m, n, [float(i) for i in range(3, m)])
                                                 for m in range(4, max_sum - 3)
                                                 for n in range(m, max_sum - m + 1)),
                      grid_defaults={"max_sum": 14}),
    "upb-complement": Family(lambda m, n, p: upb_complement_state(gentiles2_upb(m, n))),
}


def check_shape(name: str, m: int, n: int) -> None:
    """Refuse a shape (m, n) that family `name` does not have."""
    fixed_m, fixed_n = FAMILIES[name].shape
    if fixed_m not in (None, m) or fixed_n not in (None, n):
        raise ValueError(f"{name} states are {fixed_m}x{fixed_n or 'N'}, got {m}x{n}")
