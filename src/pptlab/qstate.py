"""Core bipartite operator algebra.

Operators on C^m (x) C^n are dense (m*n) x (m*n) complex matrices in the
product basis ordering |i>|j> -> row i*n + j, so the partial transpose is a
deterministic block permutation.  States are positive semidefinite but not
normalized; normalization is available as an explicit operation.

Every rank, kernel and positivity answer is computed against an explicit
tolerance and the borderline data (singular gaps, minimum eigenvalues) is
reported alongside, so that exact-rank claims about particular states can be
audited rather than trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Default tolerances.  Rank cutoffs are relative to the largest singular
# value; hermiticity and orthonormality checks are absolute on unit-scaled
# data.
HERMITICITY_TOL = 1e-12
RANK_TOL = 1e-9
PSD_TOL = 1e-9
ORTHO_TOL = 1e-10


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (m, n) of the two parties."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be positive, got ({self.m}, {self.n})")

    @property
    def total(self) -> int:
        return self.m * self.n

    def index(self, i: int, j: int) -> int:
        """Row index of the basis vector |i>|j>."""
        return i * self.n + j


@dataclass(eq=False)
class HermitianOperator:
    """A Hermitian operator tagged with its bipartite dimensions.

    The constructor symmetrizes the input as (X + X^dag)/2 and records the
    asymmetry of what was passed in; inputs whose asymmetry exceeds
    HERMITICITY_TOL (relative to the largest entry, at least one), and
    inputs with NaN or infinite entries, are rejected.
    """

    dims: BipartiteDims
    entries: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, dims: BipartiteDims, entries):
        entries = np.asarray(entries, dtype=complex)
        d = dims.total
        if entries.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for dims {dims}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix has non-finite entries (NaN or Inf)")
        scale = max(1.0, np.abs(entries).max()) if entries.size else 1.0
        asym = float(np.abs(entries - entries.conj().T).max())
        if asym > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} "
                             f"exceeds {HERMITICITY_TOL:.1e}")
        if asym > 0.0:
            entries = (entries + entries.conj().T) / 2.0
        self.dims = dims
        self.entries = _lock(entries)
        self.asymmetry = asym

    def block(self, i: int, j: int) -> np.ndarray:
        """The n x n block <i|_A . |j>_A."""
        n = self.dims.n
        return self.entries[i * n:(i + 1) * n, j * n:(j + 1) * n]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(eq=False)
class BipartiteState:
    """A positive semidefinite HermitianOperator with positive trace."""

    op: HermitianOperator
    trace: float = field(init=False)

    def __init__(self, op: HermitianOperator, psd_tol: float = PSD_TOL):
        eigs = np.linalg.eigvalsh(op.entries)
        top = max(eigs[-1], 0.0)
        if eigs[0] < -psd_tol * max(top, 1e-300):
            raise ValueError(f"matrix is not PSD: min eigenvalue {eigs[0]:.3e} vs max {top:.3e}")
        tr = op.trace()
        if tr <= 0:
            raise ValueError(f"state must have positive trace, got {tr:.3e}")
        self.op = op
        self.trace = tr

    @property
    def dims(self) -> BipartiteDims:
        return self.op.dims

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries


@dataclass(eq=False)
class BlockFactor:
    """Factor C = [C_0 ... C_{m-1}] of R x n blocks with rho = C^dag C."""

    dims: BipartiteDims
    r_rows: int
    blocks: tuple

    def __init__(self, dims: BipartiteDims, blocks):
        blocks = tuple(_lock(np.asarray(b, dtype=complex)) for b in blocks)
        if len(blocks) != dims.m:
            raise ValueError(f"expected {dims.m} blocks, got {len(blocks)}")
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1:
            raise ValueError(f"blocks disagree in shape: {sorted(shapes)}")
        (r, n), = shapes
        if n != dims.n:
            raise ValueError(f"blocks have {n} columns, expected {dims.n}")
        if r < 1:
            raise ValueError("blocks must have at least one row")
        if not all(np.all(np.isfinite(b)) for b in blocks):
            raise ValueError("blocks have non-finite entries (NaN or Inf)")
        self.dims = dims
        self.r_rows = r
        self.blocks = blocks

    def stacked(self) -> np.ndarray:
        """The R x (m*n) matrix [C_0 ... C_{m-1}]."""
        return np.hstack(self.blocks)


@dataclass(eq=False)
class SubspaceBasis:
    """Orthonormal spanning set of a subspace, rows of `vectors`."""

    ambient_dim: int
    vectors: np.ndarray
    tol_used: float

    def __init__(self, ambient_dim: int, vectors, tol_used: float):
        vectors = np.asarray(vectors, dtype=complex).reshape(-1, ambient_dim)
        if vectors.shape[0]:
            gram = vectors.conj() @ vectors.T
            err = np.abs(gram - np.eye(vectors.shape[0])).max()
            if err > ORTHO_TOL:
                raise ValueError(f"basis is not orthonormal: Gram deviation {err:.3e}")
        self.ambient_dim = ambient_dim
        self.vectors = _lock(vectors)
        self.tol_used = float(tol_used)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def project_residual(self, v: np.ndarray) -> float:
        """Norm of the component of v orthogonal to the subspace."""
        v = np.asarray(v, dtype=complex)
        coeff = self.vectors.conj() @ v
        return float(np.linalg.norm(v - self.vectors.T @ coeff))


@dataclass(frozen=True)
class RankProfile:
    """Numerical ranks of rho, its partial transpose and reduced operators.

    `singular_gaps` holds, for each of the four matrices in that order, the
    ratio of the first discarded to the last kept singular value (0.0 when
    nothing was discarded), as an audit trail for the rank decisions.
    """

    rank: int
    rank_gamma: int
    rank_a: int
    rank_b: int
    singular_gaps: tuple

    @property
    def birank(self) -> tuple:
        return (self.rank, self.rank_gamma)


class ProductVector:
    """A product vector a (x) b, unit-normalized and phase-canonicalized.

    Both factors are scaled to unit norm and rotated so that the first entry
    whose modulus is non-negligible is real and positive.  Two instances are
    compared with :meth:`overlap`, which is invariant under the remaining
    scale freedom.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = _lock(self._canonical(np.asarray(a, dtype=complex).ravel()))
        self.b = _lock(self._canonical(np.asarray(b, dtype=complex).ravel()))

    @staticmethod
    def _canonical(v: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(v)
        if nrm == 0 or not np.isfinite(nrm):
            raise ValueError("product vector factors must be nonzero and finite")
        v = v / nrm
        idx = int(np.argmax(np.abs(v) > 1e-8))
        phase = v[idx] / abs(v[idx])
        return v * phase.conj()

    def vec(self) -> np.ndarray:
        """The m*n coefficient vector of a (x) b."""
        return np.kron(self.a, self.b)

    def as_matrix(self) -> np.ndarray:
        """The rank-one m x n coefficient matrix a b^T."""
        return np.outer(self.a, self.b)

    def overlap(self, other: "ProductVector") -> float:
        """|<a, a'>| * |<b, b'>|; equals 1 iff the same point up to scale."""
        return float(abs(np.vdot(self.a, other.a)) * abs(np.vdot(self.b, other.b)))

    def __repr__(self):
        return f"ProductVector(a={np.round(self.a, 6)}, b={np.round(self.b, 6)})"


# ---------------------------------------------------------------------------
# construction and factorization


def from_blocks(factor: BlockFactor) -> BipartiteState:
    """Assemble the state with blocks (i, j) = C_i^dag C_j.

    The result is Hermitian PSD by construction and its rank equals the rank
    of the stacked matrix [C_0 ... C_{m-1}].
    """
    c = factor.stacked()
    rho = c.conj().T @ c
    rho = (rho + rho.conj().T) / 2.0
    if np.abs(rho).max() == 0.0:
        raise ValueError("blocks are all zero; the result is not a state")
    return BipartiteState(HermitianOperator(factor.dims, rho))


def factor_blocks(state: BipartiteState, r_rows: int) -> BlockFactor:
    """Factor rho = C^dag C with R = r_rows rows; inverse of :func:`from_blocks`.

    Raises ValueError when r_rows is below the numerical rank of the state,
    cut at RANK_TOL relative to the largest eigenvalue.
    """
    w, v = np.linalg.eigh(state.matrix)
    keep = w > RANK_TOL * w[-1]
    rank = int(np.sum(keep))
    if r_rows < rank:
        raise ValueError(f"r_rows={r_rows} is below the numerical rank {rank}")
    rows = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    c = np.zeros((r_rows, state.dims.total), dtype=complex)
    c[:rank] = rows
    n = state.dims.n
    blocks = [c[:, i * n:(i + 1) * n] for i in range(state.dims.m)]
    return BlockFactor(state.dims, blocks)


# ---------------------------------------------------------------------------
# partial transpose and reductions


def _gamma(matrix: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on the first party: block (i,j) -> block (j,i)."""
    return (matrix.reshape(m, n, m, n)
                  .transpose(2, 1, 0, 3)
                  .reshape(m * n, m * n))


def partial_transpose(op: HermitianOperator) -> HermitianOperator:
    """Exchange the blocks (i, j) and (j, i); an exact entry permutation."""
    m, n = op.dims.m, op.dims.n
    out = HermitianOperator.__new__(HermitianOperator)
    out.dims = op.dims
    out.entries = _lock(_gamma(op.entries, m, n))
    out.asymmetry = op.asymmetry
    return out


def gamma_matrix(state: BipartiteState) -> np.ndarray:
    """Partial transpose of the state's matrix, as a plain array."""
    return _gamma(state.matrix, state.dims.m, state.dims.n)


def reduced_operators(op: HermitianOperator) -> tuple:
    """Partial traces (rho_A, rho_B) as plain m x m and n x n arrays."""
    m, n = op.dims.m, op.dims.n
    t = op.entries.reshape(m, n, m, n)
    rho_a = np.einsum('ikjk->ij', t)
    rho_b = np.einsum('kikj->ij', t)
    return rho_a, rho_b


# ---------------------------------------------------------------------------
# ranks, positivity, kernels


def _numerical_rank(matrix: np.ndarray, tol_rel: float) -> tuple:
    """(rank, gap) with gap = first discarded / last kept singular value."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, 0.0
    rank = int(np.sum(sv > tol_rel * sv[0]))
    if rank == sv.size:
        return rank, 0.0
    if rank == 0:
        return 0, 0.0
    return rank, float(sv[rank] / sv[rank - 1])


def rank_profile(state: BipartiteState, tol_rel: float = RANK_TOL) -> RankProfile:
    """Ranks of rho, rho^Gamma, rho_A, rho_B at a relative singular cutoff."""
    m, n = state.dims.m, state.dims.n
    rho_a, rho_b = reduced_operators(state.op)
    pairs = [_numerical_rank(x, tol_rel) for x in
             (state.matrix, _gamma(state.matrix, m, n), rho_a, rho_b)]
    return RankProfile(rank=pairs[0][0], rank_gamma=pairs[1][0],
                       rank_a=pairs[2][0], rank_b=pairs[3][0],
                       singular_gaps=tuple(p[1] for p in pairs))


def is_ppt(state: BipartiteState, tol: float = PSD_TOL) -> tuple:
    """Whether rho^Gamma is PSD at a relative tolerance; returns (verdict, min_eig)."""
    return _psd_verdict(np.linalg.eigvalsh(gamma_matrix(state)), tol)


def _psd_verdict(eigs: np.ndarray, tol: float) -> tuple:
    """(whether ascending eigenvalues `eigs` are PSD at relative `tol`, least one)."""
    top = max(eigs[-1], 0.0)
    return bool(eigs[0] >= -tol * max(top, 1e-300)), float(eigs[0])


def _eig_split(matrix: np.ndarray, tol_rel: float) -> tuple:
    return _split_eigh(*np.linalg.eigh(matrix), tol_rel)


def _split_eigh(w: np.ndarray, v: np.ndarray, tol_rel: float) -> tuple:
    """(kernel, range) rows from an eigendecomposition w, v of a Hermitian matrix."""
    top = max(abs(w[0]), abs(w[-1]))
    small = np.abs(w) <= tol_rel * max(top, 1e-300)
    return v[:, small].T, v[:, ~small].T


def kernel_basis(state: BipartiteState, tol_rel: float = RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of ker rho (eigenvectors at negligible eigenvalue)."""
    kern, _ = _eig_split(state.matrix, tol_rel)
    return SubspaceBasis(state.dims.total, kern, tol_used=tol_rel)


def range_basis(state: BipartiteState, tol_rel: float = RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the range of rho; complements :func:`kernel_basis`."""
    _, rng = _eig_split(state.matrix, tol_rel)
    return SubspaceBasis(state.dims.total, rng, tol_used=tol_rel)


def normalized(state: BipartiteState) -> BipartiteState:
    """The trace-one scalar multiple of the state."""
    return BipartiteState(HermitianOperator(state.dims, state.matrix / state.trace))


# ---------------------------------------------------------------------------
# file format
#
# A state file is a JSON object, either
#   {"m": int, "n": int, "matrix": [[[re, im], ...], ...]}        (dense)
# or
#   {"m": int, "n": int, "r": int, "blocks": [[[[re, im], ...]]]} (factored)
# with complex entries serialized as [re, im] pairs of IEEE-754 doubles.


def _encode_complex_matrix(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _decode_complex_matrix(rows, what: str = "matrix") -> np.ndarray:
    """Complex matrix from rows of [re, im] pairs; `what` names it in errors.

    Ragged input is refused with the first row (or entry) whose length
    differs from what the first row set.
    """
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{what} must be a non-empty list of rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{what} is ragged: row {i} has {len(row)} entries, "
                             f"expected {width} as in row 0")
        for j, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2
                    and all(type(x) in (int, float) for x in z)):   # not bool
                raise ValueError(f"{what} entries must be [re, im] pairs of numbers; "
                                 f"entry ({i}, {j}) is {json.dumps(z)}")
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def save_state(state: BipartiteState, path) -> None:
    payload = {"m": state.dims.m, "n": state.dims.n,
               "matrix": _encode_complex_matrix(state.matrix)}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def save_factor(factor: BlockFactor, path) -> None:
    payload = {"m": factor.dims.m, "n": factor.dims.n, "r": factor.r_rows,
               "blocks": [_encode_complex_matrix(b) for b in factor.blocks]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path) -> BipartiteState:
    """Read a state file in either dense or factored form."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        for key in ("m", "n"):
            if type(payload[key]) is not int:      # refuses 3.9, true and "3"
                raise ValueError(f"state file {path}: field {key!r} must be an integer, "
                                 f"got {json.dumps(payload[key])}")
        dims = BipartiteDims(payload["m"], payload["n"])
        if "matrix" in payload:
            return BipartiteState(HermitianOperator(dims, _decode_complex_matrix(payload["matrix"])))
        if "blocks" in payload:
            factor = BlockFactor(dims, [_decode_complex_matrix(b, f"block {i}")
                                        for i, b in enumerate(payload["blocks"])])
            # "r" is optional, but when present it must be the blocks' row count
            r = payload.get("r", factor.r_rows)
            if type(r) is not int or r != factor.r_rows:
                raise ValueError(f"state file {path}: field 'r' must be the integer "
                                 f"{factor.r_rows}, the blocks' row count, got {json.dumps(r)}")
            return from_blocks(factor)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    raise ValueError(f"state file {path} has neither 'matrix' nor 'blocks'")
