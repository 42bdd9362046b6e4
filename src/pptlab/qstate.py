"""Core bipartite operator algebra.

Operators on C^m (x) C^n are dense (m*n) x (m*n) complex matrices in the
product basis ordering |i>|j> -> row i*n + j, so the partial transpose is a
deterministic block permutation.  States are positive semidefinite but not
normalized, and every cut below is relative, so no verdict reads their scale.

Every rank, kernel and positivity answer is computed against the two cuts
that a state carries, `rank_tol` and `psd_tol`, and the borderline data
(eigenvalue gaps, minimum eigenvalues) is reported alongside, so that
exact-rank claims about particular states can be audited rather than
trusted.  Each answer reads the one eigendecomposition of rho or of
rho^Gamma that a state keeps, cut at |w| <= rank_tol * max|w|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Default tolerances.  Rank cutoffs are relative to the largest eigenvalue
# modulus, the hermiticity check to the largest entry modulus; the
# orthonormality check is absolute on unit vectors.  A quantity read
# against a cut or an error is trusted only MARGIN_FACTOR away from it.
HERMITICITY_TOL = 1e-12
RANK_TOL = 1e-9
PSD_TOL = 1e-9
ORTHO_TOL = 1e-10
MARGIN_FACTOR = 10.0


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
    HERMITICITY_TOL times the largest entry modulus, whatever the scale,
    and inputs with NaN or infinite entries, are rejected.
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
        scale = float(np.abs(entries).max())
        asym = float(np.abs(entries - entries.conj().T).max())
        if asym > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
                             f"{HERMITICITY_TOL:.1e} times the largest entry {scale:.3e}")
        if asym > 0.0:
            entries = (entries + entries.conj().T) / 2.0
        self.dims = dims
        self.entries = _lock(entries)
        self.asymmetry = asym

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(eq=False)
class BipartiteState:
    """A positive semidefinite HermitianOperator with positive trace, and the two cuts
    that every verdict on it reads: `rank_tol`, the relative eigenvalue cut of its ranks,
    kernels and ranges, and `psd_tol`, the relative tolerance of its positivity checks.
    Each cut is a finite 0 < t < 1; the constructor checks PSD at `psd_tol`."""

    op: HermitianOperator
    rank_tol: float
    psd_tol: float
    trace: float = field(init=False)

    def __init__(self, op: HermitianOperator, *, rank_tol: float = RANK_TOL,
                 psd_tol: float = PSD_TOL):
        self._hold(op, {}, (rank_tol, psd_tol))
        w = self.eigh()[0]
        if not _psd_verdict(w, psd_tol)[0]:
            raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} "
                             f"vs max {max(w[-1], 0.0):.3e}")
        if self.trace <= 0:
            raise ValueError(f"state must have positive trace, got {self.trace:.3e}")

    def _hold(self, op: HermitianOperator, eig: dict, cuts: tuple) -> None:
        """Take `op`, its decompositions `eig` and `cuts` = (rank_tol, psd_tol), each a
        finite 0 < t < 1: any other cut corrupts every rank or PPT verdict."""
        for name, cut in zip(("rank_tol", "psd_tol"), cuts):
            if not 0.0 < cut < 1.0:         # false for NaN
                raise ValueError(f"{name} must be a tolerance 0 < t < 1, got {cut!r}")
        self.op, self._eig, self.trace = op, eig, op.trace()
        self.rank_tol, self.psd_tol = map(float, cuts)

    @property
    def dims(self) -> BipartiteDims:
        return self.op.dims

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries

    def eigh(self, gamma: bool = False) -> tuple:
        """(ascending eigenvalues, eigenvector columns) of rho, or of
        rho^Gamma when `gamma`, read-only: each is computed once per state,
        by the real routine when the matrix has no imaginary part."""
        if gamma not in self._eig:
            x = gamma_matrix(self) if gamma else self.matrix
            w, v = np.linalg.eigh(x if np.any(x.imag) else x.real)
            w.flags.writeable = v.flags.writeable = False
            self._eig[gamma] = w, v
        return self._eig[gamma]

    def split(self, gamma: bool = False) -> tuple:
        """(kernel rows, range rows) of rho, or of rho^Gamma when `gamma`:
        the eigenvectors at |w| <= rank_tol * max|w|, then the others."""
        w, v = self.eigh(gamma)
        small = _negligible(w, self.rank_tol)
        return v[:, small].T, v[:, ~small].T

    def gamma(self) -> BipartiteState:
        """rho^Gamma as a state with these cuts, holding this state's two
        decompositions swapped; refuses a state that is NPT at `psd_tol`."""
        ppt, min_eig = is_ppt(self)
        if not ppt:
            raise ValueError(f"the partial transpose is not PSD: min eigenvalue {min_eig:.3e}")
        return self._derived(partial_transpose(self.op), {False: self.eigh(True),
                                                          True: self.eigh()})

    def _derived(self, op: HermitianOperator, eig: dict) -> BipartiteState:
        """A state on `op` holding the decompositions `eig`, at this state's cuts (only the
        constructor sets cuts); no check runs: the caller answers for PSD and trace."""
        out = BipartiteState.__new__(BipartiteState)
        out._hold(op, eig, (self.rank_tol, self.psd_tol))
        return out


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
    largest discarded over the smallest kept |eigenvalue|, that is singular
    value (0.0 when none or all were discarded), as an audit of the ranks.
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


def from_blocks(factor: BlockFactor, **cuts) -> BipartiteState:
    """Assemble the state with blocks (i, j) = C_i^dag C_j, at the constructor's
    `cuts` (`rank_tol`, `psd_tol`; its defaults where not given).

    The result is Hermitian PSD by construction and its rank equals the rank
    of the stacked matrix [C_0 ... C_{m-1}].
    """
    c = factor.stacked()
    rho = c.conj().T @ c
    rho = (rho + rho.conj().T) / 2.0
    if np.abs(rho).max() == 0.0:
        raise ValueError("blocks are all zero; the result is not a state")
    return BipartiteState(HermitianOperator(factor.dims, rho), **cuts)


def factor_blocks(state: BipartiteState, r_rows: int) -> BlockFactor:
    """Factor rho = C^dag C with R = r_rows rows; inverse of :func:`from_blocks`.

    Raises ValueError when r_rows is below the numerical rank of the state,
    cut at its `rank_tol`, or when an eigenvalue the cut keeps is negative.
    """
    w, v = state.eigh()
    keep = ~_negligible(w, state.rank_tol)
    if np.any(w[keep] < 0):
        raise ValueError(f"eigenvalue {w[keep][0]:.3e} is kept by the rank cut but negative")
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


def _negligible(w: np.ndarray, cut: float) -> np.ndarray:
    """The one rank cut: which eigenvalues have |w| <= cut * max|w|."""
    mod = np.abs(w)
    return mod <= cut * max(mod.max(initial=0.0), 1e-300)


def rank_profile(state: BipartiteState) -> RankProfile:
    """Ranks of rho, rho^Gamma, rho_A, rho_B at the state's `rank_tol`."""
    ranks, gaps = [], []
    for w in (state.eigh()[0], state.eigh(gamma=True)[0],
              *(np.linalg.eigvalsh(x) for x in reduced_operators(state.op))):
        mod, small = np.abs(w), _negligible(w, state.rank_tol)
        ranks.append(int(np.sum(~small)))
        gaps.append(float(mod[small].max() / mod[~small].min()) if 0 < ranks[-1] < w.size
                    else 0.0)
    return RankProfile(*ranks, singular_gaps=tuple(gaps))


def is_ppt(state: BipartiteState) -> tuple:
    """Whether rho^Gamma is PSD at the state's `psd_tol`; returns (verdict, min_eig)."""
    return _psd_verdict(state.eigh(gamma=True)[0], state.psd_tol)


def _psd_verdict(eigs: np.ndarray, tol: float) -> tuple:
    """(whether ascending eigenvalues `eigs` are PSD at relative `tol`, least one)."""
    return bool(eigs[0] >= -tol * max(eigs[-1], 1e-300)), float(eigs[0])


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of `a`, as columns: the right
    singular vectors past every singular value above eps * max(a.shape) *
    s_max, the cut of `scipy.linalg.null_space`, in scipy's memory layout
    (from a Fortran-ordered vh, as LAPACK returns it).  No report depends on
    that layout: `segre.complement_stack` copies into one C-ordered stack."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
    return np.asfortranarray(vh)[int(np.sum(s > tol)):].T.conj()


def kernel_basis(state: BipartiteState) -> SubspaceBasis:
    """Orthonormal basis of ker rho (eigenvectors at negligible eigenvalue)."""
    return SubspaceBasis(state.dims.total, state.split()[0], tol_used=state.rank_tol)


def range_basis(state: BipartiteState) -> SubspaceBasis:
    """Orthonormal basis of the range of rho; complements :func:`kernel_basis`."""
    return SubspaceBasis(state.dims.total, state.split()[1], tol_used=state.rank_tol)


# ---------------------------------------------------------------------------
# file format
#
# A state file is a JSON object, either
#   {"m": int, "n": int, "matrix": [[[re, im], ...], ...]}        (dense)
# or
#   {"m": int, "n": int, "r": int, "blocks": [[[[re, im], ...]]]} (factored)
# with complex entries serialized as [re, im] pairs of IEEE-754 doubles.


def complex_pairs(a) -> list:
    """Complex array `a` as nested lists, each entry an [re, im] pair of floats:
    the one encoding of complex numbers in state files, basis files and reports."""
    return np.stack((np.real(a), np.imag(a)), axis=-1).tolist()


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
               "matrix": complex_pairs(state.matrix)}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path, *, rank_tol: float = RANK_TOL, psd_tol: float = PSD_TOL) -> BipartiteState:
    """Read a state file in either dense or factored form and admit it at the cuts given,
    as the constructor does: one eigendecomposition, a PSD check at `psd_tol`."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        for key in ("m", "n"):
            if type(payload[key]) is not int:      # refuses 3.9, true and "3"
                raise ValueError(f"state file {path}: field {key!r} must be an integer, "
                                 f"got {json.dumps(payload[key])}")
        dims = BipartiteDims(payload["m"], payload["n"])
        if "matrix" in payload:
            rho = _decode_complex_matrix(payload["matrix"])
            return BipartiteState(HermitianOperator(dims, rho), rank_tol=rank_tol, psd_tol=psd_tol)
        if "blocks" in payload:
            factor = BlockFactor(dims, [_decode_complex_matrix(b, f"block {i}")
                                        for i, b in enumerate(payload["blocks"])])
            # "r" is optional, but when present it must be the blocks' row count
            r = payload.get("r", factor.r_rows)
            if type(r) is not int or r != factor.r_rows:
                raise ValueError(f"state file {path}: field 'r' must be the integer "
                                 f"{factor.r_rows}, the blocks' row count, got {json.dumps(r)}")
            return from_blocks(factor, rank_tol=rank_tol, psd_tol=psd_tol)
    # nesting too deep to parse, an integer too large for a float
    except (KeyError, TypeError, RecursionError, OverflowError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    raise ValueError(f"state file {path} has neither 'matrix' nor 'blocks'")
