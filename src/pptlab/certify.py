"""Extremality and structure certificates for PPT states.

A PPT state rho fails to be extreme in the PPT convex set exactly when some
Hermitian H, not proportional to rho, has its range inside the range of rho
and the range of its partial transpose inside that of rho's.  The real
vector space V of such H always contains rho itself, so

    rho extreme  <=>  dim V = 1.

`extremality_nullity` computes dim V as the null space dimension of an
explicit real matrix: H is parametrized as P X P^dag over an orthonormal
range basis P (X Hermitian, r^2 real coordinates) and the constraint is
that the partial transpose of H has no component outside the range of
rho^Gamma.  Rotated by the unitary [K | R] (kernel and range of rho^Gamma),
that component is a Hermitian d x d block and a d x s block, written in
d^2 + 2ds real coordinates; this isometric image keeps the map's singular
values and null space.  The states the paper constructs are real
matrices.  For those, P, K and R are real, and because Gamma commutes with
transposition and with complex conjugation the map splits in two real
blocks: the r(r+1)/2 symmetric units of X reach only the real coordinates,
the r(r-1)/2 antisymmetric ones only the imaginary coordinates.  Each block
is factored by its own QR and an SVD of its triangular factor, about a
quarter of the flops of the one-block QR that a complex state takes.  The
answer is an auditable integer: the reported gap ratio and margin set the
smallest kept singular value against the largest discarded one and against
the cutoff, and the witness of a non-extreme state comes from the null
vectors of the same SVDs.

The remaining certificates are self-contained: the quadratic necessary
bound on biranks, an edge-state check (no product vector in the range whose
partial conjugate sits in the range of rho^Gamma), a product decomposition
for PPT states of rank equal to the B-local rank, and a search for local
vectors that compress the state to rank one.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qstate import (
    PSD_TOL,
    RANK_TOL,
    BipartiteState,
    HermitianOperator,
    ProductVector,
    SubspaceBasis,
    factor_blocks,
    gamma_matrix,
    is_ppt,
    kernel_basis,
    null_space,
    range_basis,
    rank_profile,
    _eig_split,
    _gamma,
    _psd_verdict,
    _split_eigh,
)
from . import segre
from .segre import (
    Classification,
    EnumerationResult,
    Goodness,
    GoodnessVerdict,
    complement_stack,
    enumerate_product_vectors,
    classify_goodness,
    partial_conjugate,
    start_pairs,
    subspace_search,
)

NULLITY_CUTOFF = 1e-8
EDGE_PAIR_TOL = 1e-9
EDGE_FALLBACK_STARTS = 256
GAP_CERTIFIED = 1e4
GAP_AMBIGUOUS = 1e2


class Extremality(enum.Enum):
    EXTREME = "extreme"
    NOT_EXTREME = "not-extreme"
    BORDERLINE = "borderline"


class StrongExtremality(enum.Enum):
    YES = "yes"
    NOT_APPLICABLE = "not-applicable"


@dataclass(eq=False)
class ExtremalityCert:
    """Nullity certificate; `witness` is a unit-Frobenius Hermitian direction
    orthogonal to rho whenever the nullity exceeds one.  `margin` is the
    smallest kept singular value over NULLITY_CUTOFF: the map has scale one,
    so unlike `gap_ratio`, whose denominator is rounding noise on an extreme
    state, it does not move with the rounding."""

    nullity: int
    verdict: Extremality
    gap_ratio: float
    singular_spectrum: np.ndarray
    witness: Optional[np.ndarray] = None
    margin: float = np.nan

    def to_json(self) -> dict:
        gap, margin = float(self.gap_ratio), float(self.margin)
        return {
            "nullity": self.nullity,
            "verdict": self.verdict.value,
            "gap_ratio": gap if np.isfinite(gap) else None,
            "singular_spectrum": [float(s) for s in self.singular_spectrum],
            "has_witness": self.witness is not None,
            "margin": margin if np.isfinite(margin) else None,
        }


@dataclass(eq=False)
class SeparableDecomposition:
    """Weighted pure product terms reproducing a separable state."""

    terms: list
    reconstruction_residual: float


@dataclass(frozen=True)
class EdgeReport:
    """Outcome of the edge check.

    `route` says what decided it: "homotopy" when the product vectors of the
    range are complete by count (a proof), "multistart" when a search
    decided (a numerical certificate).  `paths` are the homotopy path counts
    of the range enumeration, None when the tracker did not run.
    """

    is_edge: bool
    violating_pair: Optional[tuple]
    starts_used: int
    best_residual: float
    route: str = "multistart"
    paths: Optional[dict] = None


def _hermitian_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian r x r matrix in the orthonormal basis of
    diagonal units, then per pair i < j the symmetric (|i><j| + |j><i|)/sqrt2
    and antisymmetric i(|i><j| - |j><i|)/sqrt2 units, interleaved."""
    r = x.shape[0]
    up = np.sqrt(2.0) * x[np.triu_indices(r, 1)]
    return np.concatenate([np.diagonal(x).real, np.stack([up.real, up.imag], 1).ravel()])


def _hermitian_from_coords(c: np.ndarray, r: int) -> np.ndarray:
    """The inverse of `_hermitian_coords`."""
    x = np.zeros((r, r), dtype=complex)
    x[np.triu_indices(r, 1)] = (c[r::2] + 1j * c[r + 1::2]) / np.sqrt(2.0)
    return x + x.conj().T + np.diag(c[:r])


def _constraint_slabs(p: np.ndarray, v: np.ndarray, d: int):
    """Yields (rows, z, antisymmetric) per batch of Hermitian units E: their
    rows in the map, symmetric units first, and their slabs
    Z_E = K^H Gamma(P E P^H) [K | R] as a (units, d, mn) array.

    `p` (r, m, n) holds the range rows of rho, `v` (mn, m, n) the rows of
    ker rho^Gamma (the first d, K) and then of its range (R).  The symmetric
    units are the E_ii and then, per pair i < j, (|i><j| + |j><i|)/sqrt2;
    the antisymmetric units are the i(|i><j| - |j><i|)/sqrt2, whose slabs
    come divided by i, so that real p and v give real z throughout.  For the
    units T_ij = |p_i><p_j|, Z = X_i Y_j with X_i[k, (a, a')] = sum_b
    conj(K_k[a, b]) P_i[a', b] and Y_j[(a, a'), l] = sum_b conj(P_j[a, b])
    V_l[a', b]: pass i builds the T_ij and T_ji with j >= i by two GEMMs.
    """
    r, m, n = p.shape
    mn = m * n
    x = (v[:d].conj().reshape(d * m, n) @ p.reshape(r * m, n).T).reshape(d, m, r, m)
    x = x.transpose(2, 0, 1, 3).reshape(r, d, m * m)
    y = (v.reshape(mn * m, n) @ p.conj().reshape(r * m, n).T).reshape(mn, m, r, m)
    y = y.transpose(3, 1, 2, 0).reshape(m * m, r * mn)
    half = 1.0 / np.sqrt(2.0)
    sym, anti = r, r * (r + 1) // 2        # the next pair row of each kind
    for i in range(r):
        k = r - 1 - i
        row = (x[i] @ y[:, i * mn:]).reshape(d, k + 1, mn).transpose(1, 0, 2)
        col = (x[i + 1:].reshape(k * d, m * m) @ y[:, i * mn:(i + 1) * mn]).reshape(k, d, mn)
        yield slice(i, i + 1), row[:1], False
        yield slice(sym, sym + k), (row[1:] + col) * half, False
        yield slice(anti, anti + k), (row[1:] - col) * half, True
        sym, anti = sym + k, anti + k


@functools.lru_cache(maxsize=64)
def _coord_picks(d: int, mn: int, symmetric: bool) -> tuple:
    """Flat indices into a (d, mn) slab of the coordinates `_coords` takes,
    read-only as every caller shares them, and the slice that sqrt2 scales."""
    up, lo = np.triu_indices(d, 1)
    lead = d if symmetric else 0
    picks = np.concatenate([np.arange(lead) * (mn + 1), up * mn + lo,
                            (np.arange(d)[:, None] * mn + np.arange(d, mn)).ravel()])
    picks.flags.writeable = False
    return picks, slice(lead, lead + up.size)


def _coords(z: np.ndarray, symmetric: bool) -> np.ndarray:
    """Coordinates of real slabs z (units, d, mn) whose d x d blocks are
    symmetric (`symmetric`) or antisymmetric: the diagonal (symmetric only)
    and sqrt2 times the upper triangle, then the d x s block; an isometry on
    such slabs.  A slab's d x d block is Hermitian, so its real part takes
    the symmetric coordinates and its imaginary part the antisymmetric ones,
    d^2 + 2ds in all."""
    units, d, mn = z.shape
    picks, scaled = _coord_picks(d, mn, symmetric)
    out = z.reshape(units, d * mn)[:, picks]
    out[:, scaled] *= np.sqrt(2.0)
    return out


def extremality_nullity(state: BipartiteState, *, rank_tol: float = RANK_TOL,
                        psd_tol: float = PSD_TOL) -> ExtremalityCert:
    """Dimension of {Hermitian H : R(H) in R(rho), R(H^G) in R(rho^G)}.

    When every imaginary part of rho is exactly zero, P, K and R are real
    and, as Gamma commutes with transposition and complex conjugation, the
    r(r+1)/2 symmetric units reach only real slabs and the r(r-1)/2
    antisymmetric ones only imaginary slabs: the map is two real blocks,
    each factored by its own QR and SVD.  Any other state's map is one block
    of all r^2 units.  The spectrum is the sorted union of the blocks'.

    Verdicts: EXTREME for nullity one with a certified singular gap,
    NOT_EXTREME for larger nullity, BORDERLINE whenever the gap between
    kept and discarded singular values is too small to trust the integer.
    Singular values of the constraint map are cut at NULLITY_CUTOFF.  A
    state that is NPT at `psd_tol` draws a warning.
    """
    m, n = state.dims.m, state.dims.n
    real = not np.any(state.matrix.imag)
    rho = state.matrix.real if real else state.matrix
    # one eigendecomposition of rho^Gamma gives the PPT verdict and its split
    w, v = np.linalg.eigh(_gamma(rho, m, n))
    ppt, min_eig = _psd_verdict(w, psd_tol)
    if not ppt:
        warnings.warn(f"extremality criterion applied to an NPT state "
                      f"(min eigenvalue of the partial transpose {min_eig:.3e})")
    p = _eig_split(rho, rank_tol)[1]                            # r x mn
    r = p.shape[0]
    kern, rng_gamma = _split_eigh(w, v, rank_tol)
    d = kern.shape[0]
    n_sym, c_sym = r * (r + 1) // 2, d * (d + 1) // 2 + d * (m * n - d)
    # the map: a row per unit, the coordinates of Re Z and then of Im Z
    cmap = np.zeros((r * r, 2 * c_sym - d))
    for at, z, anti in _constraint_slabs(p.reshape(r, m, n),
                                         np.concatenate([kern, rng_gamma]).reshape(m * n, m, n), d):
        # an antisymmetric unit's z is Z / i, so Re Z = -Im z and Im Z = Re z;
        # on a real state Z is imaginary for those units and real for the others
        if anti:
            cmap[at, c_sym:] = _coords(z.real, False)
            if not real:
                cmap[at, :c_sym] = _coords(-z.imag, True)
        else:
            cmap[at, :c_sym] = _coords(z.real, True)
            if not real:
                cmap[at, c_sym:] = _coords(z.imag, False)
    blocks = [cmap[:n_sym, :c_sym], cmap[n_sym:, c_sym:]] if real else [cmap]
    # each slab is a unit Hilbert-Schmidt matrix pushed through the
    # orthonormal P and the unitary [K | R], so the map has scale one and the
    # cutoff is absolute: a relative cut would count rounding noise as rank
    # whenever every slab vanishes, as for a pure product state.  The R of
    # each QR has the singular values and right singular vectors of its block.
    facs = [np.linalg.qr(b.T, mode="r") for b in blocks]
    # the right singular vectors serve only a witness (nullity > 1).  A
    # triangular R has at least as many nonzero singular values as nonzero
    # diagonal entries, so unless that bound leaves two null directions the
    # nullity is one and the SVDs skip the vectors
    bound = sum(f.shape[1] - np.sum(np.abs(np.diagonal(f)) > NULLITY_CUTOFF) for f in facs)
    svds = [np.linalg.svd(f, compute_uv=bound > 1) for f in facs]
    sv = np.sort(np.concatenate([s[1] if bound > 1 else s for s in svds]))[::-1]
    rank = int(np.sum(sv > NULLITY_CUTOFF))
    nullity = r * r - rank              # directions not killed by the constraints
    margin = float(sv[rank - 1] / NULLITY_CUTOFF) if rank else np.inf
    if nullity == 0:                    # impossible: rho itself is feasible
        return ExtremalityCert(0, Extremality.BORDERLINE, 0.0, sv, None, margin)
    kept, disc = sv[:rank], sv[rank:]
    gap = (float(kept[-1] / disc[0]) if (kept.size and disc.size and disc[0] > 0)
           else np.inf)
    if gap < GAP_AMBIGUOUS:
        verdict = Extremality.BORDERLINE
    elif nullity == 1:
        verdict = Extremality.EXTREME if gap > GAP_CERTIFIED else Extremality.BORDERLINE
    else:
        verdict = Extremality.NOT_EXTREME
    witness = None
    if nullity > 1:
        if bound <= 1:                  # the diagonal bound holds in exact arithmetic only
            svds = [np.linalg.svd(f) for f in facs]
        # each block's null rows, put back in the layout of `_hermitian_coords`:
        # the symmetric units are the diagonal ones and the even pair positions
        units = np.concatenate([np.arange(r), np.arange(r, r * r, 2), np.arange(r + 1, r * r, 2)])
        null_rows, first = [], 0
        for _, s, vh in svds:
            rows = np.zeros((vh.shape[0], r * r))
            rows[:, units[first:first + vh.shape[0]]] = vh
            null_rows.append(rows[int(np.sum(s > NULLITY_CUTOFF)):])
            first += vh.shape[0]
        witness = _witness_from_nullspace(state, p.T, np.concatenate(null_rows))
    return ExtremalityCert(nullity, verdict, gap, sv, witness, margin)


def _witness_from_nullspace(state: BipartiteState, p: np.ndarray,
                            null_rows: np.ndarray) -> Optional[np.ndarray]:
    """A unit-Frobenius feasible Hermitian direction orthogonal to rho."""
    coeff = null_rows @ _hermitian_coords(p.conj().T @ state.matrix @ p)
    perp = null_space(coeff[None, :])
    if perp.shape[1] == 0:
        return None
    x = _hermitian_from_coords(perp[:, 0] @ null_rows, p.shape[1])
    h = p @ x @ p.conj().T
    h = (h + h.conj().T) / 2.0
    nrm = np.linalg.norm(h)
    return h / nrm if nrm > 0 else None


def _pencil_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian pencil (a, b) with b positive definite:
    those of L^-1 a L^-H, b = L L^H.  Raises LinAlgError when the Cholesky
    factorization of b fails."""
    low = np.linalg.cholesky(b)
    half = np.linalg.solve(low, a)                                  # L^-1 a
    return np.linalg.eigvalsh(np.linalg.solve(low, half.conj().T))  # L^-1 a L^-H


def witness_decomposition(state: BipartiteState, cert: ExtremalityCert) -> tuple:
    """Split a non-extreme state as rho = (rho1 + rho2)/2 along the witness.

    The step is closed-form.  On the range of rho (basis Q), rho + tH stays
    PSD exactly while 1 + t mu >= 0 for every generalized eigenvalue mu of
    (Q^H H Q, Q^H rho Q), that is every eigenvalue of L^-1 Q^H H Q L^-H with
    the Cholesky factor Q^H rho Q = L L^H; likewise for the partial
    transposes on the range of rho^Gamma.  So both signs of the step are
    feasible up to t_max = 1 / max|mu|, and eps = t_max / 2 keeps a
    factor-two margin.  The four matrices rho +- eps*H and their partial
    transposes are checked once for PSD.  Raises when that check fails or
    when eps is below 1e-10 relative to the largest eigenvalue, which
    signals a numerically unusable witness rather than extremality.
    """
    if cert.nullity <= 1 or cert.witness is None:
        raise ValueError("witness decomposition needs a certificate with nullity > 1")
    h, rho = cert.witness, state.matrix
    grho, gh = gamma_matrix(state), _gamma(h, state.dims.m, state.dims.n)
    scale = np.linalg.eigvalsh(rho)[-1]
    mu = 0.0
    for a, b in ((h, rho), (gh, grho)):
        q = _eig_split(b, RANK_TOL)[1]
        try:
            w = _pencil_eigvalsh(q.conj() @ a @ q.T, q.conj() @ b @ q.T)
        except np.linalg.LinAlgError:   # not positive definite on its range: NPT
            raise ArithmeticError("the state is not PSD on its range; no splitting step") from None
        mu = max(mu, float(np.abs(w).max()))
    eps = 0.5 / mu
    if eps < 1e-10 * scale:
        raise ArithmeticError("no usable splitting step above 1.0e-10 relative")
    for mat in (rho + eps * h, rho - eps * h, grho + eps * gh, grho - eps * gh):
        if np.linalg.eigvalsh(mat)[0] < -1e-12 * scale:
            raise ArithmeticError(f"the closed-form step {eps:.3e} leaves the PPT set")
    rho1 = BipartiteState(HermitianOperator(state.dims, rho - eps * h), psd_tol=1e-9)
    rho2 = BipartiteState(HermitianOperator(state.dims, rho + eps * h), psd_tol=1e-9)
    return rho1, rho2


def necessary_bound(rank: int, rank_gamma: int, m: int, n: int) -> bool:
    """Whether the birank passes r^2 + s^2 <= (mn)^2 + 1; False rules out
    extremality outright."""
    if not (1 <= rank <= m * n and 1 <= rank_gamma <= m * n):
        raise ValueError(f"birank ({rank}, {rank_gamma}) out of range for {m}x{n}")
    return rank ** 2 + rank_gamma ** 2 <= (m * n) ** 2 + 1


# ---------------------------------------------------------------------------
# edge states


def edge_check(state: BipartiteState, *,
               enumeration: Optional[EnumerationResult] = None,
               tol_rel: float = RANK_TOL, psd_tol: float = PSD_TOL) -> EdgeReport:
    """Look for a product vector in R(rho) whose partial conjugate lies in
    R(rho^Gamma); the state is an edge state iff none exists.

    Route one enumerates product vectors in the range (or takes
    `enumeration`, a result for `range_basis(state, tol_rel)`) and tests
    each partner.  When that enumeration is finite or empty and complete by
    a homotopy count, the verdict follows from it.  Otherwise route two
    minimizes the joint projection residual from EDGE_FALLBACK_STARTS starts
    by the searches' alternation, `segre._alternate` on `_edge_gram`, in
    rounds of 60 iterations, each from the pairs the last one left, until a
    pair is found, 420 at most.  That verdict
    is a numerical certificate, reported with the start count and the best
    residual reached.  A pair counts when its residual is below
    EDGE_PAIR_TOL.  A state that is NPT at `psd_tol` draws a warning.
    """
    ppt, min_eig = is_ppt(state, tol=psd_tol)
    if not ppt:
        warnings.warn(f"edge check applied to an NPT state (min eig {min_eig:.3e})")
    dims = state.dims
    m, n = dims.m, dims.n
    rng_rho = range_basis(state, tol_rel=tol_rel)
    rng_gamma = SubspaceBasis(dims.total, _eig_split(gamma_matrix(state), tol_rel)[1], tol_rel)

    enum_res = enumeration
    if enum_res is None:
        enum_res = enumerate_product_vectors(rng_rho, dims)
    starts = enum_res.evidence.get("starts_used", 0)
    best = enum_res.evidence.get("best_residual", float("inf"))
    route, paths = enum_res.evidence.get("route"), enum_res.evidence.get("paths")
    for pv in enum_res.points:
        partner = partial_conjugate(pv)
        resid = rng_gamma.project_residual(partner.vec())
        if resid < EDGE_PAIR_TOL:
            return EdgeReport(False, (pv, partner), starts, 0.0, route, paths)
    if route == "homotopy" and enum_res.classification in (Classification.FINITE,
                                                           Classification.EMPTY):
        # every product vector of the range was tested: no pair exists
        return EdgeReport(True, None, starts, best, route, paths)

    # joint minimization over (a, b) of the two projection residuals at once
    kern_rho = complement_stack(rng_rho, dims).conj()            # basis of ker rho
    kern_gamma = complement_stack(rng_gamma, dims).conj()
    q = _edge_gram(kern_rho, kern_gamma)
    a, b = start_pairs(EDGE_FALLBACK_STARTS, m, n)
    b = b[:, :, None]
    for _ in range(420 // 60):      # rounds of 60 iterations until a pair is found
        a, b = segre._alternate(q, a, b, 60)
        r1 = np.einsum('si,rij,sj->sr', a, kern_rho, b[:, :, 0])
        r2 = np.einsum('si,rij,sj->sr', a.conj(), kern_gamma, b[:, :, 0])
        joint = np.sqrt(np.linalg.norm(r1, axis=1) ** 2 + np.linalg.norm(r2, axis=1) ** 2)
        if joint.min() < EDGE_PAIR_TOL:
            break
    starts += EDGE_FALLBACK_STARTS
    idx = int(np.argmin(joint))
    if joint[idx] < EDGE_PAIR_TOL:
        pv = ProductVector(a[idx], b[idx, :, 0])
        return EdgeReport(False, (pv, partial_conjugate(pv)), starts, float(joint[idx]),
                          "multistart", paths)
    return EdgeReport(True, None, starts, min(best, float(joint[idx])), "multistart", paths)


def _edge_gram(kern_rho: np.ndarray, kern_gamma: np.ndarray) -> np.ndarray:
    """Q1 + S Q2, from the `segre._gram` of each stack, S swapping Q2's a indices:
    |F1(a) b|^2 + |F2(conj a) b|^2 has b-Gram (conj(a) (x) a)(Q1 + S Q2) and
    a-Gram G1^H G1 + conj(G2^H G2) = (conj(b) (x) b)(Q1 + S Q2)^T."""
    m = kern_rho.shape[1]
    swapped = segre._gram(kern_gamma).reshape(m, m, -1).transpose(1, 0, 2).reshape(m * m, -1)
    return segre._gram(kern_rho) + swapped


# ---------------------------------------------------------------------------
# product decompositions of low-rank PPT states


def _schur_basis(t: np.ndarray) -> tuple:
    """(eigenvalues, unitary Z) with Z^H t Z upper triangular and its
    diagonal in the order of the eigenvalues: Z is the Q of the QR of the
    eigenvectors, so its first k columns span the first k eigenvectors."""
    eigs, vecs = np.linalg.eig(t)
    return eigs, np.linalg.qr(vecs)[0]


def rank_n_separable_decomposition(state: BipartiteState) -> SeparableDecomposition:
    """Write a PPT state whose rank equals its B-local rank (= n) as a sum
    of n pure product terms.

    The block factor with square blocks is transformed so the first block is
    invertible; the quotients C_i C_0^{-1} then form a commuting normal
    family which one random real combination diagonalizes simultaneously.
    The eigenvalues give the A-factors, the rotated first block the
    B-factors.  A failed simultaneous diagonalization is reported as an
    error since it contradicts the PPT structure.  Six random combinations,
    from a fixed seed, are tried before giving up.
    """
    ppt, min_eig = is_ppt(state)
    if not ppt:
        raise ValueError(f"state is not PPT (min eig of partial transpose {min_eig:.3e})")
    prof = rank_profile(state)
    m, n = state.dims.m, state.dims.n
    if not (prof.rank == prof.rank_b == n and prof.rank >= prof.rank_a):
        raise ValueError(f"decomposition needs rank = B-local rank = {n} >= A-local rank, "
                         f"got rank {prof.rank}, local ranks ({prof.rank_a}, {prof.rank_b})")
    blocks = factor_blocks(state, n).blocks
    rng = np.random.default_rng(11)
    last_err = None
    for _ in range(6):
        mix = np.linalg.qr(rng.standard_normal((m, m))
                           + 1j * rng.standard_normal((m, m)))[0]
        mixed = [sum(mix[k, i].conj() * blocks[i] for i in range(m)) for k in range(m)]
        c0 = mixed[0]
        sv = np.linalg.svd(c0, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            last_err = "singular leading block"
            continue
        c0inv = np.linalg.inv(c0)
        quots = [mixed[i] @ c0inv for i in range(1, m)]
        t = sum(rng.standard_normal() * q for q in quots) if quots else np.zeros((n, n))
        eigs, z = _schur_basis(np.asarray(t, dtype=complex))
        if len(eigs) > 1:
            gaps = np.abs(eigs[:, None] - eigs[None, :])[np.triu_indices(n, 1)]
            if quots and gaps.min() < 1e-8 * max(np.abs(eigs).max(), 1.0):
                last_err = "eigenvalue collision"
                # a collision can be structural; accept if the family still
                # diagonalizes, otherwise retry with a fresh combination
        lams = [z.conj().T @ q @ z for q in quots]
        off = 0.0
        for lam in lams:
            d = np.abs(lam - np.diag(np.diag(lam))).max()
            off = max(off, d / max(np.abs(lam).max(), 1e-300))
        if off > 1e-7:
            last_err = f"off-diagonal mass {off:.2e}"
            continue
        rows = z.conj().T @ c0
        terms = []
        for k in range(n):
            alpha = np.array([1.0] + [lam[k, k] for lam in lams]).conj()
            a_vec = mix.conj().T @ alpha
            b_vec = rows[k].conj()
            weight = float((np.linalg.norm(a_vec) * np.linalg.norm(b_vec)) ** 2)
            if weight < 1e-300:
                continue
            terms.append((weight, ProductVector(a_vec, b_vec)))
        recon = sum(w * np.outer(pv.vec(), pv.vec().conj()) for w, pv in terms)
        resid = np.linalg.norm(recon - state.matrix) / np.linalg.norm(state.matrix)
        if resid < 1e-9:
            return SeparableDecomposition(terms, float(resid))
        last_err = f"reconstruction residual {resid:.2e}"
    raise ArithmeticError(f"simultaneous diagonalization failed: {last_err}; "
                          "this is inconsistent with a PPT state of this rank profile")


def find_rank1_compression(state: BipartiteState) -> Optional[tuple]:
    """Search for a unit |a> with <a|rho|a> of rank one.

    Equivalent to a hyperplane H in the B space with |a> (x) H inside the
    kernel; returns (a, hyperplane basis) or None.  Only the A side is
    examined; swap parties to ask the mirrored question.
    """
    dims = state.dims
    m, n = dims.m, dims.n
    if n < 2:
        return None
    kern = kernel_basis(state)
    stack = complement_stack(kern, dims).conj()       # range of rho as matrices
    hits = subspace_search(stack, m, n, n - 1, 96, 50)
    rho_t = state.matrix.reshape(m, n, m, n)
    for vec, sub, _resid in hits:
        compressed = np.einsum('i,injm,j->nm', vec.conj(), rho_t, vec)
        sv = np.linalg.svd(compressed, compute_uv=False)
        if sv[0] > 0 and (sv.size < 2 or sv[1] <= 1e-8 * sv[0]):
            return vec, SubspaceBasis(n, sub, segre.RESIDUAL_TOL)
    return None


def strongly_extreme_by_theorem(state: BipartiteState,
                                goodness: Optional[GoodnessVerdict] = None,
                                cert: Optional[ExtremalityCert] = None,
                                rank_tol: float = RANK_TOL,
                                psd_tol: float = PSD_TOL) -> StrongExtremality:
    """Theorem-backed derivation: a good PPT state of rank m + n - 2 that is
    extreme shares its range with no other PPT state.  Anything that fails
    one of the three hypotheses returns NOT_APPLICABLE; this is not an
    independent search.  Ranks cut at `rank_tol` and the PPT test at
    `psd_tol`."""
    dims = state.dims
    if rank_profile(state, tol_rel=rank_tol).rank != dims.m + dims.n - 2:
        return StrongExtremality.NOT_APPLICABLE
    if not is_ppt(state, tol=psd_tol)[0]:
        return StrongExtremality.NOT_APPLICABLE
    if goodness is None:
        goodness = classify_goodness(state, rank_tol=rank_tol, psd_tol=psd_tol)
    if goodness.verdict != Goodness.GOOD:
        return StrongExtremality.NOT_APPLICABLE
    if cert is None:
        cert = extremality_nullity(state, rank_tol=rank_tol, psd_tol=psd_tol)
    if cert.verdict != Extremality.EXTREME:
        return StrongExtremality.NOT_APPLICABLE
    return StrongExtremality.YES
