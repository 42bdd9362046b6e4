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
rho^Gamma.  A full SVD of the constraint matrix makes the answer an
auditable integer: the reported gap ratio separates the kept from the
discarded singular values.

The remaining certificates are self-contained: the quadratic necessary
bound on biranks, an edge-state check (no product vector in the range whose
partial conjugate sits in the range of rho^Gamma), a product decomposition
for PPT states of rank equal to the B-local rank, and a search for local
vectors that compress the state to rank one.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

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
    range_basis,
    rank_profile,
    _eig_split,
    _gamma,
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
    halton_pairs,
    partial_conjugate,
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
    orthogonal to rho whenever the nullity exceeds one."""

    nullity: int
    verdict: Extremality
    gap_ratio: float
    singular_spectrum: np.ndarray
    witness: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        gap = float(self.gap_ratio)
        return {
            "nullity": self.nullity,
            "verdict": self.verdict.value,
            "gap_ratio": gap if np.isfinite(gap) else None,
            "singular_spectrum": [float(s) for s in self.singular_spectrum],
            "has_witness": self.witness is not None,
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


def _hermitian_basis(r: int) -> list:
    """Orthonormal (Hilbert-Schmidt) basis of r x r Hermitian matrices."""
    out = []
    for i in range(r):
        e = np.zeros((r, r), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    s = 1.0 / np.sqrt(2.0)
    for i in range(r):
        for j in range(i + 1, r):
            e = np.zeros((r, r), dtype=complex)
            e[i, j] = s
            e[j, i] = s
            out.append(e)
            e = np.zeros((r, r), dtype=complex)
            e[i, j] = 1j * s
            e[j, i] = -1j * s
            out.append(e)
    return out


def extremality_nullity(state: BipartiteState, *, rank_tol: float = RANK_TOL,
                        psd_tol: float = PSD_TOL) -> ExtremalityCert:
    """Dimension of {Hermitian H : R(H) in R(rho), R(H^G) in R(rho^G)}.

    Verdicts: EXTREME for nullity one with a certified singular gap,
    NOT_EXTREME for larger nullity, BORDERLINE whenever the gap between
    kept and discarded singular values is too small to trust the integer.
    Singular values of the constraint map are cut at NULLITY_CUTOFF.  A
    state that is NPT at `psd_tol` draws a warning.
    """
    ppt, min_eig = is_ppt(state, tol=psd_tol)
    if not ppt:
        warnings.warn(f"extremality criterion applied to an NPT state "
                      f"(min eigenvalue of the partial transpose {min_eig:.3e})")
    m, n = state.dims.m, state.dims.n
    p = range_basis(state, tol_rel=rank_tol).vectors.T          # mn x r
    r = p.shape[1]
    gperp = _eig_split(gamma_matrix(state), rank_tol)[0].T      # mn x (mn - s)
    basis = _hermitian_basis(r)
    if gperp.shape[1] == 0:
        # no constraint: every direction inside the range is feasible
        nullity = r * r
        verdict = Extremality.NOT_EXTREME if nullity > 1 else Extremality.EXTREME
        witness = (_witness_from_nullspace(state, p, basis, np.eye(r * r))
                   if nullity > 1 else None)
        return ExtremalityCert(nullity, verdict, np.inf, np.zeros(0), witness)
    cols = np.empty((2 * gperp.shape[1] * m * n, r * r))
    for idx, e in enumerate(basis):
        h = p @ e @ p.conj().T
        c = gperp.conj().T @ _gamma(h, m, n)
        cols[:, idx] = np.concatenate([c.real.ravel(), c.imag.ravel()])
    # each column is a unit Hilbert-Schmidt matrix pushed through the
    # orthonormal P and G-perp, so the map has scale one and the cutoff is
    # absolute: a relative cut would count rounding noise as rank whenever
    # every column vanishes, as for a pure product state
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > NULLITY_CUTOFF))
    nullity = r * r - rank              # columns not killed by the constraints
    if nullity == 0:                    # impossible: rho itself is feasible
        return ExtremalityCert(0, Extremality.BORDERLINE, 0.0, sv, None)
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
        _, _, vh = np.linalg.svd(cols)
        witness = _witness_from_nullspace(state, p, basis, vh[r * r - nullity:].real)
    return ExtremalityCert(nullity, verdict, gap, sv, witness)


def _witness_from_nullspace(state: BipartiteState, p: np.ndarray, basis: list,
                            null_rows: np.ndarray) -> Optional[np.ndarray]:
    """A unit-Frobenius feasible Hermitian direction orthogonal to rho."""
    r = p.shape[1]
    x_rho = p.conj().T @ state.matrix @ p
    rho_coords = np.array([np.trace(e.conj().T @ x_rho).real for e in basis])
    coeff = null_rows @ rho_coords
    perp = scipy.linalg.null_space(coeff[None, :])
    if perp.shape[1] == 0:
        return None
    combo = perp[:, 0] @ null_rows
    x = sum(c * e for c, e in zip(combo, basis))
    h = p @ x @ p.conj().T
    h = (h + h.conj().T) / 2.0
    nrm = np.linalg.norm(h)
    return h / nrm if nrm > 0 else None


def nullity_unrestricted(state: BipartiteState, cutoff: float = NULLITY_CUTOFF,
                         rank_tol: float = 1e-9) -> int:
    """Same nullity through an independent parametrization (all Hermitian
    matrices, both range constraints explicit); used as a consistency oracle."""
    m, n = state.dims.m, state.dims.n
    d = m * n
    w, v = np.linalg.eigh(state.matrix)
    rperp = v[:, w <= rank_tol * w[-1]]
    gperp = _eig_split(gamma_matrix(state), rank_tol)[0].T
    basis = _hermitian_basis(d)
    rows = []
    for e in basis:
        c1 = rperp.conj().T @ e
        c2 = gperp.conj().T @ _gamma(e, m, n)
        rows.append(np.concatenate([c1.real.ravel(), c1.imag.ravel(),
                                    c2.real.ravel(), c2.imag.ravel()]))
    a = np.array(rows).T
    if a.size == 0 or np.abs(a).max() == 0.0:
        return d * d
    sv = np.linalg.svd(a, compute_uv=False)
    return d * d - int(np.sum(sv > cutoff * sv[0]))


def witness_decomposition(state: BipartiteState, cert: ExtremalityCert) -> tuple:
    """Split a non-extreme state as rho = (rho1 + rho2)/2 along the witness.

    The step size is found by bisection so that both rho +- eps*H and their
    partial transposes stay PSD with a factor-two margin.  Raises when no
    step above 1e-10 relative to the largest eigenvalue exists, which
    signals a numerically unusable witness rather than extremality.
    """
    if cert.nullity <= 1 or cert.witness is None:
        raise ValueError("witness decomposition needs a certificate with nullity > 1")
    h = cert.witness
    m, n = state.dims.m, state.dims.n
    rho = state.matrix
    grho = _gamma(rho, m, n)
    gh = _gamma(h, m, n)
    scale = np.linalg.eigvalsh(rho)[-1]

    def feasible(eps: float) -> bool:
        for mat in (rho + eps * h, rho - eps * h, grho + eps * gh, grho - eps * gh):
            if np.linalg.eigvalsh(mat)[0] < -1e-12 * scale:
                return False
        return True

    hi = float(scale)
    while feasible(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    eps = lo / 2.0
    if eps < 1e-10 * scale:
        raise ArithmeticError("no usable splitting step above 1.0e-10 relative")
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
    a homotopy count, the verdict follows from it.  Otherwise route two minimizes the joint
    projection residual directly from EDGE_FALLBACK_STARTS starts, and the
    verdict is a numerical certificate whose quality is reported through
    the start count and the best residual reached.  A pair counts when its
    residual is below EDGE_PAIR_TOL.  A state that is NPT at `psd_tol`
    draws a warning.
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
    a, b = halton_pairs(EDGE_FALLBACK_STARTS, m, n)
    for _ in range(60):
        f1 = np.einsum('si,rij->srj', a, kern_rho)
        f2 = np.einsum('si,rij->srj', a.conj(), kern_gamma)
        b = np.linalg.svd(np.concatenate([f1, f2], axis=1))[2][:, -1, :].conj()
        a = _edge_a_step(kern_rho, kern_gamma, b)
    r1 = np.einsum('si,rij,sj->sr', a, kern_rho, b)
    r2 = np.einsum('si,rij,sj->sr', a.conj(), kern_gamma, b)
    joint = np.sqrt(np.linalg.norm(r1, axis=1) ** 2 + np.linalg.norm(r2, axis=1) ** 2)
    starts += EDGE_FALLBACK_STARTS
    best = min(best, float(joint.min()))
    idx = int(np.argmin(joint))
    if joint[idx] < EDGE_PAIR_TOL:
        pv = ProductVector(a[idx], b[idx])
        return EdgeReport(False, (pv, partial_conjugate(pv)), starts, float(joint[idx]),
                          "multistart", paths)
    return EdgeReport(True, None, starts, best, "multistart", paths)


def _edge_a_step(kern_rho: np.ndarray, kern_gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unit a minimizing |G1(b) a|^2 + |G2(b) conj(a)|^2 for each row of b.

    The sum equals |[G1(b); conj(G2(b))] a|^2, so a is the least right
    singular vector of that stacked complex matrix.
    """
    g1 = np.einsum('rij,sj->sri', kern_rho, b)
    g2 = np.einsum('rij,sj->sri', kern_gamma, b)
    return np.linalg.svd(np.concatenate([g1, g2.conj()], axis=1))[2][:, -1, :].conj()


# ---------------------------------------------------------------------------
# product decompositions of low-rank PPT states


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
        tri, z = scipy.linalg.schur(np.asarray(t, dtype=complex), output="complex")
        eigs = np.diag(tri)
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
