"""Independent reference computations that the tests compare `certify` and
`segre` against.

None of these is on a route the package takes.  Each one computes the same
quantity as a package function by the direct, slow construction:

- `nullity_unrestricted` parametrizes every Hermitian matrix on the full
  space and states both range constraints explicitly;
- `constraint_columns` builds the extremality constraint matrix one
  Hermitian basis matrix at a time (r^2 partial transposes), in the column
  order of `_hermitian_basis`, and `nullity_by_columns` cuts its singular
  values the way `certify.extremality_nullity` does;
- `bisection_step` finds the witness splitting step by 60 bisection steps
  on the four PSD conditions;
- `ReferenceTracker` tracks homotopy paths with a fresh tangent at the top
  of every attempted step and a fixed x1.6 growth of an accepted step;
- `scipy_pencil_eigvalsh` and `scipy_schur_basis` are the scipy routes
  (generalized `eigh`, complex `schur`) that `certify._pencil_eigvalsh` and
  `certify._schur_basis` replace with numpy;
- `transversal_by_tangent_span` takes the rank of K with the tangent
  space's columns a (x) e_j and e_i (x) b side by side, where
  `segre.transversal` takes the rank of the gauge-fixed Jacobian;
- `_plane_alternation` (the plane search) takes the least right singular
  vectors by SVD, where `segre._alternate` takes one inverse-iteration step
  toward them on Gram matrices;
- `inverse_iteration_step` takes that step with F^H F formed from the
  membership matrices F themselves, not from the Gram tensor, and
  `alternate_by_inverse_iteration` alternates it over pairs without the
  retire rule.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from pptlab.certify import GAP_AMBIGUOUS, GAP_CERTIFIED, NULLITY_CUTOFF, Extremality
from pptlab.qstate import (
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    ProductVector,
    SubspaceBasis,
    _eig_split,
    _gamma,
    gamma_matrix,
    range_basis,
)
from pptlab.segre import _HOMOTOPY_ENDGAME, _HOMOTOPY_MIN_STEP, _PathTracker


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


def nullity_unrestricted(state: BipartiteState, cutoff: float = NULLITY_CUTOFF,
                         rank_tol: float = 1e-9) -> int:
    """Same nullity through an independent parametrization (all Hermitian
    matrices, both range constraints explicit)."""
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


def constraint_columns(state: BipartiteState, rank_tol: float = RANK_TOL) -> np.ndarray:
    """The real (2 d mn x r^2) constraint matrix, column by column: the real
    and imaginary parts of G^H Gamma(P E P^H) for each basis matrix E, with
    G an orthonormal basis of ker rho^Gamma and P one of R(rho)."""
    m, n = state.dims.m, state.dims.n
    p = range_basis(state, tol_rel=rank_tol).vectors.T
    gperp = _eig_split(gamma_matrix(state), rank_tol)[0].T
    basis = _hermitian_basis(p.shape[1])
    cols = np.empty((2 * gperp.shape[1] * m * n, len(basis)))
    for idx, e in enumerate(basis):
        c = gperp.conj().T @ _gamma(p @ e @ p.conj().T, m, n)
        cols[:, idx] = np.concatenate([c.real.ravel(), c.imag.ravel()])
    return cols


def nullity_by_columns(state: BipartiteState, rank_tol: float = RANK_TOL) -> tuple:
    """(nullity, verdict, singular values) of `constraint_columns`, cut at
    the absolute NULLITY_CUTOFF, with the verdict rule of
    `certify.extremality_nullity`."""
    cols = constraint_columns(state, rank_tol)
    r2 = cols.shape[1]
    if cols.shape[0] == 0:
        return r2, Extremality.NOT_EXTREME if r2 > 1 else Extremality.EXTREME, np.zeros(0)
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > NULLITY_CUTOFF))
    kept, disc = sv[:rank], sv[rank:]
    gap = kept[-1] / disc[0] if (kept.size and disc.size and disc[0] > 0) else np.inf
    if gap < GAP_AMBIGUOUS or rank == r2:
        verdict = Extremality.BORDERLINE
    elif r2 - rank == 1:
        verdict = Extremality.EXTREME if gap > GAP_CERTIFIED else Extremality.BORDERLINE
    else:
        verdict = Extremality.NOT_EXTREME
    return r2 - rank, verdict, sv


def bisection_step(state: BipartiteState, h: np.ndarray) -> float:
    """Half the largest eps, to 60 bisection steps, for which rho +- eps H
    and their partial transposes have no eigenvalue below -1e-12 times the
    largest eigenvalue of rho."""
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
    return lo / 2.0


class ReferenceTracker(_PathTracker):
    """`segre._PathTracker` with the plain step: RK4 from the tangent
    recomputed at the path's point, and a step that grows by 1.6 on success
    and halves on rejection."""

    def advance(self):
        idx = np.nonzero(self.active)[0]
        zi, si, hi = self.z[idx], self.s[idx], self.step[idx]
        with np.errstate(all="ignore"):
            k1 = self.tangent(zi, si)
            k2 = self.tangent(zi + hi[:, None] / 2 * k1, si + hi / 2)
            k3 = self.tangent(zi + hi[:, None] / 2 * k2, si + hi / 2)
            k4 = self.tangent(zi + hi[:, None] * k3, si + hi)
            zn = zi + hi[:, None] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            sn = np.where(si + hi > 1.0 - 1e-14, 1.0, si + hi)
            sizes = []
            for _ in range(3):
                dz = self.newton(zn, sn)[0]
                zn = zn - dz
                sizes.append(np.linalg.norm(dz, axis=1) / (1 + np.linalg.norm(zn, axis=1)))
            ok = (sizes[-1] < 1e-10) & (sizes[0] < 1e-2) & np.all(np.isfinite(zn), axis=1)
        good, bad = idx[ok], idx[~ok]
        self.z[good], self.s[good] = zn[ok], sn[ok]
        done = good[self.s[good] >= 1.0]
        self.finished[done] = True
        self.active[done] = False
        grow = good[self.s[good] < 1.0]
        self.step[grow] = np.minimum(np.minimum(self.step[grow] * 1.6, 0.1), 1.0 - self.s[grow])
        self.step[bad] /= 2
        self.active[bad] = (self.step[bad] >= _HOMOTOPY_MIN_STEP) & (self.s[bad] < _HOMOTOPY_ENDGAME)
        too_far = grow[np.linalg.norm(self.z[grow], axis=1) > 1e8]
        self.diverged[too_far] = True
        self.active[too_far] = False


def scipy_pencil_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`certify._pencil_eigvalsh` by scipy's generalized `eigh`."""
    return scipy.linalg.eigh(a, b, eigvals_only=True)


def scipy_schur_basis(t: np.ndarray) -> tuple:
    """`certify._schur_basis` by scipy's complex Schur decomposition."""
    tri, z = scipy.linalg.schur(t, output="complex")
    return np.diag(tri), z


def _plane_alternation(stack, a, w_dim, iters):
    """Alternate from the vector factors a (one per row): the w_dim least
    right singular vectors of the membership matrix F(a), then the a that
    best annihilates them.  Returns (a, h), h the norm of the w_dim smallest
    singular values of F(a)."""
    for _ in range(iters):
        f = np.einsum('si,rij->srj', a, stack)
        vh = np.linalg.svd(f)[2]
        sub = vh[:, -w_dim:, :].conj()                        # (s, w_dim, dim_sub)
        g = np.einsum('rij,swj->swri', stack, sub).reshape(a.shape[0], -1, a.shape[1])
        a = np.linalg.svd(g)[2][:, -1, :].conj()
    f = np.einsum('si,rij->srj', a, stack)
    sv = np.linalg.svd(f, compute_uv=False)
    return a, np.linalg.norm(sv[:, -w_dim:], axis=1)


def inverse_iteration_step(f: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """One step of block inverse iteration from `frame` (starts, side, w)
    toward the w least right singular vectors of each membership matrix f
    (starts, rows, side): solves (F^H F + 1e-12 |F|_F^2) Y = frame, with 1
    for |F|_F^2 where F = 0, and orthonormalises Y by QR."""
    gram = f.conj().transpose(0, 2, 1) @ f
    sq = np.linalg.norm(f, axis=(1, 2)) ** 2
    shift = 1e-12 * np.where(sq > 0, sq, 1.0)
    return np.linalg.qr(np.linalg.solve(gram + shift[:, None, None] * np.eye(f.shape[2]), frame))[0]


def alternate_by_inverse_iteration(wc: np.ndarray, a: np.ndarray, b: np.ndarray, iters: int):
    """`iters` pair iterations on every start, none retired: b steps on F(a),
    then a on G(b), each by `inverse_iteration_step` from itself.  Returns
    (a, b, |F(a) b|)."""
    for _ in range(iters):
        b = inverse_iteration_step(np.einsum('si,rij->srj', a, wc), b[:, :, None])[:, :, 0]
        a = inverse_iteration_step(np.einsum('rij,sj->sri', wc, b), a[:, :, None])[:, :, 0]
    return a, b, np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1)


def transversal_by_tangent_span(k: SubspaceBasis, pv: ProductVector,
                                dims: BipartiteDims) -> bool:
    """Whether rank [K | a (x) e_j | e_i (x) b] = m n, cut at RANK_TOL
    relative to the largest singular value."""
    m, n = dims.m, dims.n
    tangent = np.hstack([np.kron(pv.a[:, None], np.eye(n)), np.kron(np.eye(m), pv.b[:, None])])
    sv = np.linalg.svd(np.hstack([k.vectors.T, tangent]), compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0])) == dims.total
