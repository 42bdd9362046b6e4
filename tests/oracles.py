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
  of every attempted step and a fixed x1.6 growth of an accepted step.
"""

from __future__ import annotations

import numpy as np

from pptlab.certify import GAP_AMBIGUOUS, GAP_CERTIFIED, NULLITY_CUTOFF, Extremality
from pptlab.qstate import (
    RANK_TOL,
    BipartiteState,
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
