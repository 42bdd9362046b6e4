"""Independent reference computations that the tests compare `certify` and
`segre` against.

None of these is on a route the package takes.  Each one computes the same
quantity as a package function by the direct, slow construction:

- `nullity_unrestricted` parametrizes every Hermitian matrix on the full
  space and states both range constraints explicitly;
- `constraint_columns` builds the extremality constraint matrix one
  Hermitian basis matrix at a time (r^2 partial transposes), in the column
  order of `_hermitian_basis`, from its own eigendecompositions of rho and
  rho^Gamma, and `nullity_by_columns` decides from its singular values by
  `certify.nullity_verdict`, as `certify.extremality_nullity` does;
- `bisection_step` finds the witness splitting step by 60 bisection steps
  on the four PSD conditions;
- `BorderedTracker` solves every tangent and Newton step with the
  (m + n)-square Jacobian bordered by the two patch rows, where
  `segre._PathTracker` solves in the patch's own m + n - 2 directions, and
  `ReferenceTracker` tracks with that algebra, a fresh tangent at the top
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
  retire rule;
- `pencil_roots_2xn` finds the product vectors of a subspace of
  C^2 (x) C^n with a square membership system from the one determinant
  condition, where `segre.enumerate_product_vectors` tracks homotopy paths;
- `_PointPool` dedups points one `ProductVector.overlap` call at a time,
  where `segre._distinct` compares each row with every kept one in one
  batched product;
- `macaulay_gram` builds the Macaulay matrix at bidegree (1, 3) one row
  per equation and quadratic monomial and returns M^H M, where
  `segre._hilbert_certificate` scatters its Gram from the complement's
  projector.

Two test-only helpers sit here too, with no package counterpart:
`find_rank1_compression` searches for a local vector |a> that compresses a
state to rank one, by `segre._plane_search` with (n - 1)-frames, and
`tiles_upb_3x3` is the classic five-vector 3x3 tiles basis, a fixture.

scipy is a dependency of the tests only (the `test` extra), and only the
two scipy routes here use it; every other oracle, `segre.minor_system_roots`
included, is numpy alone.  Each scipy route imports `scipy.linalg` when
called, so this module imports without scipy; a test that calls one of
them starts with `pytest.importorskip("scipy.linalg")` and skips where
scipy is not installed.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from pptlab import segre
from pptlab.certify import NULLITY_CUTOFF, nullity_verdict
from pptlab.qstate import (
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    ProductVector,
    SubspaceBasis,
    _gamma,
    gamma_matrix,
    kernel_basis,
)
from pptlab.segre import (
    DEDUP_TOL,
    RESIDUAL_TOL,
    _HOMOTOPY_ENDGAME,
    _HOMOTOPY_MIN_STEP,
    _PathTracker,
    _polish_batch,
    _solve_rows,
    membership_stack,
    start_pairs,
)
from pptlab.zoo import UpbFamily


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


def eigen_columns(matrix: np.ndarray, rank_tol: float) -> tuple:
    """(kernel, range) of a Hermitian matrix as eigenvector columns, the
    kernel at |w| <= rank_tol * max|w|, from this module's own
    `np.linalg.eigh`."""
    w, v = np.linalg.eigh(matrix)
    small = np.abs(w) <= rank_tol * max(np.abs(w).max(), 1e-300)
    return v[:, small], v[:, ~small]


def nullity_unrestricted(state: BipartiteState, cutoff: float = NULLITY_CUTOFF,
                         rank_tol: float = 1e-9) -> int:
    """Same nullity through an independent parametrization (all Hermitian
    matrices, both range constraints explicit)."""
    m, n = state.dims.m, state.dims.n
    d = m * n
    w, v = np.linalg.eigh(state.matrix)
    rperp = v[:, w <= rank_tol * w[-1]]
    gperp = eigen_columns(gamma_matrix(state), rank_tol)[0]
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
    p = eigen_columns(state.matrix, rank_tol)[1]
    gperp = eigen_columns(gamma_matrix(state), rank_tol)[0]
    basis = _hermitian_basis(p.shape[1])
    cols = np.empty((2 * gperp.shape[1] * m * n, len(basis)))
    for idx, e in enumerate(basis):
        c = gperp.conj().T @ _gamma(p @ e @ p.conj().T, m, n)
        cols[:, idx] = np.concatenate([c.real.ravel(), c.imag.ravel()])
    return cols


def nullity_by_columns(state: BipartiteState, rank_tol: float = RANK_TOL) -> tuple:
    """(nullity, verdict, singular values) of `constraint_columns`, decided
    by `certify.nullity_verdict`, the rule `certify.extremality_nullity`
    reads."""
    cols = constraint_columns(state, rank_tol)
    sv = np.linalg.svd(cols, compute_uv=False)
    return (*nullity_verdict(sv, cols.shape[1]), sv)


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


class BorderedTracker(_PathTracker):
    """`segre._PathTracker` with the bordered algebra: each tangent and Newton
    solve factors the (m + n) x (m + n) Jacobian of dH/dz over the two patch
    rows, whose Newton right-hand side holds the patch residuals, where the
    package solves the (m + n - 2)-square system in the patch's directions.
    The step rule is the package's."""

    def __init__(self, wc: np.ndarray):
        super().__init__(wc)
        rp, m, n = wc.shape
        self.patch_rows = np.zeros((2, m + n), dtype=complex)
        self.patch_rows[0, :m] = self.patch_a
        self.patch_rows[1, m:] = self.patch_b
        self.wb = wc.transpose(2, 0, 1).reshape(n, rp * m)

    def jacobian(self, z, s):
        """(dH/dz, F1, F0) at each row of z; s is per row."""
        rp, m, n = self.rp, self.m, self.n
        a, b = z[:, :m], z[:, m:]
        fa = (a @ self.wa).reshape(z.shape[0], rp, n)
        gb = (b @ self.wb).reshape(z.shape[0], rp, m)
        xa, yb = a @ self.x.T, b @ self.y.T
        w0 = (self.gamma * (1 - s))[:, None, None]
        w1 = s[:, None, None]
        jac = np.empty((z.shape[0], rp + 2, m + n), dtype=complex)
        jac[:, :rp, :m] = w1 * gb + (w0 * yb[:, :, None]) * self.x
        jac[:, :rp, m:] = w1 * fa + (w0 * xa[:, :, None]) * self.y
        jac[:, rp:] = self.patch_rows
        return jac, (fa @ b[:, :, None])[:, :, 0], xa * yb

    def tangent(self, z, s):
        """dz/ds = -(dH/dz)^-1 dH/ds."""
        jac, f1, f0 = self.jacobian(z, s)
        hs = np.zeros((z.shape[0], self.rp + 2, 1), dtype=complex)
        hs[:, :self.rp, 0] = f1 - self.gamma * f0
        return -_solve_rows(jac, hs)[:, :, 0]

    def newton(self, z, s, tangent=False):
        """The Newton correction (dH/dz)^-1 H at z and, with `tangent`, the
        tangent there (else None), both from one LU of dH/dz."""
        rp, m = self.rp, self.m
        jac, f1, f0 = self.jacobian(z, s)
        rhs = np.zeros((z.shape[0], rp + 2, 2 if tangent else 1), dtype=complex)
        rhs[:, :rp, 0] = (self.gamma * (1 - s))[:, None] * f0 + s[:, None] * f1
        rhs[:, rp, 0] = z[:, :m] @ self.patch_a - 1
        rhs[:, rp + 1, 0] = z[:, m:] @ self.patch_b - 1
        if not tangent:
            return _solve_rows(jac, rhs)[:, :, 0], None
        rhs[:, :rp, 1] = f1 - self.gamma * f0
        x = _solve_rows(jac, rhs)
        return x[:, :, 0], -x[:, :, 1]


class ReferenceTracker(BorderedTracker):
    """`BorderedTracker` with the plain step: RK4 from the tangent
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
        self.active[good[self.s[good] >= 1.0]] = False
        grow = good[self.s[good] < 1.0]
        self.step[grow] = np.minimum(np.minimum(self.step[grow] * 1.6, 0.1), 1.0 - self.s[grow])
        self.step[bad] /= 2
        self.active[bad] = (self.step[bad] >= _HOMOTOPY_MIN_STEP) & (self.s[bad] < _HOMOTOPY_ENDGAME)
        too_far = grow[np.linalg.norm(self.z[grow], axis=1) > 1e8]
        self.diverged[too_far] = True
        self.active[too_far] = False


def scipy_pencil_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`certify._pencil_eigvalsh` by scipy's generalized `eigh`."""
    import scipy.linalg
    return scipy.linalg.eigh(a, b, eigvals_only=True)


def scipy_schur_basis(t: np.ndarray) -> tuple:
    """`certify._schur_basis` by scipy's complex Schur decomposition."""
    import scipy.linalg
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


class _PointPool:
    """Accumulates verified points with scale-invariant deduplication."""

    def __init__(self):
        self.points: list = []
        self.residuals: list = []

    def add(self, pv: ProductVector, residual: float) -> bool:
        """Adds a point unless it is one already held; True when it is new."""
        for i, q in enumerate(self.points):
            if pv.overlap(q) > 1.0 - DEDUP_TOL:
                if residual < self.residuals[i]:
                    self.points[i] = pv
                    self.residuals[i] = residual
                return False
        self.points.append(pv)
        self.residuals.append(residual)
        return True


def macaulay_gram(wc: np.ndarray) -> np.ndarray:
    """M^H M, M the Macaulay matrix at bidegree (1, 3) of the equations
    a^T wc_r b, linear in a and cubic in b: a row per equation and quadratic
    monomial of b, a column per coordinate of a and cubic monomial of b."""
    _, lin, cub = wc.shape
    cubic = {g: i for i, g in enumerate(itertools.combinations_with_replacement(range(cub), 3))}
    rows = []
    for w in wc:
        for beta in itertools.combinations_with_replacement(range(cub), 2):
            row = np.zeros((lin, len(cubic)), dtype=complex)
            for j in range(cub):
                row[:, cubic[tuple(sorted(beta + (j,)))]] += w[:, j]
            rows.append(row.ravel())
    mac = np.array(rows)
    return mac.conj().T @ mac


def _poly_roots_companion(coeffs_ascending: np.ndarray) -> np.ndarray:
    """Roots via the companion matrix, with negligible leading coeffs removed."""
    c = np.asarray(coeffs_ascending, dtype=complex)[::-1]
    top = np.abs(c).max()
    if top == 0:
        return np.empty(0, dtype=complex)
    nz = np.nonzero(np.abs(c) > 1e-12 * top)[0]
    c = c[nz[0]:]
    if c.size <= 1:
        return np.empty(0, dtype=complex)
    return np.roots(c)


def _det_samples_to_coeffs(vals: np.ndarray) -> np.ndarray:
    """Coefficients of a polynomial sampled on the roots of unity (exact FFT)."""
    return np.fft.fft(vals) / vals.size


def pencil_roots_2xn(k: SubspaceBasis, dims: BipartiteDims) -> list:
    """Product vectors in a subspace of C^2 (x) C^n whose membership matrix
    is square: the single determinant condition det F((1, t)) = 0.

    Serves as an independent oracle for the enumerator: the polynomial is
    interpolated exactly on roots of unity and solved with the companion
    matrix, plus the chart point a = (0, 1).  Each root is
    verified against the residual tolerance before being returned.
    """
    if dims.m != 2:
        raise ValueError("pencil oracle requires m = 2")
    wc = membership_stack(k, dims)
    if wc.shape[0] != dims.n:
        raise ValueError(f"membership matrix is {wc.shape[0]}x{dims.n}, must be square")
    a0 = np.einsum('i,rij->rj', np.array([1.0, 0.0]), wc)
    a1 = np.einsum('i,rij->rj', np.array([0.0, 1.0]), wc)
    k1 = dims.n + 1
    ws = np.exp(2j * np.pi * np.arange(k1) / k1)
    vals = np.array([np.linalg.det(a0 + s * a1) for s in ws])
    cands = [np.array([1.0, s]) for s in _poly_roots_companion(_det_samples_to_coeffs(vals))]
    cands.append(np.array([0.0, 1.0]))
    pool = _PointPool()
    for a in cands:
        a = a / np.linalg.norm(a)
        f = np.einsum('i,rij->rj', a, wc)
        b = np.linalg.svd(f)[2][-1].conj()
        aa, bb, res = _polish_batch(wc, a[None, :], b[None, :], 20)
        if res[0] <= RESIDUAL_TOL:
            pool.add(ProductVector(aa[0], bb[0]), float(res[0]))
    return pool.points


def find_rank1_compression(state: BipartiteState) -> Optional[tuple]:
    """Search for a unit |a> with <a|rho|a> of rank one.

    Equivalent to a hyperplane H in the B space with |a> (x) H inside the
    kernel, found by `segre._plane_search` with (n - 1)-frames from 96
    seeded starts; returns (a, hyperplane basis) of the first verified hit,
    in start order, whose compression has rank one, or None.  Only the A
    side is examined; swap parties to ask the mirrored question.
    """
    dims = state.dims
    m, n = dims.m, dims.n
    if n < 2:
        return None
    kern = kernel_basis(state)
    stack = membership_stack(kern, dims)   # range of rho as matrices
    hits = segre._plane_search("A", stack, start_pairs(96, m, n)[0], n - 1)
    rho_t = state.matrix.reshape(m, n, m, n)
    for hit in hits.values():
        compressed = np.einsum('i,injm,j->nm', hit.vector.conj(), rho_t, hit.vector)
        sv = np.linalg.svd(compressed, compute_uv=False)
        if sv[0] > 0 and (sv.size < 2 or sv[1] <= 1e-8 * sv[0]):
            return hit.vector, hit.subspace
    return None


def tiles_upb_3x3() -> UpbFamily:
    """The classic five-vector 3x3 tiles basis (test fixture, not new here)."""
    s = 1.0 / np.sqrt(2.0)
    t = 1.0 / np.sqrt(3.0)
    raw = [
        ((1, 0, 0), (s, -s, 0)),
        ((0, 0, 1), (0, s, -s)),
        ((s, -s, 0), (0, 0, 1)),
        ((0, s, -s), (1, 0, 0)),
        ((t, t, t), (t, t, t)),
    ]
    vectors = [ProductVector(np.array(a, dtype=complex), np.array(b, dtype=complex))
               for a, b in raw]
    return UpbFamily(BipartiteDims(3, 3), vectors, family_name="tiles3x3")
