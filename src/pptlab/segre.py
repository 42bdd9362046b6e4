"""Product vectors inside subspaces of a bipartite space.

The central object is the set of product vectors a (x) b lying in a given
subspace K of C^m (x) C^n.  Membership is measured through an orthonormal
basis {W_r} of the orthocomplement, each W_r viewed as an m x n matrix:

    a (x) b in K   <=>   F(a) b = 0,   F(a) = [a^T conj(W_r)]_r,

and symmetrically G(b) a = 0 with G(b) = [(conj(W_r) b)^T]_r.  The residual
of a unit pair, |F(a) b|, equals the norm of the projection of a (x) b onto
the orthocomplement.

Enumeration first decides what it can from dimensions: with R' = dim K^perp
below m + n - 2, the dimension of the Segre variety, the product set is
positive-dimensional (projective dimension theorem) and is reported as such
without a search.

Every other system goes to the homotopy route: delta(m, n) paths tracked
from a linear-product start system.  A square system (R' = m + n - 2, every
kernel of a state at the borderline rank) is tracked as it is, and delta
distinct, nonsingular, transversal endpoints prove the root set finite and
complete by count.  A larger system (R' > m + n - 2, such as the range of a
state at the borderline rank) is first squared down to m + n - 2 fixed
random combinations L g of its equations g.  Every root of g is a root of
L g, so delta distinct, nonsingular roots of the mixed system hold all of
them.  A root whose full residual, measured before any polish on the full
system, exceeds sqrt(RESIDUAL_TOL) is off the subspace; every other root
must polish onto it.  The kept roots are isolated: the mixed Jacobian L J is
nonsingular there, which forces J to full column rank m + n - 2.  They are
not transversal, since K and the tangent space share a (x) b and cannot span
the whole space when R' > m + n - 2.  The set is FINITE, or EMPTY, complete
by count, and one multistart round cross-checks it; a point found there
outside the counted set overrules the count.

A set no count settled (a square system with a positive-dimensional
component has fewer than delta isolated roots) is searched for product
planes |a> (x) W or V (x) |b>.  A plane makes the set infinite, and it is
reported at once with the homotopy roots that lie on K; nothing samples the
plane.  The plane search also runs beside the dimension-count verdicts.
Only a set that neither a count nor a plane settled gets a search: one round
of deterministic multistart alternating minimization over unit pairs (least
eigenvectors of the Gram matrices F^H F and G^H G in turn, which are the
least right singular vectors of F and G up to phase), followed by a batched
Gauss-Newton polish of the holomorphic system, on top of the homotopy roots
on K.  Every multistart round, that search or the cross-check of a count,
has max(400, 4 delta) starts.

Every candidate is polished and verified against the residual tolerance
before it counts; the evidence names the route taken.  Classification into
Empty / Finite / LikelyInfinite / Inconclusive is evidence-based and
deliberately refuses to overclaim: Finite needs a complete homotopy count,
and a search alone never reports it.

`minor_system_roots` (the determinantal system) and `pencil_roots_2xn` are
independent root finders kept as test oracles; enumeration does not call
them.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.stats import norm, qmc

from .qstate import (
    PSD_TOL,
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    ProductVector,
    SubspaceBasis,
    kernel_basis,
    rank_profile,
    is_ppt,
)
from .zoo import delta

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
POLISH_TARGET = 1e-13
_ALTERNATE_ITERS = 60
_POLISH_ITERS = 16
_BATCH_CAP = 8192
_MIN_STARTS = 400
_MINOR_SEED = 71
_HOMOTOPY_SEED = 1987
_SQUARE_DOWN_SEED = 2005
_HOMOTOPY_MAX_STEPS = 2000
_HOMOTOPY_MIN_STEP = 1e-12


class Classification(enum.Enum):
    EMPTY = "empty"
    FINITE = "finite"
    LIKELY_INFINITE = "likely-infinite"
    INCONCLUSIVE = "inconclusive"


class Goodness(enum.Enum):
    GOOD = "good"
    BAD = "bad"
    INDETERMINATE = "indeterminate"


class GoodnessReason(enum.Enum):
    EMPTY_INTERSECTION = "empty-intersection"
    COUNT_EQUALS_DELTA = "count-equals-delta"
    COUNT_BELOW_DELTA_WITH_NONEMPTY_X = "count-below-delta-with-nonempty-x"
    INFINITE_COMPONENT = "infinite-component"
    RANK_BELOW_BORDERLINE = "rank-below-borderline"


@dataclass(frozen=True)
class LineSubspace:
    """A product subspace inside K: |a> (x) W (side 'A') or V (x) |b> ('B')."""

    side: str
    vector: np.ndarray
    subspace: SubspaceBasis
    residual: float


@dataclass(eq=False)
class EnumerationResult:
    points: list
    residuals: list
    classification: Classification
    evidence: dict

    @property
    def count(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        ev = dict(self.evidence)
        ev["line_subspaces"] = [
            {"side": ls.side, "vector": _c2pairs(ls.vector),
             "subspace_dim": ls.subspace.dim, "residual": ls.residual}
            for ls in ev.get("line_subspaces", [])
        ]
        if not np.isfinite(ev.get("best_residual", 0.0)):
            ev["best_residual"] = None
        for key in ("jacobian_sigma_min", "jacobian_cond"):
            vals = ev.get(key, [])
            if any(not np.isfinite(x) for x in vals):
                ev[key] = [x if np.isfinite(x) else None for x in vals]
        return {
            "classification": self.classification.value,
            "count": self.count,
            "points": [{"a": _c2pairs(p.a), "b": _c2pairs(p.b)} for p in self.points],
            "residuals": list(map(float, self.residuals)),
            "evidence": ev,
        }


@dataclass(frozen=True)
class GoodnessVerdict:
    verdict: Goodness
    reason: Optional[GoodnessReason]
    count: Optional[int] = None
    anomaly: bool = False


def _c2pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


# ---------------------------------------------------------------------------
# membership machinery


def complement_stack(k: SubspaceBasis, dims: BipartiteDims) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of K, as an (R', m, n) stack."""
    if k.ambient_dim != dims.total:
        raise ValueError(f"subspace lives in dim {k.ambient_dim}, expected {dims.total}")
    if k.dim == 0:
        eye = np.eye(dims.total, dtype=complex)
        return eye.reshape(dims.total, dims.m, dims.n)
    comp = scipy.linalg.null_space(k.vectors.conj())
    return comp.T.reshape(-1, dims.m, dims.n)


def _alternate_batch(wc: np.ndarray, a: np.ndarray, b: np.ndarray, iters: int):
    """Block updates: b <- least eigenvector of F(a)^H F(a), then a of G(b)^H G(b).

    These are the least right singular vectors of F(a) and G(b), up to
    phase.  Both Gram matrices are one product with the fixed tensor
    Q[(i,k),(j,l)] = sum_r conj(W_r[i,j]) W_r[k,l]: F^H F is
    (conj(a) (x) a) Q and G^H G is Q (conj(b) (x) b).  The returned
    residual is |F(a) b| itself, never an eigenvalue.
    """
    s, m, n = a.shape[0], wc.shape[1], wc.shape[2]
    q = np.einsum('rij,rkl->ikjl', wc.conj(), wc).reshape(m * m, n * n)
    for _ in range(iters):
        ff = ((a.conj()[:, :, None] * a[:, None, :]).reshape(s, m * m) @ q).reshape(s, n, n)
        b = np.linalg.eigh(ff)[1][:, :, 0]
        gg = ((b.conj()[:, :, None] * b[:, None, :]).reshape(s, n * n) @ q.T).reshape(s, m, m)
        a = np.linalg.eigh(gg)[1][:, :, 0]
    f = np.einsum('si,rij->srj', a, wc)
    res = np.linalg.norm(np.einsum('srj,sj->sr', f, b), axis=1)
    return a, b, res


def _polish_batch(wc: np.ndarray, a: np.ndarray, b: np.ndarray, iters: int):
    """Gauss-Newton on the holomorphic system g_r(a, b) = <W_r, a(x)b>.

    One coordinate of each factor (the largest in modulus) is frozen as the
    gauge; the step solves the least squares system through a batched
    pseudoinverse.  Quadratic convergence near simple roots.
    """
    s, m, n = a.shape[0], a.shape[1], b.shape[1]
    rows = np.arange(s)
    for _ in range(iters):
        g = np.einsum('si,rij,sj->sr', a, wc, b)
        res = np.linalg.norm(g, axis=1)
        if res.max() < POLISH_TARGET:
            break
        fa = np.einsum('si,rij->srj', a, wc)
        gb = np.einsum('rij,sj->sri', wc, b)
        jac = np.concatenate([gb, fa], axis=2)            # (s, R', m+n)
        mask = np.ones((s, 1, m + n))
        mask[rows, 0, np.argmax(np.abs(a), axis=1)] = 0.0
        mask[rows, 0, m + np.argmax(np.abs(b), axis=1)] = 0.0
        jac = jac * mask
        u, sv, vh = np.linalg.svd(jac, full_matrices=False)
        inv = np.where(sv > 1e-12 * sv[:, :1], 1.0 / np.where(sv == 0, 1.0, sv), 0.0)
        step = -np.einsum('skx,sk,srk,sr->sx', vh.conj(), inv, u.conj(), g)
        a = a + step[:, :m]
        b = b + step[:, m:]
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
    g = np.einsum('si,rij,sj->sr', a, wc, b)
    return a, b, np.linalg.norm(g, axis=1)


def halton_pairs(count: int, m: int, n: int, skip: int = 0):
    """Deterministic low-discrepancy start pairs on the two unit spheres.

    The sequence's zeroth point (the origin) is always dropped; `skip`
    counts previously consumed pairs so that successive rounds are fresh.
    """
    sampler = qmc.Halton(d=2 * (m + n), scramble=False)
    sampler.fast_forward(skip + 1)
    raw = sampler.random(count)
    z = norm.ppf(np.clip(raw, 1e-12, 1 - 1e-12))
    a = z[:, :m] + 1j * z[:, m:2 * m]
    b = z[:, 2 * m:2 * m + n] + 1j * z[:, 2 * m + n:]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return a, b


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


# ---------------------------------------------------------------------------
# determinantal and pencil oracles


def _polyeig(smats: Sequence[np.ndarray]) -> np.ndarray:
    """Finite eigenvalues of the matrix polynomial sum_j smats[j] s^j.

    First companion linearization; the generalized eigenvalues of the pencil
    are the roots of det S(s).  Infinite eigenvalues are dropped.
    """
    deg = len(smats) - 1
    while deg > 0 and np.abs(smats[deg]).max() < 1e-14:
        deg -= 1
    if deg == 0:
        return np.empty(0, dtype=complex)
    d = smats[0].shape[0]
    big_a = np.zeros((d * deg, d * deg), dtype=complex)
    big_b = np.zeros((d * deg, d * deg), dtype=complex)
    for r in range(deg - 1):
        big_a[r * d:(r + 1) * d, (r + 1) * d:(r + 2) * d] = np.eye(d)
        big_b[r * d:(r + 1) * d, r * d:(r + 1) * d] = np.eye(d)
    for j in range(deg):
        big_a[(deg - 1) * d:, j * d:(j + 1) * d] = -smats[j]
    big_b[(deg - 1) * d:, (deg - 1) * d:] = smats[deg]
    w = scipy.linalg.eigvals(big_a, big_b)
    return w[np.isfinite(w)]


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


def minor_system_roots(k: SubspaceBasis, dims: BipartiteDims) -> list:
    """Candidate A-factors of product vectors in K via the determinantal system.

    For m = 2 or 3 only.  Rank deficiency of the (R' x n) membership matrix
    F(a) is certified by det(U_i F(a)) = 0 for two fixed random row
    compressions U_i; roots are found per projective chart with companion /
    QZ eigenvalue methods (hidden-variable Sylvester resultant when m = 3).
    Candidates are unverified; callers must polish and check residuals.
    """
    m, n = dims.m, dims.n
    if m not in (2, 3):
        raise ValueError(f"determinantal route supports m = 2 or 3, got m={m}")
    wc = complement_stack(k, dims).conj()
    rp = wc.shape[0]
    if rp < n:
        raise ValueError("orthocomplement too small: F(a) is rank deficient for every a")
    rng = np.random.default_rng(_MINOR_SEED)
    u1 = rng.standard_normal((n, rp)) + 1j * rng.standard_normal((n, rp))
    u2 = rng.standard_normal((n, rp)) + 1j * rng.standard_normal((n, rp))
    # random unitary chart rotation: avoids roots parked at chart infinity
    rot = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    amats = [np.einsum('i,rij->rj', rot[:, i], wc) for i in range(m)]

    def fmat(coeffs):
        return sum(c * amat for c, amat in zip(coeffs, amats))

    cands = []
    if m == 2:
        k1 = n + 1
        ws = np.exp(2j * np.pi * np.arange(k1) / k1)
        vals = np.array([np.linalg.det(u1 @ fmat([1.0, s])) for s in ws])
        for s in _poly_roots_companion(_det_samples_to_coeffs(vals)):
            cands.append(np.array([1.0, s]))
        cands.append(np.array([0.0, 1.0]))
    else:
        k1 = n + 1
        ws = np.exp(2j * np.pi * np.arange(k1) / k1)
        pgrid = np.array([[np.linalg.det(u1 @ fmat([1.0, s, t])) for t in ws] for s in ws])
        qgrid = np.array([[np.linalg.det(u2 @ fmat([1.0, s, t])) for t in ws] for s in ws])
        scale = max(np.abs(pgrid).max(), np.abs(qgrid).max(), 1e-300)
        pcoef = np.fft.fft2(pgrid / scale) / k1 ** 2      # [i, j] -> s^i t^j
        qcoef = np.fft.fft2(qgrid / scale) / k1 ** 2
        # Sylvester matrix in t, entries polynomial in s of degree <= n
        smats = [np.zeros((2 * n, 2 * n), dtype=complex) for _ in range(k1)]
        for i in range(k1):
            for r in range(n):
                for c in range(n + 1):
                    smats[i][r, r + c] = pcoef[i, n - c]
                    smats[i][n + r, r + c] = qcoef[i, n - c]
        for s in _polyeig(smats):
            t_pencil = scipy.linalg.eigvals(u1 @ fmat([1.0, s, 0.0]), -u1 @ amats[2])
            for t in t_pencil[np.isfinite(t_pencil)]:
                cands.append(np.array([1.0, s, t]))
        t_inf = scipy.linalg.eigvals(u1 @ amats[1], -u1 @ amats[2])
        for t in t_inf[np.isfinite(t_inf)]:
            cands.append(np.array([0.0, 1.0, t]))
        cands.append(np.array([0.0, 0.0, 1.0]))
    out = []
    for c in cands:
        nrm = np.linalg.norm(c)
        if np.isfinite(nrm) and nrm > 1e-12:
            out.append(rot @ (c / nrm))
    return out


def pencil_roots_2xn(k: SubspaceBasis, dims: BipartiteDims,
                     residual_tol: float = RESIDUAL_TOL) -> list:
    """Product vectors in a subspace of C^2 (x) C^n whose membership matrix
    is square: the single determinant condition det F((1, t)) = 0.

    Serves as an independent oracle for the enumerator: the polynomial is
    interpolated exactly on roots of unity and solved with the companion
    matrix, plus the chart point a = (0, 1).  Each root is
    verified against the residual tolerance before being returned.
    """
    if dims.m != 2:
        raise ValueError("pencil oracle requires m = 2")
    wc = complement_stack(k, dims).conj()
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
        if res[0] <= residual_tol:
            pool.add(ProductVector(aa[0], bb[0]), float(res[0]))
    return pool.points


# ---------------------------------------------------------------------------
# homotopy route (square and squared-down membership systems)


def _square_down(wc: np.ndarray, rows: int) -> np.ndarray:
    """`rows` fixed random combinations of the R' membership equations.

    Every root of the full system g is a root of the mixed one, L g.  The
    mixed system is square, so delta distinct nonsingular roots are all of
    its roots; a random L makes that the usual outcome (Sommese & Wampler
    2005, ch. 13).  L has orthonormal rows, so |L g| <= |g|.  A system that
    is already square is returned unchanged.
    """
    rp, m, n = wc.shape
    if rp == rows:
        return wc
    rng = np.random.default_rng(_SQUARE_DOWN_SEED)
    mix = np.linalg.qr(rng.standard_normal((rp, rows)) + 1j * rng.standard_normal((rp, rows)))[0]
    return np.einsum('rk,rij->kij', mix.conj(), wc)


def _membership_residuals(wc: np.ndarray, points: list) -> np.ndarray:
    """|<W_r, a (x) b>| over all R' equations at each unit pair."""
    if not points:
        return np.zeros(0)
    a = np.array([pv.a for pv in points])
    b = np.array([pv.b for pv in points])
    return np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1)


def _homotopy_roots(wc: np.ndarray):
    """Roots of a square membership system by linear-product homotopy.

    With R' = m + n - 2 equations g_r(a, b) = a^T W_r b on P^{m-1} x P^{n-1},
    the start system F0_r = (x_r^T a)(y_r^T b) has one nonsingular root per
    split (P, Q) of the equations into m - 1 and n - 1 (a orthogonal to x_P,
    b to y_Q): delta(m, n) roots, the 2-homogeneous Bezout number of the
    target.  H = gamma (1 - s) F0 + s F1 is tracked from s = 0 to 1 in one
    affine patch per factor, with an RK4 predictor, a three-step Newton
    corrector and a per-path step that grows on success and halves on
    rejection (Morgan & Sommese, Appl. Math. Comput. 24, 1987).  All random
    data come from a fixed seed, so the result is deterministic.

    The stack is reshaped once per call into wa (m x R'n) and wb (n x R'm),
    so F(a) = a wa and G(b) = b wb are one GEMM each over all paths, and
    dH/dz is written into a single array with the patch rows.  A predictor
    tangent solves dH/dz against dH/ds and a Newton step against H; neither
    builds the other's right-hand side.

    Endpoints are polished and kept when they pass the residual tolerance and
    their gauge-fixed Jacobian is nonsingular.  Returns (points, residuals,
    paths) with paths = {"tracked", "finished", "accepted"}; the points are
    deduplicated, and delta of them prove the root set complete, since a
    square system with a positive-dimensional component has fewer than
    delta isolated roots.
    """
    rp, m, n = wc.shape
    rng = np.random.default_rng(_HOMOTOPY_SEED)

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = cnormal(rp, m)
    y = cnormal(rp, n)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    patch_a, patch_b = cnormal(m), cnormal(n)
    gamma = np.exp(2j * np.pi * rng.random())

    splits = [(list(p), [r for r in range(rp) if r not in p])
              for p in itertools.combinations(range(rp), m - 1)]
    a0 = np.array([np.linalg.svd(x[p])[2][-1].conj() for p, _ in splits]).reshape(-1, m)
    b0 = np.array([np.linalg.svd(y[q])[2][-1].conj() for _, q in splits]).reshape(-1, n)
    z = np.concatenate([a0 / (a0 @ patch_a)[:, None], b0 / (b0 @ patch_b)[:, None]], axis=1)
    paths = z.shape[0]
    patch_rows = np.zeros((2, m + n), dtype=complex)
    patch_rows[0, :m] = patch_a
    patch_rows[1, m:] = patch_b

    wa = wc.transpose(1, 0, 2).reshape(m, rp * n)
    wb = wc.transpose(2, 0, 1).reshape(n, rp * m)

    def jacobian(z, s):
        """(dH/dz, F1, F0) at each row of z; s is per row."""
        a, b = z[:, :m], z[:, m:]
        fa = (a @ wa).reshape(-1, rp, n)
        gb = (b @ wb).reshape(-1, rp, m)
        xa, yb = a @ x.T, b @ y.T
        w0 = (gamma * (1 - s))[:, None, None]
        w1 = s[:, None, None]
        jac = np.empty((z.shape[0], rp + 2, m + n), dtype=complex)
        jac[:, :rp, :m] = w1 * gb + (w0 * yb[:, :, None]) * x
        jac[:, :rp, m:] = w1 * fa + (w0 * xa[:, :, None]) * y
        jac[:, rp:] = patch_rows
        return jac, (fa @ b[:, :, None])[:, :, 0], xa * yb

    def tangent(z, s):
        """dz/ds = -(dH/dz)^-1 dH/ds."""
        jac, f1, f0 = jacobian(z, s)
        hs = np.zeros((z.shape[0], rp + 2, 1), dtype=complex)
        hs[:, :rp, 0] = f1 - gamma * f0
        return -np.linalg.solve(jac, hs)[:, :, 0]

    def newton(z, s):
        """The Newton correction (dH/dz)^-1 H."""
        jac, f1, f0 = jacobian(z, s)
        h = np.empty((z.shape[0], rp + 2, 1), dtype=complex)
        h[:, :rp, 0] = (gamma * (1 - s))[:, None] * f0 + s[:, None] * f1
        h[:, rp, 0] = z[:, :m] @ patch_a - 1
        h[:, rp + 1, 0] = z[:, m:] @ patch_b - 1
        return np.linalg.solve(jac, h)[:, :, 0]

    s = np.zeros(paths)
    step = np.full(paths, 0.02)
    active = np.ones(paths, dtype=bool)
    finished = np.zeros(paths, dtype=bool)
    for _ in range(_HOMOTOPY_MAX_STEPS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        zi, si, hi = z[idx], s[idx], step[idx]
        with np.errstate(all="ignore"):
            try:
                k1 = tangent(zi, si)
                k2 = tangent(zi + hi[:, None] / 2 * k1, si + hi / 2)
                k3 = tangent(zi + hi[:, None] / 2 * k2, si + hi / 2)
                k4 = tangent(zi + hi[:, None] * k3, si + hi)
                zn = zi + hi[:, None] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                sn = np.where(si + hi > 1.0 - 1e-14, 1.0, si + hi)
                sizes = []
                for it in range(3):
                    dz = newton(zn, sn)
                    zn = zn - dz
                    if it != 1:     # only the first and last sizes are read
                        sizes.append(np.linalg.norm(dz, axis=1) / (1 + np.linalg.norm(zn, axis=1)))
            except np.linalg.LinAlgError:
                # a singular Jacobian in the batch: retry every path at half step
                step[idx] = hi / 2
                active[idx] = step[idx] >= _HOMOTOPY_MIN_STEP
                continue
        # a large first correction means the predictor left the path's basin
        ok = (sizes[-1] < 1e-10) & (sizes[0] < 1e-2) & np.all(np.isfinite(zn), axis=1)
        good, bad = idx[ok], idx[~ok]
        z[good], s[good] = zn[ok], sn[ok]
        done = good[s[good] >= 1.0]
        finished[done] = True
        active[done] = False
        grow = good[s[good] < 1.0]
        step[grow] = np.minimum(np.minimum(step[grow] * 1.6, 0.1), 1.0 - s[grow])
        step[bad] /= 2
        active[bad] = step[bad] >= _HOMOTOPY_MIN_STEP
        # a path diverging in the patch ends at infinity, not at a root
        too_far = np.linalg.norm(z[grow], axis=1) > 1e8
        active[grow[too_far]] = False

    pool = _PointPool()
    accepted = 0
    done = np.nonzero(finished)[0]
    if done.size:
        a, b = z[done, :m], z[done, m:]
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        a, b, res = _polish_batch(wc, a, b, _POLISH_ITERS)
        for i in np.nonzero(res <= RESIDUAL_TOL)[0]:
            pv = ProductVector(a[i], b[i])
            smin, smax = _jacobian_extremes(wc, pv)
            if smin > RANK_TOL * smax:
                accepted += 1
                pool.add(pv, float(res[i]))
    counts = {"tracked": paths, "finished": int(finished.sum()), "accepted": accepted}
    return pool.points, pool.residuals, counts


# ---------------------------------------------------------------------------
# product-line detection


def find_line_subspaces(k: SubspaceBasis, dims: BipartiteDims, w_dim: int = 2,
                        starts: int = 64, iters: int = 40,
                        residual_tol: float = RESIDUAL_TOL) -> list:
    """Search for product subspaces |a> (x) W and V (x) |b> inside K.

    Minimizes the sum of squares of the w_dim smallest singular values of
    the membership matrix by alternating between the vector factor and the
    candidate subspace.  Returns every distinct hit whose total residual is
    below the tolerance.
    """
    if w_dim < 2:
        raise ValueError("w_dim must be at least 2")
    m, n = dims.m, dims.n
    wc = complement_stack(k, dims).conj()
    out = []
    if wc.shape[0] == 0:
        eye_n = np.eye(n, dtype=complex)
        eye_m = np.eye(m, dtype=complex)
        if w_dim <= n:
            out.append(LineSubspace("A", np.eye(m, dtype=complex)[0],
                                    SubspaceBasis(n, eye_n[:w_dim], 0.0), 0.0))
        if w_dim <= m:
            out.append(LineSubspace("B", np.eye(n, dtype=complex)[0],
                                    SubspaceBasis(m, eye_m[:w_dim], 0.0), 0.0))
        return out

    for vec, sub, res in subspace_search(wc, m, n, w_dim, starts, iters, residual_tol):
        out.append(LineSubspace("A", vec, SubspaceBasis(n, sub, residual_tol), res))
    wc_swapped = wc.transpose(0, 2, 1)
    for vec, sub, res in subspace_search(wc_swapped, n, m, w_dim, starts, iters, residual_tol):
        out.append(LineSubspace("B", vec, SubspaceBasis(m, sub, residual_tol), res))
    return out


def subspace_search(stack, dim_vec, dim_sub, w_dim, starts, iters, residual_tol,
                    max_hits: int = 8):
    """Multistart minimization of the w_dim smallest singular values of the
    membership matrix over the vector factor; returns (vec, subspace, residual)."""
    if w_dim > dim_sub or w_dim < 1:
        return []
    a, _ = halton_pairs(starts, dim_vec, dim_sub)
    for _ in range(iters):
        f = np.einsum('si,rij->srj', a, stack)
        vh = np.linalg.svd(f)[2]
        sub = vh[:, -w_dim:, :].conj()                        # (s, w_dim, dim_sub)
        g = np.einsum('rij,swj->swri', stack, sub).reshape(a.shape[0], -1, dim_vec)
        a = np.linalg.svd(g)[2][:, -1, :].conj()
    f = np.einsum('si,rij->srj', a, stack)
    sv = np.linalg.svd(f, compute_uv=False)
    h = np.linalg.norm(sv[:, -w_dim:], axis=1)
    hits = []
    for idx in np.argsort(h):
        if h[idx] > residual_tol:
            break
        vec = a[idx]
        if any(abs(np.vdot(vec, prev[0])) > 1 - DEDUP_TOL for prev in hits):
            continue
        vh = np.linalg.svd(np.einsum('i,rij->rj', vec, stack))[2]
        sub = vh[-w_dim:, :].conj()
        hits.append((vec, sub, float(h[idx])))
        if len(hits) >= max_hits:
            break
    return hits


# ---------------------------------------------------------------------------
# enumeration


def enumerate_product_vectors(k: SubspaceBasis, dims: BipartiteDims) -> EnumerationResult:
    """Find the product vectors inside K; see the module docstring.

    A count settles a set as FINITE or EMPTY; a product plane settles it as
    LIKELY_INFINITE, reported with the homotopy roots on K and no starts;
    any other set gets one search round of max(400, 4 delta) starts, and a
    count gets one cross-check round of the same size.  The returned points
    are pairwise distinct under the overlap metric and each satisfies
    |proj_{K^perp}(a (x) b)| <= RESIDUAL_TOL.
    """
    m, n = dims.m, dims.n
    dlt = delta(m, n)
    # `minor_system` and `near_duplicate_chain` stay in pptlab-report/1 for
    # its readers; no route fills them any more
    evidence: dict = {"delta": dlt, "route": None, "paths": None,
                      "starts_used": 0, "rounds": 0,
                      "best_residual": float("inf"), "line_subspaces": [],
                      "minor_system": None, "near_duplicate_chain": 0,
                      "transversal": [], "jacobian_sigma_min": []}
    if k.dim == 0:
        return EnumerationResult([], [], Classification.EMPTY, evidence)
    wc = complement_stack(k, dims).conj()

    def has_lines() -> bool:
        evidence["line_subspaces"] = find_line_subspaces(k, dims, w_dim=2)
        return bool(evidence["line_subspaces"])

    if wc.shape[0] < m + n - 2:
        # fewer equations than the dimension of the Segre variety: every
        # component of the product set is positive-dimensional
        has_lines()
        if wc.shape[0] == 0:
            evidence["trivial_full_space"] = True
        else:
            evidence["route"] = "dimension-count"
            evidence["dimension_forces_positive_dimension"] = True
        return EnumerationResult([], [], Classification.LIKELY_INFINITE, evidence)

    # A square system has at most delta isolated roots: finding delta of
    # them proves the set finite and complete.  A larger system is squared
    # down first, and delta roots of the mixed system hold every root of the
    # full one (see _roots_on_subspace).
    counted = None
    wsq = _square_down(wc, m + n - 2)
    points, residuals, evidence["paths"] = _homotopy_roots(wsq)
    if len(points) == dlt and wsq is wc:
        if all(_point_evidence(k, wc, dims, points, evidence)):
            evidence["route"] = "homotopy"
            evidence["best_residual"] = min(residuals)
            return EnumerationResult(points, residuals, Classification.FINITE, evidence)
    elif len(points) == dlt:
        counted, evidence["best_residual"] = _roots_on_subspace(wc, points)

    if counted is None:
        # no count: the homotopy's roots on K stand, and a product plane
        # makes the set infinite without a search
        pool = _PointPool()
        for pv, res in zip(points, _membership_residuals(wc, points)):
            if res <= RESIDUAL_TOL:
                pool.add(pv, float(res))
        lines = has_lines()
        evidence["best_residual"] = min([evidence["best_residual"]] + pool.residuals
                                        + [ls.residual for ls in evidence["line_subspaces"]])
    else:
        pool, lines = counted, False

    # One multistart round unless a plane settled the set: it cross-checks
    # a count, or searches a set that neither a count nor a plane settled.
    starts = 0 if lines else max(_MIN_STARTS, 4 * dlt)
    overruled = False
    for lo in range(0, starts, _BATCH_CAP):
        chunk = min(_BATCH_CAP, starts - lo)
        a, b = halton_pairs(chunk, m, n, skip=lo)
        a, b, alt = _alternate_batch(wc, a, b, _ALTERNATE_ITERS)
        a, b, res = _polish_batch(wc, a, b, _POLISH_ITERS)
        # the polish can raise a residual the alternation reached
        evidence["best_residual"] = min(evidence["best_residual"], float(alt.min()),
                                        float(res.min()))
        for idx in np.nonzero(res <= RESIDUAL_TOL)[0]:
            overruled |= pool.add(ProductVector(a[idx], b[idx]), float(res[idx]))
    evidence["starts_used"], evidence["rounds"] = starts, int(starts > 0)
    if counted is not None and overruled:
        # a point outside the counted set contradicts the count, and the
        # search decides
        counted = None
        lines = has_lines()

    evidence["route"] = "multistart" if counted is None else "homotopy"
    points, residuals = pool.points, pool.residuals
    _point_evidence(k, wc, dims, points, evidence)
    if counted is not None:
        cls = Classification.FINITE if points else Classification.EMPTY
    elif lines or len(points) > dlt:
        cls = Classification.LIKELY_INFINITE
    elif not points:
        cls = Classification.EMPTY
    else:
        # a search alone cannot prove that a set is finite
        cls = Classification.INCONCLUSIVE
    return EnumerationResult(points, residuals, cls, evidence)


def _roots_on_subspace(wc: np.ndarray, points: list):
    """The product vectors of K among delta roots of its squared-down system;
    see the module docstring for why they are all of them.

    A root whose full residual is above sqrt(RESIDUAL_TOL) before any polish
    is off K: a polish on the full system would pull it onto a nearby true
    root.  Every other root must polish onto K.  Returns (pool of the kept
    roots, best residual); the pool is None when a root fails its polish or
    two merge.
    """
    full = _membership_residuals(wc, points)
    near = [pv for pv, r in zip(points, full) if r <= math.sqrt(RESIDUAL_TOL)]
    pool = _PointPool()
    if near:
        a, b, res = _polish_batch(wc, np.array([pv.a for pv in near]),
                                  np.array([pv.b for pv in near]), _POLISH_ITERS)
        for i in range(len(near)):
            if res[i] > RESIDUAL_TOL or not pool.add(ProductVector(a[i], b[i]), float(res[i])):
                return None, float(full.min())
    return pool, min([float(full.min())] + pool.residuals)


def _point_evidence(k, wc, dims, points, evidence):
    """Record the isolation and transversality of each point in the
    evidence, in the points' own order (homotopy paths first, then
    multistart starts); returns the transversal flags."""
    trans, jmins, jconds = [], [], []
    for pv in points:
        trans.append(transversal(k, pv, dims))
        smin, smax = _jacobian_extremes(wc, pv)
        jmins.append(smin)
        jconds.append(smax / smin if smin > 0 else float("inf"))
    evidence["transversal"] = trans
    evidence["jacobian_sigma_min"] = jmins
    evidence["jacobian_cond"] = jconds
    return trans


def _jacobian_extremes(wc: np.ndarray, pv: ProductVector) -> tuple:
    """(sigma_min, sigma_max) of the gauge-fixed Jacobian at a root; a zero
    sigma_min marks a non-isolated root."""
    m = pv.a.size
    fa = np.einsum('i,rij->rj', pv.a, wc)
    gb = np.einsum('rij,j->ri', wc, pv.b)
    jac = np.concatenate([gb, fa], axis=1)
    jac = np.delete(jac, [int(np.argmax(np.abs(pv.a))), m + int(np.argmax(np.abs(pv.b)))], axis=1)
    if jac.shape[1] == 0:
        return float("inf"), float("inf")
    sv = np.linalg.svd(jac, compute_uv=False)
    smin = float(sv[-1]) if jac.shape[0] >= jac.shape[1] else 0.0
    return smin, float(sv[0])


# ---------------------------------------------------------------------------
# verdicts


def is_ces(subspace: SubspaceBasis, dims: BipartiteDims) -> bool:
    """Whether the subspace contains no product vectors (numerical certificate).

    Subspaces of dimension above (m-1)(n-1) always contain one, so those
    return False without a search.
    """
    return ces_certificate(subspace, dims)[0]


def ces_certificate(subspace: SubspaceBasis, dims: BipartiteDims):
    """(verdict, enumeration) pair backing :func:`is_ces`."""
    if subspace.dim > (dims.m - 1) * (dims.n - 1):
        res = EnumerationResult([], [], Classification.LIKELY_INFINITE,
                                {"dimension_forces_product_vectors": True,
                                 "route": "dimension-count", "paths": None,
                                 "line_subspaces": []})
        return False, res
    result = enumerate_product_vectors(subspace, dims)
    return result.classification == Classification.EMPTY, result


def transversal(k: SubspaceBasis, pv: ProductVector, dims: BipartiteDims,
                residual_tol: float = 1e-9, rank_tol: float = RANK_TOL) -> bool:
    """Whether K and the tangent space of the product manifold at a (x) b
    together span the whole space: rank [K | a(x)e_j | e_i(x)b] = m*n."""
    resid = k.project_residual(pv.vec())
    if resid > residual_tol * 10:
        raise ValueError(f"product vector is not in the subspace: residual {resid:.3e}")
    stacked = np.hstack([k.vectors.T, _tangent_block(pv)])
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return rank == dims.total


def _tangent_block(pv: ProductVector) -> np.ndarray:
    """The columns a (x) e_j, then e_i (x) b, that span the tangent space of
    the product manifold at a (x) b."""
    m, n = pv.a.size, pv.b.size
    return np.hstack([np.kron(pv.a[:, None], np.eye(n)), np.kron(np.eye(m), pv.b[:, None])])


def partial_conjugate(pv: ProductVector) -> ProductVector:
    """The product vector conj(a) (x) b."""
    return ProductVector(pv.a.conj(), pv.b)


def general_position(pvs: Sequence[ProductVector], dims: BipartiteDims,
                     tol: float = 1e-8, max_subsets: int = 500_000) -> bool:
    """Every <= m of the A-factors and every <= n of the B-factors must be
    linearly independent.

    Checking the maximal subset size suffices (subsets of independent
    families are independent); all subsets are tested through one batched
    SVD per side.  The subset count grows combinatorially, so families whose
    check would exceed `max_subsets` are rejected with a ValueError rather
    than silently truncated.
    """
    def side_ok(vecs, bound):
        count = len(vecs)
        size = min(bound, count)
        if size == 0:
            return True
        n_sub = math.comb(count, size)
        if n_sub > max_subsets:
            raise ValueError(f"general position check needs {n_sub} subsets, "
                             f"above the budget of {max_subsets}")
        idx = np.array(list(itertools.combinations(range(count), size)))
        stacks = np.asarray(vecs)[idx]                       # (n_sub, size, dim)
        sv = np.linalg.svd(stacks, compute_uv=False)
        return bool(np.all(sv[:, -1] > tol * sv[:, 0]))

    return (side_ok([pv.a for pv in pvs], dims.m)
            and side_ok([pv.b for pv in pvs], dims.n))


def classify_goodness(state: BipartiteState, *,
                      enumeration: Optional[EnumerationResult] = None,
                      rank_tol: float = RANK_TOL,
                      psd_tol: float = PSD_TOL) -> GoodnessVerdict:
    """Good/bad verdict for a state from the product vectors in its kernel.

    Decision table, with r = rank and the borderline at m + n - 2:
    above the borderline the state is good iff the kernel holds no product
    vectors; at the borderline good means a finite count equal to
    delta(m, n); below it the verdict is left to the separable route.
    A finite count strictly below delta at the borderline contradicts what
    finite intersections can do for PPT states, so it is flagged as a
    numerical anomaly (likely missed roots) for PPT inputs rather than
    silently classified.  `enumeration` is a result for
    `kernel_basis(state, rank_tol)`; ranks cut at `rank_tol` and the PPT
    test at `psd_tol`.
    """
    dims = state.dims
    borderline = dims.m + dims.n - 2
    rank = rank_profile(state, tol_rel=rank_tol).rank
    if rank < borderline:
        return GoodnessVerdict(Goodness.INDETERMINATE, GoodnessReason.RANK_BELOW_BORDERLINE)
    enn = enumeration
    if enn is None:
        enn = enumerate_product_vectors(kernel_basis(state, tol_rel=rank_tol), dims)
    dlt = delta(dims.m, dims.n)
    if rank > borderline:
        if enn.classification == Classification.EMPTY:
            return GoodnessVerdict(Goodness.GOOD, GoodnessReason.EMPTY_INTERSECTION, count=0)
        if enn.classification == Classification.LIKELY_INFINITE:
            return GoodnessVerdict(Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)
        if enn.classification == Classification.FINITE:
            return GoodnessVerdict(Goodness.BAD,
                                   GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X,
                                   count=enn.count)
        return GoodnessVerdict(Goodness.INDETERMINATE, None, count=enn.count)
    # borderline rank
    if enn.classification == Classification.LIKELY_INFINITE:
        return GoodnessVerdict(Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)
    if enn.classification == Classification.FINITE and enn.count == dlt:
        return GoodnessVerdict(Goodness.GOOD, GoodnessReason.COUNT_EQUALS_DELTA, count=dlt)
    if enn.classification in (Classification.FINITE, Classification.EMPTY):
        ppt = is_ppt(state, tol=psd_tol)[0]
        verdict = Goodness.BAD if ppt else Goodness.INDETERMINATE
        return GoodnessVerdict(verdict, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X,
                               count=enn.count, anomaly=ppt)
    return GoodnessVerdict(Goodness.INDETERMINATE, None, count=enn.count)


# ---------------------------------------------------------------------------
# separable states


def separable_kernel_components(pvs: Sequence[ProductVector], dims: BipartiteDims,
                                tol: float = RANK_TOL) -> list:
    """Inclusion-maximal product subspaces V_P (x) W_Q inside the kernel of
    sum_i |a_i b_i><a_i b_i|, one per partition (P, Q) of the index set.

    V_P is the orthocomplement of the A-factors indexed by P, W_Q of the
    B-factors indexed by Q; the union of the product varieties of the
    returned pairs is exactly the set of product vectors in the kernel.
    """
    npts = len(pvs)
    if npts > 20:
        raise ValueError(f"refusing 2^{npts} partitions; at most 20 terms supported")
    amat = np.array([pv.a for pv in pvs])
    bmat = np.array([pv.b for pv in pvs])
    pairs = []
    for mask in range(1 << npts):
        p_idx = [i for i in range(npts) if mask >> i & 1]
        q_idx = [i for i in range(npts) if not mask >> i & 1]
        vp = _orthocomplement(amat[p_idx], dims.m)
        wq = _orthocomplement(bmat[q_idx], dims.n)
        if vp.dim == 0 or wq.dim == 0:
            continue
        pairs.append((vp, wq))
    keep = []
    for i, (v, w) in enumerate(pairs):
        dominated = False
        for j, (v2, w2) in enumerate(pairs):
            if i == j:
                continue
            if _subspace_leq(v, v2) and _subspace_leq(w, w2):
                if (v.dim, w.dim) != (v2.dim, w2.dim) or i > j:
                    dominated = True
                    break
        if not dominated:
            keep.append((v, w))
    return keep


def _orthocomplement(rows: np.ndarray, ambient: int) -> SubspaceBasis:
    rows = np.asarray(rows, dtype=complex).reshape(-1, ambient)
    if rows.shape[0] == 0:
        return SubspaceBasis(ambient, np.eye(ambient, dtype=complex), RANK_TOL)
    comp = scipy.linalg.null_space(rows.conj())
    return SubspaceBasis(ambient, comp.T, RANK_TOL)


def _subspace_leq(a: SubspaceBasis, b: SubspaceBasis, tol: float = 1e-9) -> bool:
    if a.dim > b.dim:
        return False
    return all(b.project_residual(v) <= tol for v in a.vectors)


def classify_separable_good(pvs: Sequence[ProductVector], dims: BipartiteDims) -> GoodnessVerdict:
    """Good/bad verdict for a separable state given a pure product
    decomposition spanning its range.

    With r terms and r <= m + n - 2 the state is good iff the factors are in
    general position; with more terms it is good iff for every partition
    (P, Q) of the terms the A-factors of P span the A space or the
    B-factors of Q span the B space.
    """
    npts = len(pvs)
    if npts == 0:
        raise ValueError("need at least one product term")
    if npts > 20:
        raise ValueError(f"refusing 2^{npts} partitions; at most 20 terms supported")
    borderline = dims.m + dims.n - 2
    if npts <= borderline:
        if general_position(pvs, dims):
            reason = (GoodnessReason.COUNT_EQUALS_DELTA if npts == borderline else None)
            count = delta(dims.m, dims.n) if npts == borderline else None
            return GoodnessVerdict(Goodness.GOOD, reason, count=count)
        return GoodnessVerdict(Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)
    amat = np.array([pv.a for pv in pvs])
    bmat = np.array([pv.b for pv in pvs])
    for mask in range(1 << npts):
        p_idx = [i for i in range(npts) if mask >> i & 1]
        q_idx = [i for i in range(npts) if not mask >> i & 1]
        if _spans(amat[p_idx], dims.m) or _spans(bmat[q_idx], dims.n):
            continue
        comps = separable_kernel_components(pvs, dims)
        infinite = any(v.dim + w.dim > 2 for v, w in comps)
        reason = (GoodnessReason.INFINITE_COMPONENT if infinite
                  else GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X)
        return GoodnessVerdict(Goodness.BAD, reason)
    return GoodnessVerdict(Goodness.GOOD, GoodnessReason.EMPTY_INTERSECTION, count=0)


def _spans(rows: np.ndarray, ambient: int, tol: float = RANK_TOL) -> bool:
    rows = np.asarray(rows).reshape(-1, ambient)
    if rows.shape[0] < ambient:
        return False
    sv = np.linalg.svd(rows, compute_uv=False)
    return bool(sv[-1] > tol * sv[0]) if sv.size else False
