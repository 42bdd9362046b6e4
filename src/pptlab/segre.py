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
positive-dimensional (projective dimension theorem; R' = 0 included) and is
reported as such, with route `dimension-count` and no search.

Every other set is settled on K itself where it can be, by the homotopy:
delta(m, n) paths tracked from a linear-product start system.  A square
system (R' = m + n - 2, every kernel of a state at the borderline rank) is
tracked as it is.  A larger one (R' > m + n - 2, such as the range of a
state at the borderline rank) is squared down to m + n - 2 fixed random
combinations L g of its equations g; every root of g is a root of L g.
Each path ends in one of four classes: accepted (a nonsingular root of the
tracked system), on-plane (on a product plane |a> (x) W or V (x) |b>
verified on K's own equations), diverged, or unaccounted.  By the gamma
trick every isolated root is the endpoint of some path (Morgan & Sommese
1987; Sommese & Wampler 2005, ch. 7-8).

One rule turns the accepted roots into K's points.  Those of a square
system are K's points as they stand.  Of a squared-down system, a root
whose full residual, measured before any polish on the full system,
exceeds sqrt(RESIDUAL_TOL) is off K; every other root is polished on the
full system and kept when it reaches K at a point not kept already, else
it is off K too.  The set is then settled by one of three facts:

- a square count: delta transversal points, each pair certified distinct
  (a separation sqrt(1 - |<a, a'>|^2 |<b, b'>|^2) above MARGIN_FACTOR times
  the sum of their forward errors, residual over the Jacobian's least
  singular value), prove the set FINITE and complete, whichever search
  found them; a nonsingular Jacobian of a square system is what makes a
  point transversal.  A square set is never EMPTY: m + n - 2 hyperplanes
  meet the Segre variety;
- a plane: an endpoint on a verified plane of K makes the set
  LIKELY_INFINITE, with no plane search and no starts, for square and
  squared-down systems alike.  If every path is accepted or on-plane, the
  accepted roots are all the isolated points, since a point on a plane is
  not isolated; otherwise `paths` shows the gap;
- a squared-down count: delta distinct, nonsingular roots of the mixed
  system hold every root of g, so the kept roots are all of K's points.
  They are isolated: the mixed Jacobian L J is nonsingular there, which
  forces J to full column rank m + n - 2.  They are not transversal, since
  K and the tangent space share a (x) b and cannot span the whole space
  when R' > m + n - 2.  The set is FINITE, or EMPTY, complete by count, and
  one multistart round cross-checks it; a point found there outside the
  counted set overrules the count.

"Complete by count" rests on refined Bezout (Fulton, Intersection Theory,
Ex. 8.4.6).  The zero set of a square system is the Segre variety
P^{m-1} x P^{n-1} in P^{mn-1}, of degree delta(m, n), cut by m + n - 2
hyperplanes, and the degrees of its irreducible components sum to at most
delta times the hyperplanes' degrees, 1.  An isolated zero is a component
of degree one and a positive-dimensional component has degree at least
one, so delta pairwise-distinct isolated zeros (nonsingularity makes each
one isolated) are every zero, with no component of positive dimension
beside them.  For a squared-down system this holds for the mixed zero set,
which contains the full one.

A set that neither a plane nor the homotopy's own points settled (say, a
component that is not a plane, which leaves paths unaccounted, or two
paths that end on one root), and a squared-down count, get one round of
multistart alternating minimization over unit pairs, followed by a batched
Gauss-Newton polish of the holomorphic system, on top of the homotopy's
points on K; the same rule then reads the final points.  Every
multistart round, that search or the cross-check of a count, has
max(400, 4 delta) starts.  The polish takes only the starts that the
alternation left unsettled or near K (|F(a) b| <= sqrt(RESIDUAL_TOL)).  A
settled start is a fixed point of the alternation, so a stationary point of
|F(a) b| on the two unit spheres, where the Gauss-Newton step in their
tangent space is zero (Absil, Mahony & Sepulchre 2008, ch. 8); one settled
above sqrt(RESIDUAL_TOL) is off K and keeps its alternation pair and
residual.  `_classify`, the one settling rule, reads the planes, the count
and the points, before the round and after it.  One alternation,
`_alternate` on Gram matrices, _ALTERNATE_ITERS iterations a call, serves
the round (w = 1), the plane search (a w-frame) and `edge_pair_search`,
the edge check's joint
search from EDGE_FALLBACK_STARTS starts down to EDGE_PAIR_TOL on the stacks
of ker rho and ker rho^Gamma, which `_edge_gram` folds into one Gram
tensor; each half-step is one inverse-iteration step from the factor's
current value; it minimizes `edge_residuals`, the joint residual on those
stacks, by which `certify` judges every edge pair.
`_plane_search`, one `_alternate` call from frames drawn once and one
verification, is every plane search: the endpoint plane check and
`find_line_subspaces` (from _LINE_STARTS seeded pairs, a public helper
that no route calls).  Its start pairs (`start_pairs`) and starting frames
are seeded, so every search is deterministic.  One rule, `_distinct`,
dedups every set of points and planes: the homotopy's roots, the roots
kept on K, the round's points on top of them, and each side's planes.

Every candidate is polished and verified against the residual tolerance
before it counts; the evidence names the route taken.  Classification into
Empty / Finite / LikelyInfinite / Inconclusive is evidence-based and
deliberately refuses to overclaim: Finite needs a complete count, and
the evidence says which search found the points (`points_from`).  The
results are objects: `cli` alone writes them into pptlab-report/1.

`minor_system_roots`, the determinantal system, is an independent root
finder that only the tests call; enumeration does not.  It needs scipy
(`scipy.linalg.eigvals` for its QZ pencils), which only the `test` extra
installs, and imports it when called.  It, its polynomial helpers,
`find_line_subspaces` and `transversal` stay in this module, not in the
tests' oracle module, only because `perfbench/spans.WRAPPED` wraps them
by name; their move waits for a change to the benchmark.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qstate import (
    MARGIN_FACTOR,
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    ProductVector,
    SubspaceBasis,
    kernel_basis,
    null_space,
    is_ppt,
)
from .zoo import delta

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
POLISH_TARGET = 1e-13
EDGE_PAIR_TOL = 1e-9
EDGE_FALLBACK_STARTS = 256
_ALTERNATE_ITERS = 60
_EDGE_ITERS = 420
_SETTLED_STEP = 1e-14
_POLISH_ITERS = 16
_BATCH_CAP = 8192
_MIN_STARTS = 400
_MINOR_SEED = 71
_START_SEED = 1364
_HOMOTOPY_SEED = 1987
_SQUARE_DOWN_SEED = 2005
_HOMOTOPY_MAX_STEPS = 2000
_HOMOTOPY_MIN_STEP = 1e-12
_HOMOTOPY_ENDGAME = 1.0 - 1e-6
_LINE_STARTS = 64


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
    PURE_STATE = "pure-state"


@dataclass(frozen=True)
class LineSubspace:
    """A product subspace inside K: |a> (x) W (side 'A') or V (x) |b> ('B').
    The vector takes the phase of `ProductVector`, not the alternation's."""

    side: str
    vector: np.ndarray
    subspace: SubspaceBasis
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "vector", ProductVector._canonical(self.vector))


@dataclass(eq=False)
class EnumerationResult:
    points: list
    residuals: list
    classification: Classification
    evidence: dict

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class GoodnessVerdict:
    verdict: Goodness
    reason: Optional[GoodnessReason]
    count: Optional[int] = None
    anomaly: bool = False


# ---------------------------------------------------------------------------
# membership machinery


def complement_stack(k: SubspaceBasis, dims: BipartiteDims) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of K, as an (R', m, n) stack,
    C-ordered whatever layout `null_space` gives: the searches round by it."""
    if k.ambient_dim != dims.total:
        raise ValueError(f"subspace lives in dim {k.ambient_dim}, expected {dims.total}")
    if k.dim == 0:
        eye = np.eye(dims.total, dtype=complex)
        return eye.reshape(dims.total, dims.m, dims.n)
    comp = null_space(k.vectors.conj())
    return np.ascontiguousarray(comp.T).reshape(-1, dims.m, dims.n)


def _gram(stack: np.ndarray) -> np.ndarray:
    """Q[(i,k),(j,l)] = sum_r conj(W_r[i,j]) W_r[k,l], an (m^2, n^2) matrix:
    F(a)^H F(a) is (conj(a) (x) a) Q and G(b)^H G(b) is (conj(b) (x) b) Q^T."""
    m, n = stack.shape[1], stack.shape[2]
    return np.einsum('rij,rkl->ikjl', stack.conj(), stack).reshape(m * m, n * n)


def _inverse_iteration_step(q: np.ndarray, x: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """One block inverse-iteration step (Ipsen, SIAM Review 39(2), 1997)
    from `frame` (starts, side, w) toward the w least eigenvectors of
    M = (sum_c conj(x_c) (x) x_c) q per start, x being (starts, k, c): Y from
    (M + 1e-12 tr M) Y = frame (tr M read as 1 where 0), orthonormalised by
    QR or, for w = 1, by its norm.  The shift moves no eigenvector and keeps
    the LU off a zero pivot where M is singular (the computed least
    eigenvalue can be -2.4 eps tr M there), far below M's eigenvalue gaps."""
    s, k, side = x.shape[0], x.shape[1], math.isqrt(q.shape[1])
    proj = (x.conj()[:, :, None, :] * x[:, None, :, :]).sum(axis=3)
    gram = proj.reshape(s, k * k) @ q
    tr = np.einsum('sii->s', gram.reshape(s, side, side)).real
    gram[:, ::side + 1] += 1e-12 * np.where(tr > 0, tr, 1.0)[:, None]
    y = np.linalg.solve(gram.reshape(s, side, side), frame)
    return y / np.linalg.norm(y, axis=1, keepdims=True) if y.shape[2] == 1 else np.linalg.qr(y)[0]


def _alternate(q: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The one alternating minimization of the package, _ALTERNATE_ITERS
    iterations on |F(a) B|_F over a unit a and an orthonormal n x w frame B,
    block by block (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal.
    Appl. 21(4), 2000).  B takes one `_inverse_iteration_step` from itself
    toward the w least eigenvectors of (conj(a) (x) a) Q = F(a)^H F(a), then
    A takes one toward the least one of (sum_w conj(b_w) (x) b_w) Q^T.  A
    frame is fixed exactly when it spans an invariant subspace, and with
    w = 1 no step raises |F(a) b|, as v^H M^k v is log-convex in k.  The rows of a (starts, m) and b
    (starts, n, w) are the starts.  A start retires once both factors move
    by less than _SETTLED_STEP in one iteration, as |new - old old^H new|_F,
    blind to phase and basis; the solves run on live starts only.  Returns
    (a, b, settled), settled flagging the starts that retired: each sits at
    a fixed point of the alternation, a stationary point of |F(a) B|_F on
    the spheres.  Callers take residuals from their stacks: a quadratic
    form in Q loses any residual below ~1e-8."""
    a, b = a[:, :, None].copy(), b.copy()
    live = np.arange(a.shape[0])
    for _ in range(_ALTERNATE_ITERS):
        if live.size == 0:
            break
        al = a[live]
        bn = _inverse_iteration_step(q, al, b[live])
        an = _inverse_iteration_step(q.T, bn, al)
        moved = np.maximum(_moved(al, an), _moved(b[live], bn))
        a[live], b[live] = an, bn
        live = live[moved >= _SETTLED_STEP]
    settled = np.ones(a.shape[0], dtype=bool)
    settled[live] = False
    return a[:, :, 0], b, settled


def _moved(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old old^H new|_F per start, the sines of the angles between spans."""
    return np.linalg.norm(new - old @ (old.conj().transpose(0, 2, 1) @ new), axis=(1, 2))


def _alternate_batch(wc: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The multistart round's `_alternate` (w = 1) from pairs (a, b), a slice
    of at most _BATCH_CAP starts; returns them with their settled flags and
    |F(a) b| itself."""
    a, b, settled = _alternate(_gram(wc), a, b[:, :, None])
    return a, b[:, :, 0], settled, _membership_residuals(wc, a, b[:, :, 0])


def _free_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the m + n - 2 non-gauge columns of [G(b) | F(a)]: the
    largest-modulus coordinate of each factor is frozen as the gauge."""
    m, n = a.shape[1], b.shape[1]
    free_a, free_b = np.arange(m - 1), np.arange(n - 1)
    return np.concatenate([free_a + (free_a >= np.argmax(np.abs(a), axis=1)[:, None]),
                           m + free_b + (free_b >= np.argmax(np.abs(b), axis=1)[:, None])],
                          axis=1)


def _polish_batch(wc: np.ndarray, a: np.ndarray, b: np.ndarray, iters: int):
    """Gauss-Newton on the holomorphic system g_r(a, b) = <W_r, a(x)b>.

    One coordinate of each factor (the largest in modulus) is frozen as the
    gauge, which leaves the reduced Jacobian J_r of the m + n - 2 other
    coordinates.  Every caller has R' >= m + n - 2 (the dimension-count
    verdict returns before any polish), so J_r is tall or square.  The step
    is the least squares solution of J_r x = -g from one batched QR of
    [J_r | g], whose last column holds Q^H g; where J_r has full column rank
    it is the pseudoinverse step.  A row whose R has
    min |R_kk| <= 1e-9 max |R_kk|, or whose step is not finite, takes the
    SVD pseudoinverse step instead, computed for those rows only.
    Quadratic convergence near simple roots.
    """
    rp, m, n = wc.shape
    s, k = a.shape[0], m + n - 2
    to_f = wc.transpose(1, 0, 2).reshape(m, rp * n)     # a @ to_f is F(a)
    to_g = wc.reshape(rp * m, n).T                     # b @ to_g is G(b)
    for _ in range(iters):
        fa = (a @ to_f).reshape(s, rp, n)
        g = fa @ b[:, :, None]                         # (s, R', 1)
        if np.linalg.norm(g[:, :, 0], axis=1).max() < POLISH_TARGET:
            break
        gb = (b @ to_g).reshape(s, rp, m)
        # the non-gauge columns of [G(b) | F(a)], then g
        cols = np.concatenate([_free_columns(a, b), np.full((s, 1), m + n)], axis=1)
        aug = np.take_along_axis(np.concatenate([gb, fa, g], axis=2), cols[:, None, :], axis=2)
        r = np.linalg.qr(aug, mode='r')
        diag = np.abs(np.diagonal(r[:, :k, :k], axis1=1, axis2=2))
        x = _solve_rows(r[:, :k, :k], r[:, :k, k:])[:, :, 0]
        weak = (diag.min(axis=1) <= 1e-9 * diag.max(axis=1)) | ~np.isfinite(x).all(axis=1)
        if weak.any():
            u, sv, vh = np.linalg.svd(aug[weak, :, :k], full_matrices=False)
            inv = np.where(sv > 1e-12 * sv[:, :1], 1.0 / np.where(sv == 0, 1.0, sv), 0.0)
            x[weak] = np.einsum('skx,sk,srk,sr->sx', vh.conj(), inv, u.conj(), g[weak, :, 0])
        step = np.zeros((s, m + n), dtype=complex)
        np.put_along_axis(step, cols[:, :k], -x, axis=1)
        a = a + step[:, :m]
        b = b + step[:, m:]
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
    return a, b, _membership_residuals(wc, a, b)


def start_pairs(count: int, m: int, n: int):
    """`count` seeded start pairs (a, b) on the unit spheres of C^m and C^n.

    Row i takes the i-th 2(m + n) standard normals of the Generator seeded
    with _START_SEED as the real and imaginary parts of a and b; a complex
    Gaussian vector scaled to unit norm is uniform on its sphere.  Every
    draw starts the stream afresh, so the first k pairs of any draw are the
    k pairs of a k-draw.
    """
    z = np.random.default_rng(_START_SEED).standard_normal((count, 2 * (m + n)))
    a = z[:, :m] + 1j * z[:, m:2 * m]
    b = z[:, 2 * m:2 * m + n] + 1j * z[:, 2 * m + n:]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return a, b


def _distinct(a: np.ndarray, b: np.ndarray, res) -> np.ndarray:
    """The one dedup rule, for points and planes alike, over the unit
    candidate rows of a and b with residuals res, taken in order.  A row whose overlap
    |<a, a'>| |<b, b'>| with the current representative of a kept class
    exceeds 1 - DEDUP_TOL joins the first such class, and becomes its
    representative if its residual is lower; any other row opens a class.
    Each row meets the representatives in one batched product.  Returns the
    representatives' row indices, in the order their classes opened."""
    keep: list = []
    conj_a, conj_b = np.empty_like(a), np.empty_like(b)    # representatives, conjugated
    for i in range(a.shape[0]):
        k = len(keep)
        near = np.flatnonzero(np.abs(conj_a[:k] @ a[i]) * np.abs(conj_b[:k] @ b[i])
                              > 1.0 - DEDUP_TOL)
        j = int(near[0]) if near.size else k
        if j == k:
            keep.append(i)
        elif res[i] < res[keep[j]]:
            keep[j] = i
        else:
            continue
        conj_a[j], conj_b[j] = a[i].conj(), b[i].conj()
    return np.array(keep, dtype=int)


def _distinct_points(points: list, res) -> tuple:
    """`_distinct` over ProductVectors with residuals res: (the kept points,
    their residuals)."""
    keep = _distinct(np.array([pv.a for pv in points]), np.array([pv.b for pv in points]), res)
    return [points[i] for i in keep], [float(res[i]) for i in keep]


# ---------------------------------------------------------------------------
# determinantal oracle


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
    import scipy.linalg     # test oracle only: the runtime never loads scipy
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

    A test oracle: it needs scipy (the `test` extra), imported after m is
    checked, and stays in `segre` only because `perfbench/spans.WRAPPED`
    wraps it by name; its move waits for a change to the benchmark.
    """
    m, n = dims.m, dims.n
    if m not in (2, 3):
        raise ValueError(f"determinantal route supports m = 2 or 3, got m={m}")
    import scipy.linalg     # test oracle only: the runtime never loads scipy
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
    k1 = n + 1
    ws = np.exp(2j * np.pi * np.arange(k1) / k1)
    if m == 2:
        vals = np.array([np.linalg.det(u1 @ fmat([1.0, s])) for s in ws])
        for s in _poly_roots_companion(_det_samples_to_coeffs(vals)):
            cands.append(np.array([1.0, s]))
        cands.append(np.array([0.0, 1.0]))
    else:
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


# ---------------------------------------------------------------------------
# homotopy route (square and squared-down membership systems)


def _square_down(wc: np.ndarray) -> np.ndarray:
    """m + n - 2 fixed random combinations of the R' membership equations.

    Every root of the full system g is a root of the mixed one, L g.  The
    mixed system is square, so delta distinct nonsingular roots are all of
    its roots; a random L makes that the usual outcome (Sommese & Wampler
    2005, ch. 13).  L has orthonormal rows, so |L g| <= |g|.  A system that
    is already square is returned unchanged.
    """
    rp, rows = wc.shape[0], wc.shape[1] + wc.shape[2] - 2
    if rp == rows:
        return wc
    rng = np.random.default_rng(_SQUARE_DOWN_SEED)
    mix = np.linalg.qr(rng.standard_normal((rp, rows)) + 1j * rng.standard_normal((rp, rows)))[0]
    return np.einsum('rk,rij->kij', mix.conj(), wc)


def _membership_residuals(wc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<W_r, a (x) b>| over all R' equations at each row pair (a, b): |F(a) b|."""
    return np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1)


def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a batch, where a matrix whose LU meets an exact
    zero pivot leaves NaN in its own row instead of failing the batch."""
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        # det runs the same LU, and is exactly zero where solve failed
        out = np.full(rhs.shape, np.nan, dtype=complex)
        regular = np.linalg.det(jac) != 0
        out[regular] = np.linalg.solve(jac[regular], rhs[regular])
        return out


class _PathTracker:
    """The delta(m, n) paths of one square membership system, tracked as a
    batch; see `_homotopy_roots`.

    Each path has patch coordinates `z` (a, then b), a homotopy time `s`, a
    `step`, the tangent `tan` at z (NaN until the first step), and the
    flags `active`, `finished` (reached s = 1) and `diverged` (left for
    infinity in the patch).  Every step is dz = N du, N = `null`.
    """

    finished = property(lambda self: self.s >= 1.0)    # `advance` stops a path at s = 1.0 exactly

    def __init__(self, wc: np.ndarray):
        rp, m, n = wc.shape
        rng = np.random.default_rng(_HOMOTOPY_SEED)

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        x = cnormal(rp, m)
        y = cnormal(rp, n)
        self.x = x / np.linalg.norm(x, axis=1, keepdims=True)
        self.y = y / np.linalg.norm(y, axis=1, keepdims=True)
        self.patch_a, self.patch_b = cnormal(m), cnormal(n)
        self.gamma = np.exp(2j * np.pi * rng.random())

        # start root j: a annihilates the rows on_a[j] of x, b the other rows of y
        # integer arrays of explicit shape, which hold even where m or n is 1
        splits = list(itertools.combinations(range(rp), m - 1))
        on_a = np.array(splits, dtype=int).reshape(len(splits), m - 1)
        on_b = np.array([[r for r in range(rp) if r not in p] for p in splits],
                        dtype=int).reshape(len(splits), n - 1)
        a0 = np.linalg.svd(self.x[on_a])[2][:, -1].conj()
        b0 = np.linalg.svd(self.y[on_b])[2][:, -1].conj()
        self.z = np.concatenate([a0 / (a0 @ self.patch_a)[:, None],
                                 b0 / (b0 @ self.patch_b)[:, None]], axis=1)
        self.rp, self.m, self.n = rp, m, n
        self.wa = wc.transpose(1, 0, 2).reshape(m, rp * n)
        # N: the patches' directions, one orthonormal null basis per factor
        self.null = np.zeros((m + n, m + n - 2), dtype=complex)
        self.null[:m, :m - 1] = np.linalg.svd(self.patch_a[None])[2][1:].conj().T
        self.null[m:, m - 1:] = np.linalg.svd(self.patch_b[None])[2][1:].conj().T
        # rows l and m + n + l: the coefficients of dF1/dz N and dF0/dz N on z_l
        t = np.zeros((2, m + n, rp, m + n), dtype=complex)
        for k, w in enumerate((wc, self.x[:, :, None] * self.y[:, None, :])):
            t[k, :m, :, m:] = w.transpose(1, 0, 2)
            t[k, m:, :, :m] = w.transpose(2, 0, 1)
        self.tn = (t @ self.null).reshape(2 * (m + n), rp * (m + n - 2))

        paths = self.z.shape[0]
        self.s = np.zeros(paths)
        self.step = np.full(paths, 0.02)
        self.tan = np.full((paths, m + n), np.nan, dtype=complex)
        self.active = np.ones(paths, dtype=bool)
        self.diverged = np.zeros(paths, dtype=bool)

    def jacobian(self, z, s):
        """(dH/dz N, F1, F0) at each row of z; s is per row."""
        rp, m, n = self.rp, self.m, self.n
        a, b = z[:, :m], z[:, m:]
        w = np.concatenate([s[:, None] * z, (self.gamma * (1 - s))[:, None] * z], axis=1)
        fa = (a @ self.wa).reshape(z.shape[0], rp, n)
        return ((w @ self.tn).reshape(z.shape[0], rp, m + n - 2), (fa @ b[:, :, None])[:, :, 0],
                (a @ self.x.T) * (b @ self.y.T))

    def tangent(self, z, s):
        """dz/ds = -(dH/dz)^-1 dH/ds, in the patch."""
        jn, f1, f0 = self.jacobian(z, s)
        return -_solve_rows(jn, (f1 - self.gamma * f0)[:, :, None])[:, :, 0] @ self.null.T

    def newton(self, z, s, tangent=False):
        """The Newton correction (dH/dz)^-1 H at z and, with `tangent`, the
        tangent there (else None), both in the patch and from one LU of
        dH/dz N."""
        jn, f1, f0 = self.jacobian(z, s)
        h = (self.gamma * (1 - s))[:, None] * f0 + s[:, None] * f1
        if not tangent:
            return _solve_rows(jn, h[:, :, None])[:, :, 0] @ self.null.T, None
        x = _solve_rows(jn, np.stack([h, f1 - self.gamma * f0], axis=2))
        return x[:, :, 0] @ self.null.T, -x[:, :, 1] @ self.null.T

    def advance(self):
        """One predictor-corrector step on every active path.

        The RK4 predictor starts from the path's stored tangent `tan`; a path
        without one (NaN, as every path has before its first step) gets it
        from `tangent` first.  An accepted step stores the tangent from its
        last Newton solve, taken where that last correction (below 1e-10
        relative) starts, and grows the step by clip(0.9 (1e-4 / e0)^(1/5),
        1.05, 2), e0 the relative size of the first Newton correction:
        RK4's local error is O(h^5).  A rejected step keeps the point and
        its tangent, and halves that path's step alone.  A path whose step
        is rejected in the endgame zone s >= _HOMOTOPY_ENDGAME stops where
        it stands; `_homotopy_roots` polishes its endpoint as it does a
        finished path's.
        """
        idx = np.nonzero(self.active)[0]
        with np.errstate(all="ignore"):
            fresh = idx[~np.isfinite(self.tan[idx]).all(axis=1)]
            if fresh.size:
                self.tan[fresh] = self.tangent(self.z[fresh], self.s[fresh])
            zi, si, hi, k1 = self.z[idx], self.s[idx], self.step[idx], self.tan[idx]
            k2 = self.tangent(zi + hi[:, None] / 2 * k1, si + hi / 2)
            k3 = self.tangent(zi + hi[:, None] / 2 * k2, si + hi / 2)
            k4 = self.tangent(zi + hi[:, None] * k3, si + hi)
            zn = zi + hi[:, None] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            sn = np.where(si + hi > 1.0 - 1e-14, 1.0, si + hi)
            sizes = []
            for it in range(3):
                dz, tan = self.newton(zn, sn, tangent=it == 2)
                zn = zn - dz
                if it != 1:     # only the first and last sizes are read
                    sizes.append(np.linalg.norm(dz, axis=1) / (1 + np.linalg.norm(zn, axis=1)))
            # a large first correction means the predictor left the path's
            # basin; a singular Jacobian leaves NaN in its own row
            ok = (sizes[-1] < 1e-10) & (sizes[0] < 1e-2) & np.all(np.isfinite(zn), axis=1)
            factor = np.clip(0.9 * (1e-4 / sizes[0][ok]) ** 0.2, 1.05, 2.0)
        good, bad = idx[ok], idx[~ok]
        self.z[good], self.s[good], self.tan[good] = zn[ok], sn[ok], tan[ok]
        self.active[good[self.s[good] >= 1.0]] = False
        going = self.s[good] < 1.0
        grow = good[going]
        self.step[grow] = np.minimum(np.minimum(self.step[grow] * factor[going], 0.1),
                                     1.0 - self.s[grow])
        self.step[bad] /= 2
        self.active[bad] = ((self.step[bad] >= _HOMOTOPY_MIN_STEP)
                            & (self.s[bad] < _HOMOTOPY_ENDGAME))
        # a path diverging in the patch ends at infinity, not at a root
        too_far = grow[np.linalg.norm(self.z[grow], axis=1) > 1e8]
        self.diverged[too_far] = True
        self.active[too_far] = False


def _homotopy_roots(wc: np.ndarray):
    """Roots of the membership system of K, the stack wc, by linear-product
    homotopy.

    The tracked system has R' = m + n - 2 equations g_r(a, b) = a^T W_r b
    on P^{m-1} x P^{n-1}: wc itself when it is square, else its
    `_square_down` to m + n - 2 mixed equations.  The start system
    F0_r = (x_r^T a)(y_r^T b) has one nonsingular root per split (P, Q) of
    the equations into m - 1 and n - 1 (a orthogonal to x_P, b to y_Q):
    delta(m, n) roots, the 2-homogeneous Bezout number of the target.
    H = gamma (1 - s) F0 + s F1 is tracked from s = 0 to 1 in one affine
    patch per factor, with an RK4 predictor, a three-step Newton corrector
    and a per-path step (Morgan & Sommese, Appl. Math. Comput. 24, 1987).
    A rejected step halves the step; an accepted one grows it by the factor
    that brings the predictor's measured error, the first Newton correction,
    to 1e-4 under RK4's O(h^5) local error, within [1.05, 2] (Sommese &
    Wampler 2005, ch. 2).  All random data come from a fixed seed, so the
    result is deterministic.

    Every step stays in the patch: dz = N du, N an orthonormal basis of
    {patch_a . da = 0} x {patch_b . db = 0}, so each tangent and Newton
    solve is the square (m + n - 2) system dH/dz N du = rhs; in exact
    arithmetic its steps are those of dH/dz bordered by the two patch rows
    (the affine-patch formulation, Sommese & Wampler 2005, ch. 2-3).  H is
    bilinear in (a, b), so dH/dz is linear in z; its coefficients times N
    are formed once per tracker, and dH/dz N at every path is one GEMM.  F1
    = (a wa) b, wa the stack reshaped to m x R'n, and F0 = (a x^T)(b y^T)
    are evaluated directly.  The last
    Newton solve of a step takes dH/ds as a second right-hand side, so an
    accepted step also yields the tangent the next predictor starts from; a
    rejected step reuses the tangent it started from, and a step costs six
    solves.  An exactly singular dH/dz N fails its own path's step, not the
    batch's.

    Each path ends in one of four classes:

    - accepted: it reached s = 1, or stopped in the endgame zone s >=
      _HOMOTOPY_ENDGAME without diverging, and its endpoint polishes to the
      residual tolerance of the tracked system with a nonsingular
      gauge-fixed Jacobian of that system;
    - on-plane: its endpoint has residual <= sqrt(RESIDUAL_TOL) on wc, and
      `_plane_search`, run by `_endpoint_planes` from the endpoint's a
      (side A) or b (side B), finds a two-dimensional frame B
      with |F(a) B|_F or |G(b) B|_F <= RESIDUAL_TOL, a verified product
      plane through the endpoint;
    - diverged: it left for infinity in the patch;
    - unaccounted: anything else, such as a path stopped on a singular point
      of a component that is not a plane.

    By the gamma trick every isolated root is the endpoint of some path, and
    a point on a plane is not isolated.  So when every path is accepted or
    on-plane, the accepted roots are all the isolated roots; with none on a
    plane, delta of them prove the root set of the tracked system finite and
    complete, since a square system with a positive-dimensional component
    has fewer than delta isolated roots.  The planes are verified on wc, so
    they are planes of K whichever system was tracked.

    Returns (points, residuals, paths, planes): the `_distinct` accepted
    roots of the tracked system in path order, with their residuals on it,
    paths = {"tracked", "finished", "accepted", "on_plane"}, and the distinct
    verified planes of K as `LineSubspace`s, side A then side B, each in
    path order.
    """
    m, n = wc.shape[1], wc.shape[2]
    wsq = _square_down(wc)
    tracker = _PathTracker(wsq)
    for _ in range(_HOMOTOPY_MAX_STEPS):
        if not tracker.active.any():
            break
        tracker.advance()

    z = tracker.z
    accepted = np.zeros(z.shape[0], dtype=bool)
    roots, res = [], []
    done = np.nonzero(~tracker.diverged & (tracker.s >= _HOMOTOPY_ENDGAME))[0]
    if done.size:
        a, b = z[done, :m], z[done, m:]
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        a, b, res = _polish_batch(wsq, a, b, _POLISH_ITERS)
        smin, smax = _jacobian_extremes(wsq, a, b)
        ok = np.nonzero((res <= RESIDUAL_TOL) & (smin > RANK_TOL * smax))[0]
        accepted[done[ok]] = True
        roots, res = [ProductVector(a[i], b[i]) for i in ok], res[ok]
    points, residuals = _distinct_points(roots, res)
    rest = np.nonzero(~accepted & ~tracker.diverged)[0]
    planes, on_plane = _endpoint_planes(wc, z[rest, :m], z[rest, m:])
    counts = {"tracked": z.shape[0], "finished": int(tracker.finished.sum()),
              "accepted": int(accepted.sum()), "on_plane": on_plane}
    return points, residuals, counts, planes


def _endpoint_planes(wc: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The verified product planes through path endpoints (patch coordinates
    a, b); returns (the distinct planes, side A then side B, each in
    endpoint order; the number of endpoints on one).

    An endpoint qualifies when its full residual is <= sqrt(RESIDUAL_TOL)
    and `_plane_search` from its a (side A, then from its b for side B)
    verifies a plane through it."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    todo = np.nonzero(_membership_residuals(wc, a, b) <= math.sqrt(RESIDUAL_TOL))[0]
    planes, on_plane = [], 0
    for side, stack, vecs in (("A", wc, a), ("B", wc.transpose(0, 2, 1), b)):
        hits = _plane_search(side, stack, vecs[todo], 2)
        todo = np.delete(todo, list(hits))
        on_plane += len(hits)
        planes += _distinct_lines(list(hits.values()))
    return planes, on_plane


# ---------------------------------------------------------------------------
# product-line detection


def _plane_search(side: str, stack: np.ndarray, a: np.ndarray, w_dim: int) -> dict:
    """The one plane search: one `_alternate` of _ALTERNATE_ITERS iterations
    from the rows of a and w_dim-frames B drawn once from _START_SEED, row i
    from the i-th block of the stream, then one verification: a row whose
    frame reaches |F(a) B|_F <= RESIDUAL_TOL gives a plane.  Returns {row:
    the verified `LineSubspace` on `side`}, in row order."""
    s, dim_sub = a.shape[0], stack.shape[2]
    if w_dim > dim_sub:
        return {}
    z = np.random.default_rng(_START_SEED).standard_normal((s, dim_sub, 2 * w_dim))
    b = np.linalg.qr(z[:, :, :w_dim] + 1j * z[:, :, w_dim:])[0]
    a, b, _ = _alternate(_gram(stack), a, b)
    h = np.linalg.norm(np.einsum('si,rij,sjw->srw', a, stack, b), axis=(1, 2))
    return {j: LineSubspace(side, a[j], SubspaceBasis(dim_sub, b[j].T, RESIDUAL_TOL), float(h[j]))
            for j in np.flatnonzero(h <= RESIDUAL_TOL)}


def _distinct_lines(planes: list) -> list:
    """`_distinct` over planes of one side: the plane vector is a, b is
    the constant 1, and each plane's own residual decides."""
    keep = _distinct(np.array([ls.vector for ls in planes]), np.ones((len(planes), 1)),
                     [ls.residual for ls in planes])
    return [planes[i] for i in keep]


def find_line_subspaces(k: SubspaceBasis, dims: BipartiteDims) -> list:
    """Search for product planes |a> (x) W and V (x) |b> inside K.

    `_plane_search` with w = 2 from the first factors of _LINE_STARTS
    seeded pairs per side.  Returns the distinct verified planes, side A
    then side B, each side in start order; where K is the whole space every
    start verifies.  A public helper: enumeration takes its planes from
    verified homotopy endpoints and never calls it.
    """
    wc = complement_stack(k, dims).conj()
    out = []
    for side, stack in (("A", wc), ("B", wc.transpose(0, 2, 1))):
        a, _ = start_pairs(_LINE_STARTS, stack.shape[1], stack.shape[2])
        out += _distinct_lines(list(_plane_search(side, stack, a, 2).values()))
    return out


# ---------------------------------------------------------------------------
# edge pairs


def _edge_gram(kern_rho: np.ndarray, kern_gamma: np.ndarray) -> np.ndarray:
    """Q1 + S Q2, from the `_gram` of each stack, S swapping Q2's a indices:
    |F1(a) b|^2 + |F2(conj a) b|^2 has b-Gram (conj(a) (x) a)(Q1 + S Q2) and
    a-Gram G1^H G1 + conj(G2^H G2) = (conj(b) (x) b)(Q1 + S Q2)^T."""
    m = kern_rho.shape[1]
    swapped = _gram(kern_gamma).reshape(m, m, -1).transpose(1, 0, 2).reshape(m * m, -1)
    return _gram(kern_rho) + swapped


def _edge_stacks(state: BipartiteState) -> tuple:
    """The stacks of ker rho and ker rho^Gamma that the state keeps (no SVD)."""
    return tuple(state.split(gamma)[0].conj().reshape(-1, state.dims.m, state.dims.n)
                 for gamma in (False, True))


def edge_residuals(state: BipartiteState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The joint residual sqrt(|F1(a) b|^2 + |F2(conj a) b|^2) at each row
    pair (a, b), F1 and F2 the membership maps of R(rho) and R(rho^Gamma) on
    `_edge_stacks`; every edge pair is judged by it against EDGE_PAIR_TOL."""
    kern_rho, kern_gamma = _edge_stacks(state)
    r1 = _membership_residuals(kern_rho, a, b)
    r2 = _membership_residuals(kern_gamma, a.conj(), b)
    return np.sqrt(r1 ** 2 + r2 ** 2)


def edge_pair_search(state: BipartiteState) -> tuple:
    """(ProductVector, joint residual) of the best of EDGE_FALLBACK_STARTS
    seeded `start_pairs` for an edge-violating pair: a (x) b in R(rho) with
    conj(a) (x) b in R(rho^Gamma).  The joint residual, `edge_residuals`,
    is minimized by `_alternate` on `_edge_gram` in rounds of
    _ALTERNATE_ITERS iterations, each from the pairs the last one left,
    until a start falls below EDGE_PAIR_TOL, _EDGE_ITERS iterations at most.
    The residual returned is that of the returned pair, as `ProductVector`
    makes it, so the report can be re-checked from its pair."""
    q = _edge_gram(*_edge_stacks(state))
    a, b = start_pairs(EDGE_FALLBACK_STARTS, state.dims.m, state.dims.n)
    b = b[:, :, None]
    for _ in range(_EDGE_ITERS // _ALTERNATE_ITERS):
        a, b, _ = _alternate(q, a, b)
        joint = edge_residuals(state, a, b[:, :, 0])
        if joint.min() < EDGE_PAIR_TOL:
            break
    idx = int(np.argmin(joint))
    pv = ProductVector(a[idx], b[idx, :, 0])
    return pv, float(edge_residuals(state, pv.a[None], pv.b[None])[0])


# ---------------------------------------------------------------------------
# enumeration


def enumerate_product_vectors(k: SubspaceBasis, dims: BipartiteDims) -> EnumerationResult:
    """Find the product vectors inside K; see the module docstring.

    K of dimension 0 is EMPTY, and a dimension count settles a set as
    LIKELY_INFINITE; both return at once.  Otherwise the homotopy runs, and
    its accepted roots become K's points by one rule: a square system's as
    they stand, a squared-down system's where `_roots_on_subspace` keeps
    them, with a count or without.  One settling rule, `_classify`, reads
    the points whichever search found them: delta transversal points of a
    square system, each pair certified distinct, make the set FINITE.  One
    multistart round of max(400, 4 delta) starts runs first, unless a
    plane or the homotopy's own points settle the set: it cross-checks a
    squared-down count, or searches a set that nothing settled.  It
    polishes the starts that its alternation left unsettled or near K; a
    start settled above sqrt(RESIDUAL_TOL) is a stationary point off K and
    keeps its alternation pair.  `route` is `homotopy` when a plane or the
    homotopy's points settle the set alone.  The returned points are
    pairwise distinct under the overlap metric and each satisfies
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
                      "transversal": [], "jacobian_sigma_min": [],
                      "points_from": None, "min_separation_ratio": None}
    if k.dim == 0:
        return EnumerationResult([], [], Classification.EMPTY, evidence)
    wc = complement_stack(k, dims).conj()

    if wc.shape[0] < m + n - 2:
        # fewer equations than the dimension of the Segre variety: every
        # component of the product set is positive-dimensional
        evidence["route"] = "dimension-count"
        evidence["dimension_forces_positive_dimension"] = True
        return EnumerationResult([], [], Classification.LIKELY_INFINITE, evidence)

    points, residuals, paths, planes = _homotopy_roots(wc)
    evidence["paths"] = paths
    square = wc.shape[0] == m + n - 2
    # delta roots of a squared-down system hold every point of K
    counted = not square and len(points) == dlt
    if square:
        # a square system's accepted roots are K's points as they stand
        best = min(residuals, default=float("inf"))
    else:
        points, residuals, best = _roots_on_subspace(wc, points)
    held = len(points)
    evidence["line_subspaces"] = planes
    evidence["best_residual"] = min([best] + [ls.residual for ls in planes])
    # a plane or the homotopy's own points can settle the set; a squared-down
    # count waits for the round's cross-check
    cls = (_classify(wc, dims, points, residuals, planes, counted, evidence)
           if planes or square else None)
    if cls in (None, Classification.INCONCLUSIVE):
        # One multistart round: it cross-checks a squared-down count, or
        # searches a set that neither a plane nor the homotopy's points settled.
        starts = max(_MIN_STARTS, 4 * dlt)
        a_all, b_all = start_pairs(starts, m, n)
        found, found_res = list(points), list(residuals)
        for lo in range(0, starts, _BATCH_CAP):
            a, b = a_all[lo:lo + _BATCH_CAP], b_all[lo:lo + _BATCH_CAP]
            a, b, settled, alt = _alternate_batch(wc, a, b)
            # a settled start is a stationary point of |F(a) b| on the
            # spheres, where a Gauss-Newton step is zero: one above
            # sqrt(RESIDUAL_TOL) is off K and keeps its alternation pair
            res = alt.copy()
            todo = np.flatnonzero(~settled | (alt <= math.sqrt(RESIDUAL_TOL)))
            if todo.size:
                a[todo], b[todo], res[todo] = _polish_batch(wc, a[todo], b[todo], _POLISH_ITERS)
            # the polish can raise a residual the alternation reached
            evidence["best_residual"] = min(evidence["best_residual"], float(alt.min()),
                                            float(res.min()))
            ok = np.nonzero(res <= RESIDUAL_TOL)[0]
            found += [ProductVector(a[i], b[i]) for i in ok]
            found_res += res[ok].tolist()
        points, residuals = _distinct_points(found, found_res)
        # a point outside the counted set overrules the count
        counted &= len(points) == held
        evidence["starts_used"], evidence["rounds"] = starts, 1
        cls = _classify(wc, dims, points, residuals, planes, counted, evidence)
    # no round ran, or the round left a squared-down count standing
    evidence["route"] = "homotopy" if counted or not evidence["rounds"] else "multistart"
    evidence["points_from"] = {"homotopy": held, "multistart": len(points) - held}
    return EnumerationResult(points, residuals, cls, evidence)


def _classify(wc, dims, points, residuals, planes, counted, evidence) -> Classification:
    """The one settling rule: K's classification from its points and planes,
    whichever search found the points, after `_point_evidence` records them.
    A plane makes the set LIKELY_INFINITE.  A square set is FINITE when it
    holds delta transversal points whose `min_separation_ratio` exceeds
    MARGIN_FACTOR; a squared-down one when `counted`, a count that the round
    did not overrule.  Otherwise more than delta points make the set
    LIKELY_INFINITE, a squared-down set with none is EMPTY, and the rest is
    INCONCLUSIVE."""
    _point_evidence(wc, dims, points, residuals, evidence)
    dlt = evidence["delta"]
    square = wc.shape[0] == dims.m + dims.n - 2
    if square:
        ratio = evidence["min_separation_ratio"]
        counted = (len(points) == dlt and all(evidence["transversal"])
                   and (ratio is None or ratio > MARGIN_FACTOR))
    if planes or (not counted and len(points) > dlt):
        return Classification.LIKELY_INFINITE
    if not points:
        return Classification.INCONCLUSIVE if square else Classification.EMPTY
    return Classification.FINITE if counted else Classification.INCONCLUSIVE


def _roots_on_subspace(wc: np.ndarray, points: list):
    """The product vectors of K among the roots of its squared-down system,
    whether or not there are delta of them; with delta they are all of K's
    points, see the module docstring.

    A root whose full residual is above sqrt(RESIDUAL_TOL) before any polish
    is off K: a polish on the full system would pull it onto a nearby true
    root.  Every other root is polished on the full system and kept when it
    reaches RESIDUAL_TOL at a point not kept already.  A root that fails
    its polish, or lands on a kept one, is off K as well: every product
    vector of K among the roots polishes onto itself.  Returns (the kept
    roots, their residuals, the best residual, inf where there is no root).
    """
    a = np.array([pv.a for pv in points]).reshape(len(points), wc.shape[1])
    b = np.array([pv.b for pv in points]).reshape(len(points), wc.shape[2])
    full = _membership_residuals(wc, a, b)
    near = full <= math.sqrt(RESIDUAL_TOL)
    polished, res = [], []
    if near.any():
        a, b, res = _polish_batch(wc, a[near], b[near], _POLISH_ITERS)
        ok = np.nonzero(res <= RESIDUAL_TOL)[0]
        polished, res = [ProductVector(a[i], b[i]) for i in ok], res[ok]
    kept, kept_res = _distinct_points(polished, res)
    return kept, kept_res, min(full.tolist() + kept_res, default=float("inf"))


def _point_evidence(wc, dims, points, residuals, evidence):
    """Record the isolation and transversality of each point in the
    evidence, in the points' own order (homotopy paths first, then
    multistart starts), by the rank test of `transversal` on one batched
    SVD.  Also record the least separation ratio over pairs of points, None
    below two: their separation sqrt(1 - |<a, a'>|^2 |<b, b'>|^2) over the
    sum of their first-order forward errors, residual over the Jacobian's
    least singular value."""
    a = np.array([pv.a for pv in points]).reshape(-1, dims.m)
    b = np.array([pv.b for pv in points]).reshape(-1, dims.n)
    smin, smax = _jacobian_extremes(wc, a, b)
    square = wc.shape[0] == dims.m + dims.n - 2
    evidence["transversal"] = [bool(square and lo > RANK_TOL * hi) for lo, hi in zip(smin, smax)]
    evidence["jacobian_sigma_min"] = [float(lo) for lo in smin]
    evidence["jacobian_cond"] = [float(hi / lo) if lo > 0 else float("inf")
                                 for lo, hi in zip(smin, smax)]
    overlap = np.abs(a.conj() @ a.T) * np.abs(b.conj() @ b.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.asarray(residuals, dtype=float) / smin
        ratio = np.sqrt(np.clip(1.0 - overlap ** 2, 0.0, None)) / (error[:, None] + error)
    pairs = np.triu_indices(len(points), 1)
    evidence["min_separation_ratio"] = float(ratio[pairs].min()) if len(points) > 1 else None


def _jacobian_extremes(wc: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Per row of a and b, the least and the largest singular value of the
    gauge-fixed Jacobian at a (x) b, from one batched SVD; with R' >= m + n - 2
    a zero least one marks a non-isolated root.  Where m = n = 1 the Jacobian
    has no column, and its extremes are those of an empty set, inf and 0: the
    one point of P^0 x P^0 is nonsingular."""
    s, k = a.shape[0], a.shape[1] + b.shape[1] - 2
    if s == 0 or k == 0:
        return np.full(s, np.inf), np.zeros(s)
    fa = np.einsum('si,rij->srj', a, wc)
    gb = np.einsum('rij,sj->sri', wc, b)
    jac = np.take_along_axis(np.concatenate([gb, fa], axis=2), _free_columns(a, b)[:, None, :],
                             axis=2)
    sv = np.linalg.svd(jac, compute_uv=False)
    return sv[:, -1], sv[:, 0]


# ---------------------------------------------------------------------------
# verdicts


def ces_certificate(subspace: SubspaceBasis, dims: BipartiteDims):
    """(verdict, enumeration): whether the subspace contains no product
    vectors, a numerical certificate, and the enumeration it rests on.  A
    subspace of dimension above (m-1)(n-1) always contains one, so its
    verdict is False whatever the enumeration found."""
    result = enumerate_product_vectors(subspace, dims)
    ces = (subspace.dim <= (dims.m - 1) * (dims.n - 1)
           and result.classification == Classification.EMPTY)
    return ces, result


def transversal(k: SubspaceBasis, pv: ProductVector, dims: BipartiteDims) -> bool:
    """Whether K and the tangent space of the product manifold at a (x) b
    together span the whole space.  The tangent directions a (x) e_j and
    e_i (x) b reach K^perp through the gauge-fixed Jacobian, so they span it
    when that R' x (m + n - 2) matrix has rank R' = dim K^perp, cut at
    RANK_TOL relative to its largest singular value; R' = 0 is transversal.
    A point farther than 1e-8 from K is refused."""
    resid = k.project_residual(pv.vec())
    if resid > 1e-8:
        raise ValueError(f"product vector is not in the subspace: residual {resid:.3e}")
    wc = complement_stack(k, dims).conj()
    if wc.shape[0] == 0:
        return True
    smin, smax = _jacobian_extremes(wc, pv.a[None, :], pv.b[None, :])
    return wc.shape[0] <= dims.m + dims.n - 2 and bool(smin[0] > RANK_TOL * smax[0])


def partial_conjugate(pv: ProductVector) -> ProductVector:
    """The product vector conj(a) (x) b."""
    return ProductVector(pv.a.conj(), pv.b)


def general_position(pvs: Sequence[ProductVector], dims: BipartiteDims) -> bool:
    """Every <= m of the A-factors and every <= n of the B-factors must be
    linearly independent, at a relative singular cut of 1e-8.

    Checking the maximal subset size suffices (subsets of independent
    families are independent); all subsets are tested through one batched
    SVD per side.  The subset count grows combinatorially, so families whose
    check would exceed 500,000 subsets on a side are rejected with a
    ValueError rather than silently truncated.
    """
    def side_ok(vecs, bound):
        count = len(vecs)
        size = min(bound, count)
        if size == 0:
            return True
        n_sub = math.comb(count, size)
        if n_sub > 500_000:
            raise ValueError(f"general position check needs {n_sub} subsets, "
                             "above the budget of 500000")
        idx = np.array(list(itertools.combinations(range(count), size)))
        stacks = np.asarray(vecs)[idx]                       # (n_sub, size, dim)
        sv = np.linalg.svd(stacks, compute_uv=False)
        return bool(np.all(sv[:, -1] > 1e-8 * sv[:, 0]))

    return (side_ok([pv.a for pv in pvs], dims.m)
            and side_ok([pv.b for pv in pvs], dims.n))


def classify_goodness(state: BipartiteState, *,
                      enumeration: Optional[EnumerationResult] = None) -> GoodnessVerdict:
    """Good/bad verdict for a state from the product vectors in its kernel.

    Decision table, with r = rank and the borderline at m + n - 2:
    above the borderline the state is good iff the kernel holds no product
    vectors; at the borderline good means a finite count equal to
    delta(m, n); a pure state (r = 1) with m, n >= 2 is good (PURE_STATE),
    PPT or not, by the paper's theorem; below the borderline otherwise the
    kernel does not decide, and the verdict is INDETERMINATE
    (RANK_BELOW_BORDERLINE), as `analyze` reports it: only
    `classify_separable_good` decides there, for a separable state whose
    product decomposition the caller supplies.
    A finite count strictly below delta at the borderline contradicts what
    finite intersections can do for PPT states, so it is flagged as a
    numerical anomaly (likely missed roots) for PPT inputs rather than
    silently classified.  `enumeration` is a result for
    `kernel_basis(state)`; ranks and the PPT test read the state's cuts.
    """
    dims = state.dims
    borderline = dims.m + dims.n - 2
    rank = len(state.split()[1])
    if rank == 1 and min(dims.m, dims.n) >= 2:
        return GoodnessVerdict(Goodness.GOOD, GoodnessReason.PURE_STATE)
    if rank < borderline:
        return GoodnessVerdict(Goodness.INDETERMINATE, GoodnessReason.RANK_BELOW_BORDERLINE)
    enn = (enumerate_product_vectors(kernel_basis(state), dims) if enumeration is None
           else enumeration)
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
        ppt = is_ppt(state)[0]
        verdict = Goodness.BAD if ppt else Goodness.INDETERMINATE
        return GoodnessVerdict(verdict, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X,
                               count=enn.count, anomaly=ppt)
    return GoodnessVerdict(Goodness.INDETERMINATE, None, count=enn.count)


# ---------------------------------------------------------------------------
# separable states


def classify_separable_good(pvs: Sequence[ProductVector], dims: BipartiteDims) -> GoodnessVerdict:
    """Good/bad verdict for a separable state given a pure product
    decomposition spanning its range.

    With r terms and r <= m + n - 2 the state is good iff the factors are in
    general position.  With more terms, the product vectors in the kernel
    of sum_i |a_i b_i><a_i b_i| are exactly the union of V_P (x) W_Q over
    the partitions (P, Q) of the terms, V_P the orthocomplement of the
    A-factors in P and W_Q that of the B-factors in Q.  So the ranks of the
    factor sets decide, each at RANK_TOL relative to its largest singular
    value: dim V_P = m - rank A_P and dim W_Q = n - rank B_Q.  The state is
    good (empty intersection) iff no partition leaves both dimensions
    nonzero; bad with an infinite component iff some partition leaves
    dim V_P + dim W_Q > 2; otherwise bad with isolated product vectors only.
    """
    m, n = dims.m, dims.n
    npts = len(pvs)
    if npts == 0:
        raise ValueError("need at least one product term")
    for pv in pvs:
        if (pv.a.size, pv.b.size) != (m, n):
            raise ValueError(f"a product term has factors of lengths ({pv.a.size}, "
                             f"{pv.b.size}), not ({m}, {n})")
    if npts > 20:
        raise ValueError(f"refusing 2^{npts} partitions; at most 20 terms supported")
    borderline = m + n - 2
    if npts <= borderline:
        if general_position(pvs, dims):
            reason = (GoodnessReason.COUNT_EQUALS_DELTA if npts == borderline else None)
            count = delta(m, n) if npts == borderline else None
            return GoodnessVerdict(Goodness.GOOD, reason, count=count)
        return GoodnessVerdict(Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)

    def dim_perp(rows, ambient):
        if not len(rows):
            return ambient
        sv = np.linalg.svd(rows, compute_uv=False)
        return ambient - int(np.sum(sv > RANK_TOL * sv[0]))

    amat = np.array([pv.a for pv in pvs])
    bmat = np.array([pv.b for pv in pvs])
    points = False
    for in_p in itertools.product((False, True), repeat=npts):
        in_p = np.array(in_p)
        dim_v = dim_perp(amat[in_p], m)
        if dim_v == 0:
            continue
        dim_w = dim_perp(bmat[~in_p], n)
        if dim_w == 0:
            continue
        if dim_v + dim_w > 2:
            return GoodnessVerdict(Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)
        points = True
    if points:
        return GoodnessVerdict(Goodness.BAD, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X)
    return GoodnessVerdict(Goodness.GOOD, GoodnessReason.EMPTY_INTERSECTION, count=0)
