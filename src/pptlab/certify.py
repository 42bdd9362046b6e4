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
rho^Gamma.  P and the kernel K and range R of rho^Gamma are eigenvectors the
state keeps, split by the cut that decides its ranks.  Rotated by [K | R],
that component is a Hermitian d x d block and a d x s block, written in
d^2 + 2ds real coordinates; this isometric image keeps the map's singular
values and null space.  The states the paper constructs are real
matrices.  For those, P, K and R are real, and because Gamma commutes with
transposition and with complex conjugation the map splits in two real
blocks: the r(r+1)/2 symmetric units of X reach only the real coordinates,
the r(r-1)/2 antisymmetric ones only the imaginary coordinates.  Each block
is factored by its own QR and an SVD of its triangular factor, about a
quarter of the flops of the one-block QR that a complex state takes.  The
answer is an auditable integer, trusted only when no singular value lies
within a factor MARGIN_FACTOR of the cutoff (`nullity_verdict`); the
reported margin sets the smallest kept singular value against the cutoff,
the gap ratio against the largest discarded one, and the witness of a
non-extreme state comes from the null vectors of the same SVDs.

The remaining certificates are the quadratic necessary bound on biranks,
an edge-state check (no product vector in the range whose partial conjugate
sits in the range of rho^Gamma) and a product decomposition for PPT states
of rank equal to the B-local rank.  No verdict here runs a search: the edge
check and the theorem route are rules over the range enumeration, goodness
and certificate they are given, and every search is in `segre`.  Each
certificate is an object: `cli` alone writes it into pptlab-report/1.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qstate import (
    MARGIN_FACTOR,
    BipartiteState,
    HermitianOperator,
    ProductVector,
    factor_blocks,
    gamma_matrix,
    is_ppt,
    null_space,
    rank_profile,
    _gamma,
)
from .segre import (
    EDGE_FALLBACK_STARTS,
    EDGE_PAIR_TOL,
    Classification,
    EnumerationResult,
    Goodness,
    GoodnessVerdict,
    edge_pair_search,
    edge_residuals,
    partial_conjugate,
)

NULLITY_CUTOFF = 1e-8


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
    state, it does not move with the rounding.  The verdict reads the margin
    and its mirror on the discarded side, never `gap_ratio`; see
    `nullity_verdict`."""

    nullity: int
    verdict: Extremality
    gap_ratio: float
    singular_spectrum: np.ndarray
    witness: Optional[np.ndarray] = None
    margin: float = np.nan


@dataclass(eq=False)
class SeparableDecomposition:
    """Weighted pure product terms reproducing a separable state."""

    terms: list
    reconstruction_residual: float


@dataclass(frozen=True)
class EdgeReport:
    """Outcome of the edge check.

    `route` says what decided it: "homotopy" when the product vectors of the
    range are complete by count (a proof), "hilbert" when the range's
    bigraded Hilbert function proves it empty (a proof), "multistart" when
    a search decided (a numerical certificate).  `best_residual` is the
    `segre.edge_residuals` of the reported pair when one was found;
    otherwise the least residual the searches reached.
    """

    is_edge: bool
    violating_pair: Optional[tuple]
    starts_used: int
    best_residual: float
    route: str


def _hermitian_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian r x r matrix in the orthonormal basis of
    diagonal units, then per pair i < j the symmetric (|i><j| + |j><i|)/sqrt2
    units, then the antisymmetric i(|i><j| - |j><i|)/sqrt2 ones: the order of
    the extremality map's rows."""
    r = x.shape[0]
    up = np.sqrt(2.0) * x[np.triu_indices(r, 1)]
    return np.concatenate([np.diagonal(x).real, up.real, up.imag])


def _hermitian_from_coords(c: np.ndarray) -> np.ndarray:
    """The inverse of `_hermitian_coords`."""
    r = round(len(c) ** 0.5)
    pairs = r * (r - 1) // 2
    x = np.zeros((r, r), dtype=complex)
    x[np.triu_indices(r, 1)] = (c[r:r + pairs] + 1j * c[r + pairs:]) / np.sqrt(2.0)
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


def nullity_verdict(sv: np.ndarray, units: int) -> tuple:
    """(nullity, verdict) of a constraint map on `units` Hermitian units
    with singular values `sv`, cut at NULLITY_CUTOFF.

    The integer is trusted only when no singular value lies strictly inside
    the window (NULLITY_CUTOFF / MARGIN_FACTOR, NULLITY_CUTOFF *
    MARGIN_FACTOR): the margin is at least MARGIN_FACTOR, and the cutoff is
    at least MARGIN_FACTOR times the largest discarded value.  Then nullity
    one is EXTREME and any larger nullity NOT_EXTREME; otherwise, and at
    nullity zero (impossible: rho itself is feasible), BORDERLINE."""
    nullity = units - int(np.sum(sv > NULLITY_CUTOFF))
    lo, hi = NULLITY_CUTOFF / MARGIN_FACTOR, NULLITY_CUTOFF * MARGIN_FACTOR
    if nullity == 0 or np.any((sv > lo) & (sv < hi)):
        return nullity, Extremality.BORDERLINE
    return nullity, Extremality.EXTREME if nullity == 1 else Extremality.NOT_EXTREME


def extremality_nullity(state: BipartiteState) -> ExtremalityCert:
    """Dimension of {Hermitian H : R(H) in R(rho), R(H^G) in R(rho^G)}.

    The map is two real blocks when every imaginary part of rho is exactly
    zero, as the module docstring derives, and one block of all r^2 units
    otherwise; the spectrum is the sorted union of the blocks'.

    The singular values of the constraint map give the nullity and the
    verdict by `nullity_verdict`.  A state that is NPT at its `psd_tol`
    draws a warning.
    """
    m, n = state.dims.m, state.dims.n
    real = not np.any(state.matrix.imag)
    ppt, min_eig = is_ppt(state)
    if not ppt:
        warnings.warn(f"extremality criterion applied to an NPT state "
                      f"(min eigenvalue of the partial transpose {min_eig:.3e})")
    p = state.split()[1]                                        # r x mn
    r = p.shape[0]
    kern, rng_gamma = state.split(gamma=True)
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
    nullity, verdict = nullity_verdict(sv, r * r)   # directions no constraint kills
    rank = r * r - nullity
    margin = float(sv[rank - 1] / NULLITY_CUTOFF) if rank else np.inf
    if nullity == 0:
        return ExtremalityCert(0, verdict, 0.0, sv, None, margin)
    kept, disc = sv[:rank], sv[rank:]
    gap = (float(kept[-1] / disc[0]) if (kept.size and disc.size and disc[0] > 0)
           else np.inf)
    witness = None
    if nullity > 1:
        if bound <= 1:                  # the diagonal bound holds in exact arithmetic only
            svds = [np.linalg.svd(f) for f in facs]
        # each block's null rows, put back at its units' rows of the map,
        # the layout of `_hermitian_coords`
        null_rows, first = [], 0
        for _, s, vh in svds:
            rows = np.zeros((vh.shape[0], r * r))
            rows[:, first:first + vh.shape[0]] = vh
            null_rows.append(rows[int(np.sum(s > NULLITY_CUTOFF)):])
            first += vh.shape[0]
        witness = _witness_from_nullspace(state, np.concatenate(null_rows))
    return ExtremalityCert(nullity, verdict, gap, sv, witness, margin)


def _witness_from_nullspace(state: BipartiteState, null_rows: np.ndarray) -> Optional[np.ndarray]:
    """A unit-Frobenius feasible Hermitian direction orthogonal to rho."""
    p = state.split()[1].T
    coeff = null_rows @ _hermitian_coords(p.conj().T @ state.matrix @ p)
    perp = null_space(coeff[None, :])
    if perp.shape[1] == 0:
        return None
    x = _hermitian_from_coords(perp[:, 0] @ null_rows)
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
    factor-two margin.  The two states rho -+ eps*H are returned, and the
    decompositions they keep of themselves and of their partial transposes
    are checked once for PSD.  Raises when that check fails or
    when eps is below 1e-10 relative to the largest eigenvalue, which
    signals a numerically unusable witness rather than extremality.
    """
    if cert.nullity <= 1 or cert.witness is None:
        raise ValueError("witness decomposition needs a certificate with nullity > 1")
    h, rho = cert.witness, state.matrix
    grho, gh = gamma_matrix(state), _gamma(h, state.dims.m, state.dims.n)
    scale = state.eigh()[0][-1]
    mu = 0.0
    for gamma, a, b in ((False, h, rho), (True, gh, grho)):
        q = state.split(gamma)[1]
        try:
            w = _pencil_eigvalsh(q.conj() @ a @ q.T, q.conj() @ b @ q.T)
        except np.linalg.LinAlgError:   # not positive definite on its range: NPT
            raise ArithmeticError("the state is not PSD on its range; no splitting step") from None
        mu = max(mu, float(np.abs(w).max()))
    eps = 0.5 / mu
    if eps < 1e-10 * scale:
        raise ArithmeticError("no usable splitting step above 1.0e-10 relative")
    # the halves carry the state's cuts; their PSD check is the one below
    halves = tuple(state._derived(HermitianOperator(state.dims, rho + sign * eps * h), {})
                   for sign in (-1.0, 1.0))
    if min(half.eigh(gamma)[0][0] for half in halves
           for gamma in (False, True)) < -1e-12 * scale:
        raise ArithmeticError(f"the closed-form step {eps:.3e} leaves the PPT set")
    return halves


def necessary_bound(rank: int, rank_gamma: int, m: int, n: int) -> bool:
    """Whether the birank passes r^2 + s^2 <= (mn)^2 + 1; False rules out
    extremality outright."""
    if not (1 <= rank <= m * n and 1 <= rank_gamma <= m * n):
        raise ValueError(f"birank ({rank}, {rank_gamma}) out of range for {m}x{n}")
    return rank ** 2 + rank_gamma ** 2 <= (m * n) ** 2 + 1


# ---------------------------------------------------------------------------
# edge states


def edge_check(state: BipartiteState, enumeration: EnumerationResult) -> EdgeReport:
    """Look for a product vector in R(rho) whose partial conjugate lies in
    R(rho^Gamma); the state is an edge state iff none exists.

    Route one takes the first point of `enumeration`, the product vectors of
    `range_basis(state)`, whose `segre.edge_residuals` is below EDGE_PAIR_TOL;
    with none, an enumeration finite or empty and complete by a homotopy
    count, or empty by its Hilbert certificate (route `hilbert`), proves the
    state edge with no search.  Otherwise route two takes the best pair of
    `segre.edge_pair_search`, judged by the same residual: a numerical
    certificate, with the start count and the best residual reached.  A
    state that is NPT at its `psd_tol` draws a warning.
    """
    ppt, min_eig = is_ppt(state)
    if not ppt:
        warnings.warn(f"edge check applied to an NPT state (min eig {min_eig:.3e})")
    ev = enumeration.evidence
    starts, best, route = ev["starts_used"], ev["best_residual"], ev["route"]
    if enumeration.points:
        joint = edge_residuals(state, np.array([pv.a for pv in enumeration.points]),
                               np.array([pv.b for pv in enumeration.points]))
        hits = np.flatnonzero(joint < EDGE_PAIR_TOL)
        if hits.size:
            pv = enumeration.points[hits[0]]
            return EdgeReport(False, (pv, partial_conjugate(pv)), starts, float(joint[hits[0]]),
                              route)
    if route in ("homotopy", "hilbert") and enumeration.classification in (
            Classification.FINITE, Classification.EMPTY):
        # every product vector of the range was tested: no pair exists
        return EdgeReport(True, None, starts, best, route)

    # joint minimization over (a, b) of the two membership residuals at once
    pv, joint = edge_pair_search(state)
    starts += EDGE_FALLBACK_STARTS
    if joint < EDGE_PAIR_TOL:
        return EdgeReport(False, (pv, partial_conjugate(pv)), starts, joint, "multistart")
    return EdgeReport(True, None, starts, min(best, joint), "multistart")


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
        # an eigenvalue collision can be structural: the combination is kept
        # if the family still diagonalizes, else a fresh one is drawn
        z = _schur_basis(np.asarray(t, dtype=complex))[1]
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


def strongly_extreme_by_theorem(state: BipartiteState, goodness: GoodnessVerdict,
                                cert: ExtremalityCert) -> StrongExtremality:
    """Theorem-backed derivation: a good PPT state of rank m + n - 2 that is
    extreme shares its range with no other PPT state.  Anything that fails
    one of the three hypotheses returns NOT_APPLICABLE: a rule over the
    state's `goodness` and extremality `cert`, not a search.  The rank and
    the PPT test read the state's cuts."""
    if (len(state.split()[1]) != state.dims.m + state.dims.n - 2 or not is_ppt(state)[0]
            or goodness.verdict != Goodness.GOOD or cert.verdict != Extremality.EXTREME):
        return StrongExtremality.NOT_APPLICABLE
    return StrongExtremality.YES
