import numpy as np
import pytest

from pptlab import certify, zoo
from pptlab.certify import (
    Extremality,
    StrongExtremality,
    edge_check,
    extremality_nullity,
    find_rank1_compression,
    necessary_bound,
    rank_n_separable_decomposition,
    strongly_extreme_by_theorem,
    witness_decomposition,
)
from pptlab.qstate import (
    BipartiteDims,
    BipartiteState,
    HermitianOperator,
    ProductVector,
    gamma_matrix,
    is_ppt,
    range_basis,
    rank_profile,
)
from pptlab.segre import (Classification, EnumerationResult, complement_stack,
                          enumerate_product_vectors, halton_pairs)
from conftest import random_full_rank_ppt, random_product_vector
from oracles import bisection_step, nullity_by_columns, nullity_unrestricted
from test_qstate import werner_2x2


def diag_two_products() -> BipartiteState:
    return BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 1.0])))


class TestExtremalityNullity:
    def test_pure_product_is_extreme(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        cert = extremality_nullity(BipartiteState(HermitianOperator(BipartiteDims(2, 2), rho)))
        assert cert.nullity == 1
        assert cert.verdict == Extremality.EXTREME

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 4), (4, 5)])
    def test_random_pure_product_is_extreme(self, rng, m, n):
        # every constraint column is rounding noise here; a cutoff relative
        # to the largest singular value counted that noise as rank
        v = random_product_vector(BipartiteDims(m, n), rng).vec()
        v /= np.linalg.norm(v)
        state = BipartiteState(HermitianOperator(BipartiteDims(m, n), np.outer(v, v.conj())))
        cert = extremality_nullity(state)
        assert (cert.nullity, cert.verdict) == (1, Extremality.EXTREME)
        assert nullity_unrestricted(state) == 1

    def test_bad_3xn_base_is_extreme(self):
        cert = extremality_nullity(zoo.bad_3xn(4))
        assert cert.nullity == 1
        assert cert.verdict == Extremality.EXTREME
        assert cert.gap_ratio > 1e4

    @pytest.mark.parametrize("m,n", [(4, 4), (4, 6), (5, 5)])
    def test_bad_mxn_members_extreme(self, m, n):
        cert = extremality_nullity(zoo.bad_mxn(m, n))
        assert cert.nullity == 1
        assert cert.verdict == Extremality.EXTREME

    def test_maximally_mixed_two_qubits(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4)))
        cert = extremality_nullity(state)
        assert cert.nullity == 16
        assert cert.verdict == Extremality.NOT_EXTREME
        assert cert.witness is not None

    def test_two_term_separable_not_extreme(self):
        cert = extremality_nullity(diag_two_products())
        assert cert.nullity == 2
        assert cert.verdict == Extremality.NOT_EXTREME

    def test_nullity_at_least_one(self, rng):
        for _ in range(5):
            state = random_full_rank_ppt(BipartiteDims(2, 3), rng)
            assert extremality_nullity(state).nullity >= 1

    def test_agrees_with_unrestricted_parametrization(self):
        for state in (zoo.good_3x4(), diag_two_products(), werner_2x2()):
            cert = extremality_nullity(state)
            assert cert.nullity == nullity_unrestricted(state)

    def test_npt_input_warns(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1.0 / np.sqrt(2)
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.outer(psi, psi)))
        with pytest.warns(UserWarning, match="NPT"):
            extremality_nullity(state)

    def test_one_eigendecomposition_of_the_partial_transpose(self, monkeypatch):
        # the PPT verdict comes from the eigh that splits rho^Gamma
        state = zoo.good_3x4()

        def refuse(*args, **kwargs):
            raise AssertionError("extremality_nullity called np.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cert = extremality_nullity(state)
        assert (cert.verdict, cert.nullity) == (Extremality.EXTREME, 1)

    def test_invariant_under_local_permutations(self, rng):
        state = zoo.good_3x4()
        base = extremality_nullity(state).nullity
        pa = np.eye(3)[rng.permutation(3)]
        pb = np.eye(4)[rng.permutation(4)]
        u = np.kron(pa, pb)
        permuted = BipartiteState(HermitianOperator(state.dims, u @ state.matrix @ u.T))
        assert extremality_nullity(permuted).nullity == base

    def test_gamma_invariant_state_matches_partial_transpose(self):
        state = zoo.good_3xn(5)
        g = BipartiteState(HermitianOperator(state.dims, gamma_matrix(state)))
        assert extremality_nullity(state).nullity == extremality_nullity(g).nullity


def _grid_states() -> dict:
    """The states of the extremality-grid benchmark: the bad M x N grid,
    good_3xn(4..8) and seeded separable states with fewer terms than full
    rank (the benchmark draws these from its own seed)."""
    states = {f"bad_{m}x{n}": zoo.bad_mxn(m, n)
              for m in range(4, 11) for n in range(m, 15 - m)}
    states.update({f"good_3x{n}": zoo.good_3xn(n) for n in range(4, 9)})
    rng = np.random.default_rng(7)
    for m, n, terms in [(2, 2, 3), (2, 3, 4), (2, 3, 5), (2, 4, 5), (2, 4, 6), (2, 5, 6),
                        (3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 3, 8), (3, 4, 6), (3, 4, 7)]:
        states[f"sep_{m}x{n}_k{terms}"] = separable_state(m, n, terms, rng)
    return states


def separable_state(m: int, n: int, terms: int, rng) -> BipartiteState:
    rho = np.zeros((m * n, m * n), dtype=complex)
    for _ in range(terms):
        v = random_product_vector(BipartiteDims(m, n), rng).vec()
        rho += np.outer(v, v.conj())
    return BipartiteState(HermitianOperator(BipartiteDims(m, n), rho))


GRID = _grid_states()


class TestAgainstOracles:
    """The compressed constraint and the closed-form step against the r^2
    column build and the 60-step bisection, on every grid state and its
    partial transpose."""

    @pytest.mark.parametrize("label", sorted(GRID))
    def test_grid_state_and_partial_transpose(self, label):
        state = GRID[label]
        gamma = BipartiteState(HermitianOperator(state.dims, gamma_matrix(state)))
        for st in (state, gamma):
            cert = extremality_nullity(st)
            nullity, verdict, sv = nullity_by_columns(st)
            assert (cert.nullity, cert.verdict) == (nullity, verdict)
            assert cert.verdict == (Extremality.NOT_EXTREME if label.startswith("sep")
                                    else Extremality.EXTREME)
            k = min(sv.size, cert.singular_spectrum.size)
            assert np.abs(cert.singular_spectrum[:k] - sv[:k]).max() <= 1e-12
            if cert.nullity == 1:
                continue
            rho1, rho2 = witness_decomposition(st, cert)
            eps = np.linalg.norm(st.matrix - rho1.matrix)      # the witness has unit norm
            assert abs(eps - bisection_step(st, cert.witness)) <= 1e-6 * eps
            err = np.linalg.norm(rho1.matrix + rho2.matrix - 2 * st.matrix)
            assert err <= 1e-10 * np.linalg.norm(st.matrix)
            assert is_ppt(rho1)[0] and is_ppt(rho2)[0]


class TestComplexInvariance:
    """Nullity and verdict are SLOCC invariants; every grid state is real,
    so these complex, seeded conjugations are what would expose a missing
    conjugate."""

    STATES = {
        "good_3x4": zoo.good_3x4,
        "bad_4x5": lambda: zoo.bad_mxn(4, 5),
        "good_3x6": lambda: zoo.good_3xn(6),
        "sep_3x4_k7": lambda: separable_state(3, 4, 7, np.random.default_rng(5)),
    }

    @staticmethod
    def _conjugated(state, a, b):
        u = np.kron(a, b)
        return BipartiteState(HermitianOperator(state.dims, u @ state.matrix @ u.conj().T))

    @pytest.mark.parametrize("label", sorted(STATES))
    def test_local_unitary_slocc_and_scale(self, label):
        state = self.STATES[label]()
        m, n = state.dims.m, state.dims.n
        base = extremality_nullity(state)
        rng = np.random.default_rng(17)

        def cplx(k):
            return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

        variants = [
            self._conjugated(state, np.linalg.qr(cplx(m))[0], np.linalg.qr(cplx(n))[0]),
            self._conjugated(state, np.eye(m) + 0.3 * cplx(m), np.eye(n) + 0.3 * cplx(n)),
            BipartiteState(HermitianOperator(state.dims, 1e6 * state.matrix)),
            BipartiteState(HermitianOperator(state.dims, 1e-6 * state.matrix)),
        ]
        for variant in variants:
            cert = extremality_nullity(variant)
            assert (cert.nullity, cert.verdict) == (base.nullity, base.verdict)


class TestWitnessDecomposition:
    @pytest.mark.parametrize("state_fn", [
        diag_two_products,
        lambda: BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4))),
    ])
    def test_split_reconstructs(self, state_fn):
        state = state_fn()
        cert = extremality_nullity(state)
        rho1, rho2 = witness_decomposition(state, cert)
        total = rho1.matrix + rho2.matrix
        assert np.linalg.norm(total - 2 * state.matrix) <= 1e-10 * np.linalg.norm(state.matrix)
        for part in (rho1, rho2):
            assert np.linalg.eigvalsh(gamma_matrix(part)).min() > -1e-10
        # non-parallel parts
        inner = abs(np.vdot(rho1.matrix.ravel(), rho2.matrix.ravel()))
        norms = np.linalg.norm(rho1.matrix) * np.linalg.norm(rho2.matrix)
        assert inner < (1 - 1e-6) * norms

    def test_npt_state_has_no_step(self):
        bell = np.zeros(4)
        bell[[0, 3]] = 1.0 / np.sqrt(2.0)
        state = BipartiteState(HermitianOperator(
            BipartiteDims(2, 2), np.outer(bell, bell) + 0.1 * np.eye(4)), psd_tol=1e-9)
        with pytest.warns(UserWarning, match="NPT"):
            cert = extremality_nullity(state)
        assert cert.nullity > 1
        with pytest.raises(ArithmeticError):
            witness_decomposition(state, cert)

    def test_extreme_state_rejects(self):
        state = zoo.good_3x4()
        cert = extremality_nullity(state)
        with pytest.raises(ValueError, match="nullity > 1"):
            witness_decomposition(state, cert)


class TestNecessaryBound:
    def test_known_values(self):
        assert not necessary_bound(6, 6, 2, 4)
        assert not necessary_bound(12, 12, 3, 4)    # full birank never extreme
        assert necessary_bound(4, 4, 3, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            necessary_bound(0, 4, 2, 2)

    def test_consistent_with_nullity_on_full_rank_ppt(self, rng):
        for _ in range(5):
            state = random_full_rank_ppt(BipartiteDims(2, 2), rng)
            prof = rank_profile(state)
            assert not necessary_bound(prof.rank, prof.rank_gamma, 2, 2)
            cert = extremality_nullity(state)
            assert cert.verdict == Extremality.NOT_EXTREME


class TestEdgeCheck:
    def test_separable_diagonal_not_edge(self):
        report = edge_check(diag_two_products())
        assert not report.is_edge
        pv, partner = report.violating_pair
        basis = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([0, 1.0], [0, 1.0])]
        assert any(pv.overlap(q) > 1 - 1e-6 for q in basis)

    def test_good_3x4_is_edge(self):
        report = edge_check(zoo.good_3x4())
        assert report.is_edge
        assert report.best_residual > 1e-4

    def test_gentiles2_complement_is_edge(self):
        state = zoo.upb_complement_state(zoo.gentiles2_upb(3, 4))
        report = edge_check(state)
        assert report.is_edge

    def test_good_3x4_edge_by_count_skips_fallback(self):
        report = edge_check(zoo.good_3x4())
        assert report.route == "homotopy"
        assert report.paths == {"tracked": 10, "finished": 10, "accepted": 10, "on_plane": 0}
        # one cross-check round of the range search, no joint minimization
        assert report.starts_used == 400

    def test_homotopy_route_with_a_continuum_runs_the_fallback(self):
        # a homotopy route that settled a set as infinite has not listed
        # every product vector of the range, so the joint search still runs
        paths = {"tracked": 10, "finished": 7, "accepted": 7, "on_plane": 3}
        enum = EnumerationResult([], [], Classification.LIKELY_INFINITE,
                                 {"route": "homotopy", "paths": paths, "starts_used": 0,
                                  "best_residual": 1.0})
        report = edge_check(zoo.good_3x4(), enumeration=enum)
        assert report.starts_used == certify.EDGE_FALLBACK_STARTS
        assert report.route == "multistart"
        assert report.paths == paths

    def test_separable_pair_found_by_count(self, rng):
        # the homotopy count finds both product terms of the range, and the
        # partner of each lies in the range of the partial transpose
        dims = BipartiteDims(2, 3)
        rho = sum(np.outer(v, v.conj()) for v in
                  (random_product_vector(dims, rng).vec() for _ in range(2)))
        report = edge_check(BipartiteState(HermitianOperator(dims, rho)))
        assert not report.is_edge
        assert report.route == "homotopy"

    @pytest.mark.parametrize("state_fn", [diag_two_products, zoo.good_3x4,
                                          lambda: zoo.bad_mxn(4, 5)],
                             ids=["diag_two_products", "good_3x4", "bad_4x5"])
    def test_same_verdict_with_passed_enumeration(self, state_fn):
        state = state_fn()
        dims = state.dims
        enum = enumerate_product_vectors(range_basis(state), dims)
        own = edge_check(state)
        passed = edge_check(state, enumeration=enum)
        assert (passed.is_edge, passed.route, passed.starts_used, passed.best_residual) == \
            (own.is_edge, own.route, own.starts_used, own.best_residual)


def real_embedded_a_step(kern_rho, kern_gamma, b):
    """The edge fallback's a-step on the real 4R' x 2m embedding of
    |G1(b) a|^2 + |G2(b) conj(a)|^2, with a = x + iy."""
    m = kern_rho.shape[1]
    g1 = np.einsum('rij,sj->sri', kern_rho, b)
    g2 = np.einsum('rij,sj->sri', kern_gamma, b)
    big = np.concatenate([
        np.concatenate([g1.real, -g1.imag], axis=2),
        np.concatenate([g1.imag, g1.real], axis=2),
        np.concatenate([g2.real, g2.imag], axis=2),
        np.concatenate([g2.imag, -g2.real], axis=2),
    ], axis=1)
    xy = np.linalg.svd(big)[2][:, -1, :]
    a = xy[:, :m] + 1j * xy[:, m:]
    return a / np.linalg.norm(a, axis=1, keepdims=True)


class TestEdgeAStep:
    @pytest.mark.parametrize("state_fn", [zoo.good_3x4,
                                          lambda: zoo.bad_3x4(1.3, 0.7, -1.1, 0.9, 1.7, 0.4, -0.2)],
                             ids=["good_3x4", "bad_3x4"])
    def test_complex_step_matches_real_embedding(self, state_fn):
        state = state_fn()
        dims = state.dims
        gamma_state = BipartiteState(HermitianOperator(dims, gamma_matrix(state)))
        kern_rho = complement_stack(range_basis(state), dims).conj()
        kern_gamma = complement_stack(range_basis(gamma_state), dims).conj()
        _, b = halton_pairs(64, dims.m, dims.n)
        a = certify._edge_a_step(kern_rho, kern_gamma, b)
        oracle = real_embedded_a_step(kern_rho, kern_gamma, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
        # the same unit vector up to a phase
        assert np.abs(np.sum(a.conj() * oracle, axis=1)).min() > 1 - 1e-10


class TestRankNDecomposition:
    def test_two_term_diagonal(self):
        dec = rank_n_separable_decomposition(diag_two_products())
        assert len(dec.terms) == 2
        assert dec.reconstruction_residual < 1e-9
        expected = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([0, 1.0], [0, 1.0])]
        for _, pv in dec.terms:
            assert any(pv.overlap(q) > 1 - 1e-8 for q in expected)

    def test_recovers_random_product_mixture(self, rng):
        dims = BipartiteDims(3, 4)
        pvs, weights = [], []
        bmat = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))[0]
        for k in range(4):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pvs.append(ProductVector(a, bmat[:, k]))
            weights.append(float(rng.uniform(0.5, 2.0)))
        rho = sum(w * np.outer(pv.vec(), pv.vec().conj()) for w, pv in zip(weights, pvs))
        state = BipartiteState(HermitianOperator(dims, rho))
        dec = rank_n_separable_decomposition(state)
        assert len(dec.terms) == 4
        assert dec.reconstruction_residual < 1e-9
        for _, found in dec.terms:
            assert any(found.overlap(pv) > 1 - 1e-6 for pv in pvs)

    def test_rank_precondition(self):
        with pytest.raises(ValueError, match="rank"):
            rank_n_separable_decomposition(zoo.good_3x4())

    def test_npt_precondition(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1.0 / np.sqrt(2)
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.outer(psi, psi)))
        with pytest.raises(ValueError, match="not PPT"):
            rank_n_separable_decomposition(state)

    def test_terms_lie_in_range(self, rng):
        state = diag_two_products()
        from pptlab.qstate import range_basis
        rng_basis = range_basis(state)
        for _, pv in rank_n_separable_decomposition(state).terms:
            assert rng_basis.project_residual(pv.vec()) < 1e-9


class TestRankOneCompression:
    def test_a_direct_sum_found(self, rng):
        # |0><0| (x) |0><0| plus a state supported on the other A directions
        dims = BipartiteDims(3, 3)
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        for _ in range(4):
            a2 = np.concatenate([[0.0], rng.standard_normal(2) + 1j * rng.standard_normal(2)])
            b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = np.kron(a2, b2)
            rho += np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        state = BipartiteState(HermitianOperator(dims, rho))
        hit = find_rank1_compression(state)
        assert hit is not None
        vec, hyperplane = hit
        e0 = np.zeros(3)
        e0[0] = 1.0
        assert abs(np.vdot(vec, e0)) > 1 - 1e-8
        assert hyperplane.dim == 2

    def test_good_3x4_has_none(self):
        assert find_rank1_compression(zoo.good_3x4()) is None

    def test_two_level_b_side(self):
        # n = 2: the hyperplane degenerates to a single B direction
        rho = np.diag([1.0, 0.0, 1.0, 1.0])
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), rho))
        hit = find_rank1_compression(state)
        assert hit is not None
        vec, hyperplane = hit
        assert abs(vec[0]) > 1 - 1e-8
        assert hyperplane.dim == 1

    def test_generic_bad_3x4_has_none(self):
        state = zoo.bad_3x4(1.4, -0.8, 1.2, 0.6, -1.5, 0.3, 0.9)
        assert find_rank1_compression(state) is None


class TestStronglyExtreme:
    def test_good_3x4_yes(self):
        assert strongly_extreme_by_theorem(zoo.good_3x4()) == StrongExtremality.YES

    def test_bad_mxn_not_applicable(self):
        assert (strongly_extreme_by_theorem(zoo.bad_mxn(4, 4))
                == StrongExtremality.NOT_APPLICABLE)

    def test_separable_diag_not_applicable(self):
        assert (strongly_extreme_by_theorem(diag_two_products())
                == StrongExtremality.NOT_APPLICABLE)
