import numpy as np
import pytest

from pptlab import zoo
from pptlab.certify import (
    Extremality,
    StrongExtremality,
    edge_check,
    extremality_nullity,
    find_rank1_compression,
    necessary_bound,
    nullity_unrestricted,
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
    range_basis,
    rank_profile,
)
from pptlab.segre import EnumerationOptions, enumerate_product_vectors
from conftest import random_full_rank_ppt, random_product_vector
from test_qstate import werner_2x2


FAST = EnumerationOptions()


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
        report = edge_check(diag_two_products(), opts=FAST)
        assert not report.is_edge
        pv, partner = report.violating_pair
        basis = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([0, 1.0], [0, 1.0])]
        assert any(pv.overlap(q) > 1 - 1e-6 for q in basis)

    def test_good_3x4_is_edge(self):
        report = edge_check(zoo.good_3x4(), opts=FAST)
        assert report.is_edge
        assert report.best_residual > 1e-4

    def test_gentiles2_complement_is_edge(self):
        state = zoo.upb_complement_state(zoo.gentiles2_upb(3, 4))
        report = edge_check(state, opts=FAST)
        assert report.is_edge

    def test_good_3x4_edge_by_count_skips_fallback(self):
        report = edge_check(zoo.good_3x4(), opts=FAST)
        assert report.route == "homotopy"
        assert report.paths == {"tracked": 10, "finished": 10, "accepted": 10}
        # one cross-check round of the range search, no joint minimization
        assert report.starts_used == 400

    def test_separable_pair_found_by_count(self, rng):
        # the homotopy count finds both product terms of the range, and the
        # partner of each lies in the range of the partial transpose
        dims = BipartiteDims(2, 3)
        rho = sum(np.outer(v, v.conj()) for v in
                  (random_product_vector(dims, rng).vec() for _ in range(2)))
        report = edge_check(BipartiteState(HermitianOperator(dims, rho)), opts=FAST)
        assert not report.is_edge
        assert report.route == "homotopy"

    @pytest.mark.parametrize("state_fn", [diag_two_products, zoo.good_3x4,
                                          lambda: zoo.bad_mxn(4, 5)],
                             ids=["diag_two_products", "good_3x4", "bad_4x5"])
    def test_same_verdict_with_passed_enumeration(self, state_fn):
        state = state_fn()
        dims = state.dims
        opts = EnumerationOptions(start_count=max(400, 4 * zoo.delta(dims.m, dims.n)))
        enum = enumerate_product_vectors(range_basis(state), dims, opts)
        own = edge_check(state, opts=opts)
        passed = edge_check(state, enumeration=enum)
        assert (passed.is_edge, passed.route, passed.starts_used, passed.best_residual) == \
            (own.is_edge, own.route, own.starts_used, own.best_residual)


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
        assert strongly_extreme_by_theorem(zoo.good_3x4(), opts=FAST) == StrongExtremality.YES

    def test_bad_mxn_not_applicable(self):
        assert (strongly_extreme_by_theorem(zoo.bad_mxn(4, 4), opts=FAST)
                == StrongExtremality.NOT_APPLICABLE)

    def test_separable_diag_not_applicable(self):
        assert (strongly_extreme_by_theorem(diag_two_products(), opts=FAST)
                == StrongExtremality.NOT_APPLICABLE)
