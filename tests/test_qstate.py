import json

import numpy as np
import pytest

from pptlab import zoo
from pptlab.qstate import (
    BipartiteDims,
    BipartiteState,
    BlockFactor,
    HermitianOperator,
    from_blocks,
    factor_blocks,
    gamma_matrix,
    is_ppt,
    kernel_basis,
    load_state,
    normalized,
    partial_transpose,
    range_basis,
    rank_profile,
    reduced_operators,
    save_factor,
    save_state,
)
from conftest import random_hermitian, random_state


def werner_2x2() -> BipartiteState:
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    return BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4) + swap))


def bad_separable_3x3() -> BipartiteState:
    # sum of |ii><ii| plus one product term with factors (0, 1, 1)
    rho = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        v = np.zeros(9)
        v[i * 3 + i] = 1.0
        rho += np.outer(v, v)
    ab = np.kron([0.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    rho += np.outer(ab, ab)
    return BipartiteState(HermitianOperator(BipartiteDims(3, 3), rho))


class TestContainers:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            BipartiteDims(0, 3)
        assert BipartiteDims(2, 5).total == 10
        assert BipartiteDims(2, 5).index(1, 3) == 8

    def test_hermitian_rejects_asymmetric(self, rng):
        x = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(BipartiteDims(2, 2), x + np.triu(np.ones((4, 4)), 1))

    def test_hermitian_symmetrizes_and_records(self):
        x = np.eye(4, dtype=complex)
        x[0, 1] = 1e-13
        op = HermitianOperator(BipartiteDims(2, 2), x)
        assert op.asymmetry == pytest.approx(1e-13)
        assert np.array_equal(op.entries, op.entries.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_hermitian_rejects_non_finite(self, bad):
        x = np.eye(4, dtype=complex)
        x[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            HermitianOperator(BipartiteDims(2, 2), x)

    def test_state_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, -1.0, 0, 0])))

    def test_block_factor_shape_checks(self):
        with pytest.raises(ValueError, match="disagree"):
            BlockFactor(BipartiteDims(2, 2), [np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(ValueError, match="expected 2 blocks"):
            BlockFactor(BipartiteDims(2, 2), [np.zeros((2, 2))])


class TestFromBlocks:
    def test_single_block_direct_product(self):
        factor = BlockFactor(BipartiteDims(1, 2), [np.array([[1.0, 0.0], [0.0, 0.0]])])
        state = from_blocks(factor)
        assert np.allclose(state.matrix, np.diag([1.0, 0.0]))

    def test_good_3x4_blocks_give_gamma_invariant_rank5(self):
        state = zoo.good_3x4()
        assert rank_profile(state).rank == 5
        assert np.abs(state.matrix - gamma_matrix(state)).max() == 0.0

    def test_bad_mxn_4x4_single_parameter(self):
        state = zoo.bad_mxn(4, 4, [1.0])
        prof = rank_profile(state)
        assert prof.rank == 6
        rho_a, _ = reduced_operators(state.op)
        assert rho_a[0, 0].real == pytest.approx(4 + 4 - 5)

    def test_rank_matches_stacked_matrix(self, rng):
        dims = BipartiteDims(3, 4)
        c = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        blocks = [c[:, 4 * i:4 * (i + 1)] for i in range(3)]
        state = from_blocks(BlockFactor(dims, blocks))
        assert rank_profile(state).rank == np.linalg.matrix_rank(c, tol=1e-9)

    def test_trace_equals_frobenius_mass(self, rng):
        dims = BipartiteDims(2, 3)
        blocks = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
                  for _ in range(2)]
        state = from_blocks(BlockFactor(dims, blocks))
        assert state.trace == pytest.approx(sum(np.linalg.norm(b) ** 2 for b in blocks))


class TestFactorBlocks:
    def test_rank_one_diagonal(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 0])))
        factor = factor_blocks(state, 1)
        row = np.hstack(factor.blocks)[0]
        assert np.allclose(np.abs(row), [1, 0, 0, 0])

    def test_round_trip(self):
        state = zoo.good_3x4()
        rebuilt = from_blocks(factor_blocks(state, 5))
        assert np.abs(rebuilt.matrix - state.matrix).max() < 1e-10

    def test_infeasible_rank(self, rng):
        state = random_state(BipartiteDims(3, 3), rng, rank=4)
        with pytest.raises(ValueError, match="below the numerical rank"):
            factor_blocks(state, 3)


class TestPartialTranspose:
    def test_product_state_invariant(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        op = HermitianOperator(BipartiteDims(2, 2), rho)
        assert np.array_equal(partial_transpose(op).entries, rho)

    def test_unnormalized_bell_projector_eigenvalues(self):
        # sum_{ij} |ii><jj| on 2x2; its partial transpose is the swap
        psi = np.zeros(4)
        psi[0] = psi[3] = 1.0
        op = HermitianOperator(BipartiteDims(2, 2), np.outer(psi, psi))
        eigs = np.linalg.eigvalsh(partial_transpose(op).entries)
        assert np.allclose(sorted(eigs), [-1.0, 1.0, 1.0, 1.0])

    def test_bad_separable_3x3_is_gamma_invariant(self):
        state = bad_separable_3x3()
        assert np.abs(gamma_matrix(state) - state.matrix).max() == 0.0

    def test_involution_exact(self, rng):
        for _ in range(100):
            op = random_hermitian(BipartiteDims(rng.integers(1, 4), rng.integers(1, 4)), rng)
            assert np.array_equal(partial_transpose(partial_transpose(op)).entries, op.entries)


class TestReducedOperators:
    def test_pure_product(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        ra, rb = reduced_operators(HermitianOperator(BipartiteDims(2, 2), rho))
        assert np.allclose(ra, np.diag([1.0, 0]))
        assert np.allclose(rb, np.diag([1.0, 0]))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_bad_3xn_reduced_a_matches_formula(self, n):
        ra, _ = reduced_operators(zoo.bad_3xn(n).op)
        expect = np.array([[n - 2, -1, 0], [-1, 2 * n - 4, 2 * n - 7],
                           [0, 2 * n - 7, 2 * n + 1]], dtype=float)
        assert np.array_equal(ra.real, expect)
        assert np.abs(ra.imag).max() == 0.0

    def test_bad_3x4_reduced_a_exact(self):
        # the n = 4 base of the family: the corner is ||C2||^2, with 2(n-3)
        # path entries, 3 in rows n-2 and n-1, and one last-row entry per
        # column n-4, n-2, n-1; column n-5 does not exist, so 2n = 8, not 2n+1
        ra, _ = reduced_operators(zoo.bad_3xn(4).op)
        expect = np.array([[2, -1, 0], [-1, 4, 1], [0, 1, 8]], dtype=float)
        assert np.array_equal(ra.real, expect)

    def test_gentiles2_3x5_reduced_a_is_scaled_circulant(self):
        state = zoo.upb_complement_state(zoo.gentiles2_upb(3, 5))
        ra, _ = reduced_operators(state.op)
        expect = zoo.circulant_matrix([10.0, 1.0, 1.0]) / 6.0
        assert np.abs(ra - expect).max() < 1e-12

    def test_partial_trace_identities_exact(self, rng):
        for _ in range(100):
            dims = BipartiteDims(rng.integers(2, 4), rng.integers(2, 4))
            op = random_hermitian(dims, rng)
            ra, rb = reduced_operators(op)
            ga, gb = reduced_operators(partial_transpose(op))
            assert np.array_equal(gb, rb)
            assert np.array_equal(ga, ra.T)
            assert np.trace(ra) == pytest.approx(np.trace(op.entries), rel=1e-12)
            assert np.trace(rb) == pytest.approx(np.trace(op.entries), rel=1e-12)


class TestRankProfile:
    def test_werner_birank(self):
        assert rank_profile(werner_2x2()).birank == (3, 4)

    def test_separable_3x3_birank_4_5(self):
        rho = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            v = np.zeros(9)
            v[i * 3 + i] = 1.0
            rho += 2.0 * np.outer(v, v)
        w = np.zeros(9)
        w[1] = w[3] = 1.0
        rho += np.outer(w, w)
        state = BipartiteState(HermitianOperator(BipartiteDims(3, 3), rho))
        assert rank_profile(state).birank == (4, 5)

    def test_good_3x4_profile(self):
        prof = rank_profile(zoo.good_3x4())
        assert (prof.rank, prof.rank_gamma, prof.rank_a, prof.rank_b) == (5, 5, 3, 4)

    def test_gaps_reported(self, rng):
        prof = rank_profile(random_state(BipartiteDims(2, 2), rng, rank=2))
        assert prof.singular_gaps[0] < 1e-12   # clean rank decision


class TestIsPpt:
    def test_separable_diagonal(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 1.0])))
        verdict, _ = is_ppt(state)
        assert verdict

    def test_maximally_entangled_pure(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1.0 / np.sqrt(2)
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.outer(psi, psi)))
        verdict, min_eig = is_ppt(state)
        assert not verdict
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("state_fn", [
        zoo.good_3x4,
        lambda: zoo.good_3xn(5),
        lambda: zoo.bad_3xn(5),
        lambda: zoo.bad_mxn(4, 5),
    ])
    def test_gamma_invariant_zoo_states(self, state_fn):
        verdict, min_eig = is_ppt(state_fn())
        assert verdict
        assert min_eig >= -1e-12


class TestKernelRange:
    def test_pure_product_kernel(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), rho))
        kern = kernel_basis(state)
        assert kern.dim == 3
        for idx in (1, 2, 3):
            v = np.zeros(4)
            v[idx] = 1.0
            assert kern.project_residual(v) < 1e-12

    def test_kernel_plus_range_dimensions(self, rng):
        state = random_state(BipartiteDims(2, 3), rng, rank=4)
        kern, rng_b = kernel_basis(state), range_basis(state)
        assert kern.dim + rng_b.dim == 6
        for v in kern.vectors:
            assert np.linalg.norm(state.matrix @ v) < 1e-9

    def test_kon_mnogo_kernel_is_span_of_listed_matrices(self):
        state, points = zoo.kon_mnogo()
        kern = kernel_basis(state)
        assert kern.dim == 7
        for pv in points[:7]:
            assert kern.project_residual(pv.vec()) < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_good_family_kernel_dimension(self, n):
        assert kernel_basis(zoo.good_3xn(n)).dim == 3 * n - (n + 1)

    def test_local_vector_never_annihilated(self, rng):
        # an m x n state with full local ranks has <a|rho|a> nonzero
        for state in (zoo.good_3x4(), zoo.bad_mxn(4, 5)):
            m, n = state.dims.m, state.dims.n
            t = state.matrix.reshape(m, n, m, n)
            for _ in range(20):
                a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                block = np.einsum('i,injm,j->nm', a.conj(), t, a)
                assert np.linalg.norm(block) > 1e-8


class TestNormalization:
    def test_normalized_trace_one(self):
        state = normalized(zoo.good_3x4())
        assert state.trace == pytest.approx(1.0)


class TestFileFormat:
    def test_dense_round_trip(self, tmp_path, rng):
        state = random_state(BipartiteDims(2, 3), rng, rank=3)
        path = tmp_path / "state.json"
        save_state(state, path)
        again = load_state(path)
        assert np.abs(again.matrix - state.matrix).max() < 1e-15
        assert (again.dims.m, again.dims.n) == (2, 3)

    def test_factor_round_trip(self, tmp_path):
        state = zoo.good_3x4()
        path = tmp_path / "factor.json"
        save_factor(factor_blocks(state, 5), path)
        again = load_state(path)
        assert np.abs(again.matrix - state.matrix).max() < 1e-10

    def test_malformed_files(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"m": 2, "n": 2}))
        with pytest.raises(ValueError, match="neither"):
            load_state(p)
        p.write_text(json.dumps({"m": 2, "n": 2, "matrix": [[1, 2], [3, 4]]}))
        with pytest.raises(ValueError):
            load_state(p)

    def test_ragged_rows_named(self, tmp_path):
        rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        rows[3].append([0.0, 0.0])
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"m": 2, "n": 2, "matrix": rows}))
        with pytest.raises(ValueError, match=r"matrix is ragged: row 3 has 5 entries, "
                                             r"expected 4"):
            load_state(p)
        blocks = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
                  [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]
        p.write_text(json.dumps({"m": 2, "n": 2, "blocks": blocks}))
        with pytest.raises(ValueError, match=r"block 0 is ragged: row 1 has 1 entries, "
                                             r"expected 2"):
            load_state(p)

    def test_entry_not_a_pair_named(self, tmp_path):
        rows = [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"m": 1, "n": 2, "matrix": rows}))
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is \[0.0\]"):
            load_state(p)

    @pytest.mark.parametrize("token", ["1e400", "NaN"])
    def test_non_finite_entries_rejected(self, tmp_path, token):
        # JSON reads 1e400 as inf; dense and factored files are both refused
        rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        text = json.dumps({"m": 2, "n": 2, "matrix": rows})
        p = tmp_path / "state.json"
        p.write_text(text.replace("[1.0, 0.0]", f"[{token}, 0.0]", 1))
        with pytest.raises(ValueError, match="non-finite"):
            load_state(p)
        blocks = [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [float(token), 0.0]]]]
        p.write_text(json.dumps({"m": 2, "n": 2, "blocks": blocks}))
        with pytest.raises(ValueError, match="non-finite"):
            load_state(p)
