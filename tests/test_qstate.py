import itertools
import json
import re
import warnings

import numpy as np
import pytest

from pptlab import zoo
from pptlab.certify import NULLITY_CUTOFF, extremality_nullity
from pptlab.qstate import (
    PSD_TOL,
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    BlockFactor,
    HermitianOperator,
    complex_pairs,
    from_blocks,
    factor_blocks,
    gamma_matrix,
    is_ppt,
    kernel_basis,
    load_state,
    null_space,
    partial_transpose,
    range_basis,
    rank_profile,
    reduced_operators,
    save_state,
)
from conftest import random_hermitian, random_state
from oracles import tiles_upb_3x3


def save_factor(factor: BlockFactor, path) -> None:
    """Write `factor` as a factored state file, the form `load_state` reads."""
    payload = {"m": factor.dims.m, "n": factor.dims.n, "r": factor.r_rows,
               "blocks": [complex_pairs(b) for b in factor.blocks]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-13])
    def test_hermitian_bound_is_relative_to_the_largest_entry(self, scale):
        # an asymmetry of half the largest entry is refused at any scale,
        # and one of 1e-13 of it accepted
        x = np.diag([2.0, 2.0, 2.0, 2.0])
        x[0, 1] = 1.0
        with pytest.raises(ValueError, match=r"exceeds 1\.0e-12 times the largest entry"):
            HermitianOperator(BipartiteDims(2, 2), scale * x)
        x[0, 1] = 2e-13
        op = HermitianOperator(BipartiteDims(2, 2), scale * x)
        assert op.asymmetry == pytest.approx(2e-13 * scale)
        assert np.array_equal(op.entries, op.entries.conj().T)

    def test_hermitian_accepts_the_zero_matrix(self):
        op = HermitianOperator(BipartiteDims(2, 2), np.zeros((4, 4)))
        assert op.asymmetry == 0.0

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

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.0, 2.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rank_tol", "psd_tol"])
    def test_state_refuses_a_cut_outside_0_1(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a tolerance 0 < t < 1"):
            BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4)), **{name: value})

    def test_gamma_swaps_the_decompositions_and_keeps_the_cuts(self):
        state = BipartiteState(zoo.good_3x4().op, rank_tol=1e-7, psd_tol=1e-6)
        gamma = state.gamma()
        assert np.array_equal(gamma.matrix, gamma_matrix(state))
        assert gamma.eigh() is state.eigh(gamma=True) and gamma.eigh(gamma=True) is state.eigh()
        assert (gamma.rank_tol, gamma.psd_tol, gamma.trace) == (1e-7, 1e-6, state.trace)

    def test_gamma_refuses_an_npt_state(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0])
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.outer(bell, bell)))
        with pytest.raises(ValueError, match="partial transpose is not PSD"):
            state.gamma()

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

    def test_negative_eigenvalue_kept_by_the_cut(self, rng):
        # psd_tol 1e-6 admits -1e-7 of the top eigenvalue, which the rank
        # cut at RANK_TOL keeps; it has no real square root
        u = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))[0]
        w = np.array([1.0, 0.5, 0.25, -1e-7, 0, 0, 0, 0, 0])
        state = BipartiteState(HermitianOperator(BipartiteDims(3, 3), u @ np.diag(w) @ u.conj().T),
                               psd_tol=1e-6)
        with pytest.raises(ValueError, match=r"eigenvalue -1\.000e-07 is kept"):
            factor_blocks(state, 9)


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


def near_cut_state(seed: int, cut: float = RANK_TOL) -> BipartiteState:
    """A 3 x 4 state with rank cut `cut`, k in [1, 10] eigenvalues in
    [0.5, 1] (the top one 1), one at cut (1 + delta), |delta| <= 1e-6, and
    the rest zero, drawn from default_rng(seed).  The eigenbasis is a
    random unitary for even seeds and a random local unitary U_A (x) U_B
    for odd ones, which makes rho^Gamma's spectrum rho's, so that both sit
    at the cut."""
    rng = np.random.default_rng(seed)

    def unitary(k):
        return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]

    k = int(rng.integers(1, 11))
    w = np.zeros(12)
    w[:k] = rng.uniform(0.5, 1.0, k)
    w[0] = 1.0
    w[k] = cut * (1 + rng.uniform(-1e-6, 1e-6))
    u = np.kron(unitary(3), unitary(4)) if seed % 2 else unitary(12)
    return BipartiteState(HermitianOperator(BipartiteDims(3, 4), u @ np.diag(w) @ u.conj().T),
                          rank_tol=cut)


class TestOneRankCut:
    """Rank, kernel, range and the extremality map are decided by one cut,
    so they agree even with an eigenvalue at the cut itself, at the default
    cut and at a state bound to 1e-7."""

    def test_rank_kernel_and_range_agree_at_the_cut(self):
        disagree, gamma_checked = [], {}
        for cut, seed in itertools.product((RANK_TOL, 1e-7), range(200)):
            state = near_cut_state(seed, cut)
            prof = rank_profile(state)
            if not prof.rank == range_basis(state).dim == 12 - kernel_basis(state).dim:
                disagree.append((cut, seed, "rho"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")      # most even draws are NPT
                cert = extremality_nullity(state)
            # the map has r^2 units: the nullity plus the kept singular values
            if cert.nullity + int(np.sum(cert.singular_spectrum > NULLITY_CUTOFF)) != prof.rank ** 2:
                disagree.append((cut, seed, "extremality"))
            if is_ppt(state)[0]:
                gamma_checked[cut] = gamma_checked.get(cut, 0) + 1
                gamma = BipartiteState(HermitianOperator(state.dims, gamma_matrix(state)),
                                       rank_tol=cut)
                if not prof.rank_gamma == range_basis(gamma).dim == 12 - kernel_basis(gamma).dim:
                    disagree.append((cut, seed, "rho^Gamma"))
        assert min(gamma_checked.values()) >= 100 and len(gamma_checked) == 2
        assert not disagree

def zoo_states() -> dict:
    states = {"good_3x4": zoo.good_3x4(), "kon_mnogo": zoo.kon_mnogo()[0],
              "bad_3x4": zoo.bad_3x4(), "tiles_3x3": zoo.upb_complement_state(tiles_upb_3x3())}
    for m, n in [(3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]:
        states[f"gentiles2_{m}x{n}"] = zoo.upb_complement_state(zoo.gentiles2_upb(m, n))
    for n in range(4, 9):
        states[f"good_3x{n}"] = zoo.good_3xn(n)
        states[f"bad_3x{n}"] = zoo.bad_3xn(n)
    for m in range(4, 11):
        for n in range(m, 15 - m):
            states[f"bad_{m}x{n}"] = zoo.bad_mxn(m, n)
    return states


ZOO = zoo_states()


class TestNullSpace:
    """The numpy null space equals scipy.linalg.null_space bit for bit and
    in memory layout.  No report depends on that layout: a C-ordered basis
    leaves the analyze reports of good_3x4, kon_mnogo, bad_3x4, bad_mxn(4, 5)
    and the 3x4 gentiles2 UPB complement byte-identical."""

    @pytest.mark.parametrize("label", sorted(ZOO))
    def test_zoo_kernel_and_range(self, label):
        linalg = pytest.importorskip("scipy.linalg")
        # segre.membership_stack passes the basis rows as they are
        for basis in (kernel_basis(ZOO[label]), range_basis(ZOO[label])):
            for x in (basis.vectors, basis.vectors.conj()):
                got, ref = null_space(x), linalg.null_space(x)
                assert np.array_equal(got, ref) and got.strides == ref.strides

    def test_random_matrices(self, rng):
        linalg = pytest.importorskip("scipy.linalg")
        for i in range(60):
            r, c = rng.integers(1, 25, size=2)
            x = rng.standard_normal((r, c)) + (1j * rng.standard_normal((r, c)) if i % 2 else 0)
            if i % 3 == 0 and r > 2:
                x[-1] = x[0] - 2 * x[1]         # rank deficient
            got, ref = null_space(x), linalg.null_space(x)
            assert np.array_equal(got, ref) and got.strides == ref.strides
            assert np.abs(x @ got).max(initial=0.0) <= 1e-12 * np.abs(x).max() * max(r, c)


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

    def test_factored_file_keeps_its_cuts(self, tmp_path, monkeypatch):
        # the file is admitted at the cuts given, from one eigendecomposition
        path = tmp_path / "factor.json"
        save_factor(factor_blocks(zoo.good_3x4(), 6), path)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        state = load_state(path, rank_tol=1e-7)
        assert calls == [(12, 12)]
        assert (state.rank_tol, state.psd_tol) == (1e-7, PSD_TOL)
        assert rank_profile(state).rank == 5

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

    @pytest.mark.parametrize("key,value", [("m", 3.9), ("m", True), ("n", False), ("n", "2"),
                                           ("r", 7), ("r", True), ("r", "5"), ("r", 2.5),
                                           ("r", None)])
    def test_dimensions_must_be_integers(self, tmp_path, key, value):
        # int() would read 3.9 as 3 and true as 1; a factored file's "r" must
        # also equal the row count of its blocks, 5 here
        p = tmp_path / "state.json"
        if key == "r":
            save_factor(factor_blocks(zoo.good_3x4(), 5), p)
            payload = json.loads(p.read_text())
            expected = "field 'r' must be the integer 5, the blocks' row count, got "
        else:
            rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
            payload = {"m": 2, "n": 2, "matrix": rows}
            expected = f"field '{key}' must be an integer, got "
        payload[key] = value
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(expected + json.dumps(value))):
            load_state(p)

    def test_boolean_entries_refused(self, tmp_path):
        # JSON true is not the number 1, in dense and factored files alike
        rows = [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"m": 1, "n": 2, "matrix": rows}))
        with pytest.raises(ValueError, match=r"matrix entries .* entry \(0, 0\) is \[true, false\]"):
            load_state(p)
        blocks = [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, True]]]]
        p.write_text(json.dumps({"m": 2, "n": 2, "blocks": blocks}))
        with pytest.raises(ValueError, match=r"block 1 entries .* entry \(0, 1\) is \[0.0, true\]"):
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
