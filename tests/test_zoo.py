import math

import numpy as np
import pytest

from pptlab import zoo
from pptlab.qstate import (
    BipartiteDims,
    gamma_matrix,
    kernel_basis,
    rank_profile,
    reduced_operators,
)
from oracles import tiles_upb_3x3


class TestDelta:
    @pytest.mark.parametrize("m,n,expect", [(3, 3, 6), (3, 4, 10), (4, 4, 20), (2, 5, 5)])
    def test_values(self, m, n, expect):
        assert zoo.delta(m, n) == expect

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            zoo.delta(0, 3)

    def test_degree_identity_all_small_dims(self):
        for m in range(1, 9):
            for n in range(1, 9):
                for r in range(1, m + n - 1):
                    assert zoo.degree_identity_holds(m, n, r), (m, n, r)


class TestGenTiles2:
    @pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 5), (4, 6)])
    def test_count_and_orthonormality(self, m, n):
        upb = zoo.gentiles2_upb(m, n)
        assert len(upb) == m * n - 2 * m + 1
        vecs = np.array([pv.vec() for pv in upb.vectors])
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(len(upb))).max() < 1e-12

    def test_square_case_rejected_when_too_small(self):
        with pytest.raises(ValueError):
            zoo.gentiles2_upb(3, 3)
        with pytest.raises(ValueError):
            zoo.gentiles2_upb(4, 3)

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 5)])
    def test_complement_state(self, m, n):
        upb = zoo.gentiles2_upb(m, n)
        state = zoo.upb_complement_state(upb)
        prof = rank_profile(state)
        assert prof.rank == m * n - len(upb) == 2 * m - 1
        assert prof.rank_a == m
        assert prof.rank_b == m + 1
        for pv in upb.vectors:
            assert np.linalg.norm(state.matrix @ pv.vec()) < 1e-12

    def test_empty_basis_gives_identity(self):
        empty = zoo.UpbFamily(BipartiteDims(2, 2), [], family_name="none")
        state = zoo.upb_complement_state(empty)
        assert np.array_equal(state.matrix, np.eye(4))

    def test_gamma_invariance(self):
        state = zoo.upb_complement_state(zoo.gentiles2_upb(3, 5))
        assert np.abs(state.matrix - gamma_matrix(state)).max() < 1e-14

    def test_non_orthonormal_input_rejected(self):
        from pptlab.qstate import ProductVector
        pv = ProductVector([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="orthonormal"):
            zoo.UpbFamily(BipartiteDims(2, 2), [pv, pv], family_name="dup")

    def test_tiles_3x3_fixture(self):
        upb = tiles_upb_3x3()
        assert len(upb) == 5
        state = zoo.upb_complement_state(upb)
        assert rank_profile(state).rank == 4


class TestCirculant:
    def test_known_first_factor(self):
        row = [10.0, 1.0, 1.0]
        # the factor at the trivial root of unity is the row sum, 4m
        assert sum(row) == pytest.approx(12.0)
        dense = np.linalg.det(zoo.circulant_matrix(row))
        assert zoo.circulant_det(row) == pytest.approx(dense, rel=1e-10)

    def test_identity_row(self):
        assert zoo.circulant_det([1, 0, 0, 0, 0]) == pytest.approx(1.0)

    def test_random_row_matches_dense_lu(self, rng):
        row = rng.standard_normal(5)
        dense = np.linalg.det(zoo.circulant_matrix(row))
        assert zoo.circulant_det(row) == pytest.approx(dense, rel=1e-8)

    def test_complement_reduced_determinant(self):
        # det of the A-reduction of the tiles complement in closed form
        for m in (3, 4, 5):
            state = zoo.upb_complement_state(zoo.gentiles2_upb(m, m + 1))
            ra, _ = reduced_operators(state.op)
            expect = 2.0 * np.prod([2.0 + np.cos(2 * np.pi * k / m) for k in range(1, m)])
            assert np.linalg.det(ra).real == pytest.approx(expect, rel=1e-10)


class TestKonMnogo:
    def test_ranks_and_rank_one_members(self):
        state, points = zoo.kon_mnogo()
        prof = rank_profile(state)
        assert (prof.rank, prof.rank_a, prof.rank_b) == (5, 3, 4)
        assert len(points) == 10
        for pv in points:
            assert np.linalg.matrix_rank(pv.as_matrix(), tol=1e-10) == 1

    def test_first_three_a_factors_dependent(self):
        _, points = zoo.kon_mnogo()
        mat = np.array([points[i].a for i in range(3)])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 2

    def test_kernel_members(self):
        state, points = zoo.kon_mnogo()
        kern = kernel_basis(state)
        for pv in points:
            assert kern.project_residual(pv.vec()) < 1e-10


class TestGoodFamily:
    def test_fixed_3x4_instance(self):
        state = zoo.good_3x4()
        prof = rank_profile(state)
        assert prof.birank == (5, 5)
        assert np.abs(state.matrix - gamma_matrix(state)).max() == 0.0

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_birank_and_gamma_invariance(self, n):
        state = zoo.good_3xn(n)
        prof = rank_profile(state)
        assert prof.birank == (n + 1, n + 1)
        assert (prof.rank_a, prof.rank_b) == (3, n)
        assert np.abs(state.matrix - gamma_matrix(state)).max() < 1e-13

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="b_i"):
            zoo.good_3xn(5, [1.0, 2.0])          # square equal to one
        with pytest.raises(ValueError, match="distinct"):
            zoo.good_3xn(5, [2.0, -2.0])         # squares collide
        with pytest.raises(ValueError, match="parameters"):
            zoo.good_3xn(6, [2.0])               # wrong count
        with pytest.raises(ValueError):
            zoo.good_3xn(3)


class TestBadFamilies:
    def test_bad_3x4_defaults_equal_3xn_base(self):
        assert np.array_equal(zoo.bad_3x4().matrix, zoo.bad_3xn(4).matrix)

    def test_bad_3x4_nonzero_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            zoo.bad_3x4(a=0.0)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_bad_3xn_profile(self, n):
        state = zoo.bad_3xn(n)
        prof = rank_profile(state)
        assert prof.birank == (n + 1, n + 1)
        assert (prof.rank_a, prof.rank_b) == (3, n)
        assert np.abs(state.matrix - gamma_matrix(state)).max() == 0.0

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 4), (4, 6), (5, 5), (6, 7)])
    def test_bad_mxn_profile(self, m, n):
        state = zoo.bad_mxn(m, n)
        prof = rank_profile(state)
        assert prof.birank == (m + n - 2, m + n - 2)
        assert (prof.rank_a, prof.rank_b) == (m, n)
        assert np.abs(state.matrix - gamma_matrix(state)).max() == 0.0
        rho_a, _ = reduced_operators(state.op)
        assert rho_a[0, 0].real == m + n - 5

    def test_bad_mxn_kernel_plane(self, rng):
        for (m, n) in [(3, 4), (4, 5), (5, 6)]:
            state = zoo.bad_mxn(m, n)
            for _ in range(5):
                xi, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                vec = np.zeros(m * n, dtype=complex)
                vec[n - 2] = xi
                vec[n - 1] = eta
                vec /= np.linalg.norm(vec)
                assert np.linalg.norm(state.matrix @ vec) <= 1e-12

    def test_bad_mxn_parameter_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            zoo.bad_mxn(4, 4, [0.0])
        with pytest.raises(ValueError, match="distinct"):
            zoo.bad_mxn(5, 4, [1.0, 1.0])
        with pytest.raises(ValueError, match="needs"):
            zoo.bad_mxn(4, 4, [1.0, 2.0])
        with pytest.raises(ValueError):
            zoo.bad_mxn(2, 4)


class TestRegistry:
    def test_good_3xn_instance(self):
        state = zoo.FAMILIES["good-3xN"].build(3, 4, None)
        assert rank_profile(state).birank == (5, 5)
        assert np.abs(state.matrix - gamma_matrix(state)).max() < 1e-13

    def test_bad_3x4_default_equals_besk_niz_base(self):
        state = zoo.FAMILIES["bad-3x4"].build(3, 4, None)
        assert np.array_equal(state.matrix, zoo.bad_3xn(4).matrix)

    def test_bad_mxn_with_explicit_parameter(self):
        state = zoo.FAMILIES["bad-MxN"].build(4, 4, (1.0,))
        assert rank_profile(state).rank == 6
        rho_a, _ = reduced_operators(state.op)
        assert rho_a[0, 0].real == pytest.approx(3.0)

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="good-3xN states are 3xN"):
            zoo.check_shape("good-3xN", 4, 5)
        with pytest.raises(ValueError, match="bad-3x4 states are 3x4"):
            zoo.check_shape("bad-3x4", 3, 5)
        zoo.check_shape("bad-MxN", 5, 7)
        with pytest.raises(ValueError, match="7 parameters"):
            zoo.FAMILIES["bad-3x4"].build(3, 4, (1, 2))
