"""Acceptance suite: one test per published claim bundle, one PASS/FAIL line
per criterion (run with -s to see the lines), each with its stated time
budget and tolerances pinned in the assertions."""

import time

import numpy as np
import pytest

from pptlab import certify, segre, zoo
from pptlab.certify import Extremality, StrongExtremality
from pptlab.qstate import (
    BipartiteDims,
    BipartiteState,
    HermitianOperator,
    ProductVector,
    SubspaceBasis,
    gamma_matrix,
    is_ppt,
    kernel_basis,
    partial_transpose,
    range_basis,
    rank_profile,
    reduced_operators,
)
from pptlab.segre import (
    Classification,
    Goodness,
    ces_certificate,
    classify_goodness,
    enumerate_product_vectors,
    general_position,
    partial_conjugate,
    transversal,
)
from conftest import random_full_rank_ppt, random_hermitian
from oracles import pencil_roots_2xn, tiles_upb_3x3
from test_qstate import werner_2x2
from test_segre import match_sets, subspace_from_vectors


def _check(num, desc, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\ncriterion {num:2d} [{desc}]: FAIL after {time.perf_counter() - t0:.1f}s")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt <= budget else "FAIL (time budget)"
    print(f"\ncriterion {num:2d} [{desc}]: {verdict} in {dt:.1f}s (budget {budget:.0f}s)")
    assert dt <= budget, f"exceeded time budget: {dt:.1f}s > {budget}s"


def test_criterion_01_delta_and_identities():
    def body():
        assert zoo.delta(3, 3) == 6
        assert zoo.delta(3, 4) == 10
        for m in range(1, 9):
            for n in range(1, 9):
                for r in range(1, m + n - 1):
                    assert zoo.degree_identity_holds(m, n, r), (m, n, r)

    _check(1, "delta and degree identity", 1.0, body)


def test_criterion_02_ten_point_projector():
    def body():
        state, listed = zoo.kon_mnogo()
        prof = rank_profile(state)
        assert prof.rank == 5
        assert (prof.rank_a, prof.rank_b) == (3, 4)
        assert is_ppt(state)[0]
        for pv in listed:
            assert np.linalg.matrix_rank(pv.as_matrix(), tol=1e-10) == 1
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.FINITE
        assert res.count == 10
        assert match_sets(res.points, listed, tol=1e-6)
        assert not general_position(res.points, state.dims)

    _check(2, "ten-point projector state", 10.0, body)


def test_criterion_03_good_3x4():
    def body():
        state = zoo.good_3x4()
        assert np.abs(state.matrix - gamma_matrix(state)).max() <= 1e-14
        prof = rank_profile(state)
        assert prof.birank == (5, 5)
        ces, ces_res = ces_certificate(range_basis(state), state.dims)
        assert ces
        assert ces_res.evidence["starts_used"] >= 400
        assert ces_res.evidence["best_residual"] > 1e-4
        kern = kernel_basis(state)
        res = enumerate_product_vectors(kern, state.dims)
        assert res.classification == Classification.FINITE
        assert res.count == 10 == zoo.delta(3, 4)
        assert all(transversal(kern, pv, state.dims) for pv in res.points)
        assert general_position(res.points, state.dims)
        cert = certify.extremality_nullity(state)
        assert cert.nullity == 1
        assert cert.gap_ratio > 1e4
        strong = certify.strongly_extreme_by_theorem(
            state, classify_goodness(state, enumeration=res), cert)
        assert strong == StrongExtremality.YES

    _check(3, "rigid good 3x4 state", 30.0, body)


def test_criterion_04_good_3xn_family():
    def body():
        rng = np.random.default_rng(2024)
        for n in range(4, 9):
            for _ in range(5):
                while True:
                    b = rng.uniform(1.05, 4.0, size=n - 3)
                    sq = b ** 2
                    if np.all(np.abs(sq - 1.0) > 1e-2) and (
                            len(b) < 2
                            or np.min(np.abs(np.subtract.outer(sq, sq))
                                      [np.triu_indices(len(b), 1)]) > 1e-2):
                        break
                state = zoo.good_3xn(n, b)
                scale = np.abs(state.matrix).max()
                assert np.abs(state.matrix - gamma_matrix(state)).max() <= 1e-13 * scale
                assert rank_profile(state).birank == (n + 1, n + 1)
                verdict = classify_goodness(state)
                assert verdict.verdict == Goodness.GOOD, (n, b)
                assert verdict.count == n * (n + 1) // 2
                cert = certify.extremality_nullity(state)
                assert cert.verdict == Extremality.EXTREME, (n, b)

    _check(4, "good 3xN family, N=4..8, five draws each", 300.0, body)


def test_criterion_05_bad_3x4_family():
    def body():
        rng = np.random.default_rng(55)
        for _ in range(10):
            a, b, c, d, e = rng.uniform(0.3, 2.0, size=5) * rng.choice([-1, 1], size=5)
            f, g = rng.uniform(-1.0, 1.0, size=2)
            state = zoo.bad_3x4(a, b, c, d, e, f, g)
            scale = np.abs(state.matrix).max()
            assert np.abs(state.matrix - gamma_matrix(state)).max() <= 1e-13 * scale
            assert rank_profile(state).birank == (5, 5)
            ces, _ = ces_certificate(range_basis(state), state.dims)
            assert ces
            res = enumerate_product_vectors(kernel_basis(state), state.dims)
            assert res.classification == Classification.LIKELY_INFINITE
            hits = [ls for ls in res.evidence["line_subspaces"] if ls.side == "A"]
            chain = res.evidence["near_duplicate_chain"]
            assert hits or chain, "no continuum evidence found"
            if hits:
                e0 = np.zeros(3)
                e0[0] = 1.0
                best = max(hits, key=lambda ls: abs(np.vdot(ls.vector, e0)))
                assert abs(np.vdot(best.vector, e0)) > 1 - 1e-6
                for col in (2, 3):
                    v = np.zeros(4)
                    v[col] = 1.0
                    assert best.subspace.project_residual(v) < 1e-6
            cert = certify.extremality_nullity(state)
            assert cert.nullity == 1
            assert cert.verdict == Extremality.EXTREME

    _check(5, "bad 3x4 family, ten draws", 120.0, body)


def test_criterion_06_bad_3xn_sequence():
    def body():
        failures = []
        # the N=4 member is the documented bad_3x4 at its defaults
        assert np.array_equal(zoo.bad_3xn(4).matrix, zoo.bad_3x4().matrix)
        for n in range(4, 9):
            state = zoo.bad_3xn(n)
            rho_a, _ = reduced_operators(state.op)
            # corner = ||C2||^2 = 2(N-3) + 3 + #{N-5, N-4, N-2, N-1} columns;
            # column N-5 does not exist at N=4, so the last row has 3 entries
            corner = 2 * n + 1 if n >= 5 else 2 * n
            expect = np.array([[n - 2, -1, 0],
                               [-1, 2 * n - 4, 2 * n - 7],
                               [0, 2 * n - 7, corner]], dtype=float)
            if not np.array_equal(rho_a.real, expect) or np.abs(rho_a.imag).max() != 0:
                failures.append((n, "reduced A operator", rho_a.real.tolist()))
            if rank_profile(state).rank != n + 1:
                failures.append((n, "rank", rank_profile(state).rank))
            cert = certify.extremality_nullity(state)
            if cert.verdict != Extremality.EXTREME:
                failures.append((n, "extremality", cert.nullity))
        assert not failures, f"failures: {failures}"

    _check(6, "bad 3xN sequence, N=4..8", 60.0, body)


def test_criterion_07_bad_mxn_all_desk_scale():
    def body():
        rng = np.random.default_rng(9)
        pairs = [(m, n) for m in range(4, 11) for n in range(m, 15 - m)]
        assert pairs
        for m, n in pairs:
            state = zoo.bad_mxn(m, n)
            verdict, min_eig = is_ppt(state)
            assert verdict and min_eig >= -1e-12
            assert rank_profile(state).rank == m + n - 2
            rho_a, _ = reduced_operators(state.op)
            assert rho_a[0, 0].real == m + n - 5
            assert np.abs(rho_a[0, 0].imag) == 0.0
            for _ in range(3):
                xi, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                vec = np.zeros(m * n, dtype=complex)
                vec[n - 2] = xi
                vec[n - 1] = eta
                vec /= np.linalg.norm(vec)
                assert np.linalg.norm(state.matrix @ vec) <= 1e-12
            cert = certify.extremality_nullity(state)
            assert cert.nullity == 1, (m, n)
            assert cert.verdict == Extremality.EXTREME

    _check(7, "bad MxN family, 4 <= M <= N, M+N <= 14", 600.0, body)


def test_criterion_08_gentiles2():
    def body():
        for m, n in [(3, 4), (3, 5), (4, 5), (4, 6)]:
            upb = zoo.gentiles2_upb(m, n)
            vecs = np.array([pv.vec() for pv in upb.vectors])
            gram = vecs.conj() @ vecs.T
            assert np.abs(gram - np.eye(len(upb))).max() <= 1e-12
            state = zoo.upb_complement_state(upb)
            prof = rank_profile(state)
            assert prof.rank == m * n - (m * n - 2 * m + 1) == 2 * m - 1
            assert prof.rank_a == m
            assert n <= m or prof.rank_b == m + 1
            ces, _ = ces_certificate(range_basis(state), state.dims)
            assert ces, (m, n)

    _check(8, "tiles basis complements", 60.0, body)


def test_criterion_09_necessary_bound():
    def body():
        assert not certify.necessary_bound(6, 6, 2, 4)
        rng = np.random.default_rng(31)
        dims_cycle = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)]
        for k in range(20):
            dims = dims_cycle[k % 3]
            state = random_full_rank_ppt(dims, rng)
            prof = rank_profile(state)
            assert not certify.necessary_bound(prof.rank, prof.rank_gamma, dims.m, dims.n)
            cert = certify.extremality_nullity(state)
            assert cert.verdict == Extremality.NOT_EXTREME

    _check(9, "quadratic necessary bound", 30.0, body)


def test_criterion_10_property_suites():
    def body():
        rng = np.random.default_rng(77)
        not_extreme_seen = []

        # partial transpose involution and reduced identities, exact
        for _ in range(100):
            dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            op = random_hermitian(dims, rng)
            again = partial_transpose(partial_transpose(op))
            assert np.array_equal(again.entries, op.entries)
            ra, rb = reduced_operators(op)
            ga, gb = reduced_operators(partial_transpose(op))
            assert np.array_equal(gb, rb)
            assert np.array_equal(ga, ra.T)

        # two-route agreement for the 2 x n pencil oracle
        for k in range(50):
            n = 2 + k % 4
            dims = BipartiteDims(2, n)
            vecs = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
            kern = subspace_from_vectors(vecs, 2 * n)
            roots = pencil_roots_2xn(kern, dims)
            res = enumerate_product_vectors(kern, dims)
            assert res.classification == Classification.FINITE
            assert match_sets(roots, res.points, tol=1e-8), f"kernel {k}"

        # partial conjugation is a bijection between the kernel varieties of
        # a PPT state and of its partial transpose
        zoo_states = [
            zoo.kon_mnogo()[0],
            zoo.good_3x4(),
            zoo.good_3xn(5),
            zoo.upb_complement_state(tiles_upb_3x3()),
            zoo.bad_3xn(4),
            zoo.bad_mxn(4, 4),
            werner_2x2(),
        ]
        for state in zoo_states:
            assert is_ppt(state)[0]
            gamma_state = BipartiteState(HermitianOperator(state.dims, gamma_matrix(state)))
            res = enumerate_product_vectors(kernel_basis(state), state.dims)
            res_g = enumerate_product_vectors(kernel_basis(gamma_state), state.dims)
            assert res.classification == res_g.classification
            if res.classification == Classification.FINITE:
                partners = [partial_conjugate(pv) for pv in res.points]
                assert match_sets(partners, res_g.points)

        # witness reconstruction on every non-extreme verdict encountered
        not_extreme_seen.append(werner_2x2())
        not_extreme_seen.append(BipartiteState(
            HermitianOperator(BipartiteDims(2, 2), np.eye(4))))
        not_extreme_seen.append(BipartiteState(
            HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 1.0]))))
        for k in range(3):
            not_extreme_seen.append(random_full_rank_ppt(BipartiteDims(2, 3), rng))
        for state in not_extreme_seen:
            cert = certify.extremality_nullity(state)
            assert cert.verdict == Extremality.NOT_EXTREME
            rho1, rho2 = certify.witness_decomposition(state, cert)
            err = np.linalg.norm(rho1.matrix + rho2.matrix - 2 * state.matrix)
            assert err <= 1e-10 * np.linalg.norm(state.matrix)
            assert is_ppt(rho1)[0] and is_ppt(rho2)[0]

    _check(10, "property suites", 300.0, body)
