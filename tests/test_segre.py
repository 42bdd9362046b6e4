import itertools

import numpy as np
import pytest

from pptlab import segre, zoo
from pptlab.qstate import (
    MARGIN_FACTOR,
    RANK_TOL,
    BipartiteDims,
    BipartiteState,
    HermitianOperator,
    ProductVector,
    SubspaceBasis,
    is_ppt,
    kernel_basis,
    range_basis,
)
from pptlab.segre import (
    DEDUP_TOL,
    POLISH_TARGET,
    LineSubspace,
    Classification,
    Goodness,
    GoodnessReason,
    _alternate_batch,
    _distinct,
    _distinct_lines,
    _distinct_points,
    _PathTracker,
    _homotopy_roots,
    _membership_residuals,
    _polish_batch,
    _roots_on_subspace,
    _square_down,
    ces_certificate,
    classify_goodness,
    classify_separable_good,
    complement_stack,
    enumerate_product_vectors,
    find_line_subspaces,
    general_position,
    minor_system_roots,
    partial_conjugate,
    start_pairs,
    transversal,
)
from conftest import random_product_vector
from oracles import (BorderedTracker, ReferenceTracker, _plane_alternation, _PointPool,
                     alternate_by_inverse_iteration, pencil_roots_2xn, tiles_upb_3x3,
                     transversal_by_tangent_span)
from test_qstate import bad_separable_3x3, werner_2x2


def subspace_from_vectors(vectors, ambient):
    arr = np.asarray(vectors, dtype=complex).reshape(-1, ambient)
    q = np.linalg.qr(arr.T)[0][:, :arr.shape[0]]
    return SubspaceBasis(ambient, q.T, 1e-12)


def conic_subspace():
    """Sym^2(span{e0, e1}) plus two random vectors in C^3 (x) C^3: it holds
    the conic {a (x) a : a in span{e0, e1}}, a continuum without a product
    plane."""
    rng = np.random.default_rng(5)
    e = np.eye(3)
    sym = [np.kron(e[0], e[0]), np.kron(e[1], e[1]),
           np.kron(e[0], e[1]) + np.kron(e[1], e[0])]
    extra = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    return subspace_from_vectors(sym + list(extra), 9), BipartiteDims(3, 3)


def refuse_plane_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("find_line_subspaces called")

    monkeypatch.setattr(segre, "find_line_subspaces", no_search)


def match_sets(points_a, points_b, tol=1e-6):
    """One-to-one matching of two product vector lists under overlap."""
    if len(points_a) != len(points_b):
        return False
    used = set()
    for p in points_a:
        hit = None
        for j, q in enumerate(points_b):
            if j not in used and p.overlap(q) > 1 - tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


class TestProductVector:
    def test_canonical_phase(self):
        pv = ProductVector([1j, 1.0], [0.0, -2.0])
        assert pv.a[0].imag == pytest.approx(0.0)
        assert pv.a[0].real > 0
        assert pv.b[1].real > 0

    def test_vec_matches_kron(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pv = ProductVector(a, b)
        assert np.allclose(pv.vec(), np.kron(pv.a, pv.b))
        assert np.allclose(pv.as_matrix().ravel(), pv.vec())

    def test_partial_conjugate(self):
        real = ProductVector([1.0, 0.5], [1.0, 0.0])
        assert partial_conjugate(real).overlap(real) > 1 - 1e-12
        pv = ProductVector(np.array([1.0, 1j]) / np.sqrt(2), [1.0, 0.0])
        pc = partial_conjugate(pv)
        assert np.allclose(pc.a, np.array([1.0, -1j]) / np.sqrt(2))
        assert np.allclose(pc.b, [1.0, 0.0])


class TestEnumerate:
    def test_tiles_3x3_complement_has_six_points(self):
        state = zoo.upb_complement_state(tiles_upb_3x3())
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.FINITE
        assert res.count == 6
        assert res.evidence["route"] == "homotopy"
        assert res.evidence["paths"] == {"tracked": 6, "finished": 6, "accepted": 6, "on_plane": 0}

    def test_kon_mnogo_points_match_listed_matrices(self):
        state, points = zoo.kon_mnogo()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.FINITE
        assert res.count == 10
        assert match_sets(res.points, points)

    def test_bad_3x4_detects_product_plane(self, rng):
        state = zoo.bad_3x4(1.3, 0.7, -1.1, 0.9, 1.7, 0.4, -0.2)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.LIKELY_INFINITE
        sides = [ls for ls in res.evidence["line_subspaces"] if ls.side == "A"]
        assert sides
        hit = sides[0]
        e0 = np.zeros(3)
        e0[0] = 1.0
        assert abs(np.vdot(hit.vector, e0)) > 1 - 1e-8
        for col in (2, 3):
            basis_vec = np.zeros(4)
            basis_vec[col] = 1.0
            assert hit.subspace.project_residual(basis_vec) < 1e-8

    def test_empty_kernel(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4)))
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.EMPTY

    def test_full_space_is_infinite(self, monkeypatch):
        # R' = 0 is a dimension count like any other, with no plane search
        refuse_plane_search(monkeypatch)
        full = subspace_from_vectors(np.eye(4), 4)
        res = enumerate_product_vectors(full, BipartiteDims(2, 2))
        assert res.classification == Classification.LIKELY_INFINITE
        ev = res.evidence
        assert (ev["route"], ev["dimension_forces_positive_dimension"]) == ("dimension-count", True)
        assert ev["line_subspaces"] == [] and "trivial_full_space" not in ev

    def test_points_verify_against_independent_kernel(self):
        state = zoo.good_3x4()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        # reconstruct the kernel from scratch and re-check every point
        w, v = np.linalg.eigh(state.matrix)
        kern = SubspaceBasis(12, v[:, w <= 1e-9 * w[-1]].T, 1e-9)
        for pv, res_val in zip(res.points, res.residuals):
            assert kern.project_residual(pv.vec()) <= 1e-10
            assert res_val <= 1e-10
        # pairwise distinct under the dedup metric
        for i, p in enumerate(res.points):
            for q in res.points[i + 1:]:
                assert p.overlap(q) <= 1 - 1e-6

    def test_search_keeps_the_homotopy_roots(self, monkeypatch):
        # a lost path leaves nine roots and no count; a search round whose
        # polish accepts nothing must not throw the nine verified roots away
        import pptlab.segre as segre_mod
        original_roots, original_polish = segre_mod._homotopy_roots, segre_mod._polish_batch

        def lossy(wc):
            points, residuals, paths, planes = original_roots(wc)
            return points[:-1], residuals[:-1], paths, planes

        def round_accepts_nothing(wc, a, b, iters):
            a, b, res = original_polish(wc, a, b, iters)
            return (a, b, np.ones_like(res)) if a.shape[0] == 400 else (a, b, res)

        monkeypatch.setattr(segre_mod, "_homotopy_roots", lossy)
        monkeypatch.setattr(segre_mod, "_polish_batch", round_accepts_nothing)
        state = zoo.good_3x4()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.classification == Classification.INCONCLUSIVE
        assert res.count == 9
        assert res.evidence["route"] == "multistart"
        assert (res.evidence["starts_used"], res.evidence["rounds"]) == (400, 1)


class TestOracles:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pencil_oracle_matches_enumerator(self, n, rng):
        # a random n-dimensional subspace of C^2 (x) C^n has a square
        # membership system, so the enumerator takes the homotopy route
        dims = BipartiteDims(2, n)
        for _ in range(4):
            vecs = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
            kern = subspace_from_vectors(vecs, 2 * n)
            roots = pencil_roots_2xn(kern, dims)
            res = enumerate_product_vectors(kern, dims)
            assert res.classification == Classification.FINITE
            assert res.evidence["route"] == "homotopy"
            assert match_sets(roots, res.points, tol=1e-8)

    def test_minor_system_complete_for_good_3x5(self):
        pytest.importorskip("scipy.linalg")
        state = zoo.good_3xn(5)
        kern = kernel_basis(state)
        wc = complement_stack(kern, state.dims).conj()
        pool = []
        for a in minor_system_roots(kern, state.dims):
            f = np.einsum('i,rij->rj', a, wc)
            sv = np.linalg.svd(f, compute_uv=False)
            if sv[-1] < 1e-6:
                b = np.linalg.svd(f)[2][-1].conj()
                pv = ProductVector(a, b)
                if not any(pv.overlap(q) > 1 - 1e-6 for q in pool):
                    pool.append(pv)
        assert len(pool) >= 15
        res = enumerate_product_vectors(kern, state.dims)
        assert res.evidence["route"] == "homotopy"
        assert match_sets(pool, res.points)

    @pytest.mark.parametrize("state_fn", [
        zoo.good_3x4,
        lambda: zoo.kon_mnogo()[0],
        zoo.bad_3x4,
    ], ids=["good_3x4", "kon_mnogo", "bad_3x4"])
    def test_minor_system_agrees_ranges_are_empty(self, state_fn):
        # no determinantal candidate polishes onto a range the count proves empty
        pytest.importorskip("scipy.linalg")
        state = state_fn()
        rng_sub = range_basis(state)
        wc = complement_stack(rng_sub, state.dims).conj()
        a = np.array(minor_system_roots(rng_sub, state.dims))
        assert a.shape[0] > 0
        b = np.linalg.svd(np.einsum('si,rij->srj', a, wc))[2][:, -1, :].conj()
        _, _, res = _polish_batch(wc, a, b, 25)
        assert res.min() > 1e-10
        enum = enumerate_product_vectors(rng_sub, state.dims)
        assert enum.classification == Classification.EMPTY
        assert enum.evidence["route"] == "homotopy"

    def test_minor_system_rejects_large_m(self):
        state = zoo.bad_mxn(4, 4)
        with pytest.raises(ValueError):
            minor_system_roots(kernel_basis(state), state.dims)


class TestHomotopy:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_default_good_3xn_is_good(self, n):
        # the published parameters; n = 7 and 8 hold distinct roots closer
        # than 1e-3 in overlap, which the multistart route took for a continuum
        state = zoo.good_3xn(n)
        dlt = zoo.delta(3, n)
        verdict = classify_goodness(state)
        assert verdict.verdict == Goodness.GOOD
        assert verdict.reason == GoodnessReason.COUNT_EQUALS_DELTA
        assert verdict.count == dlt
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.evidence["route"] == "homotopy"
        assert res.evidence["paths"] == {"tracked": dlt, "finished": dlt, "accepted": dlt,
                                         "on_plane": 0}
        assert res.evidence["starts_used"] == 0
        assert all(res.evidence["transversal"])

    def test_points_follow_the_paths(self):
        # the report keeps the homotopy's path order, not an order of
        # residuals that are all rounding noise
        state = zoo.good_3x4()
        kern = kernel_basis(state)
        roots, _, _, _ = _homotopy_roots(complement_stack(kern, state.dims).conj())
        res = enumerate_product_vectors(kern, state.dims)
        assert res.classification == Classification.FINITE
        assert np.array_equal([pv.vec() for pv in res.points], [pv.vec() for pv in roots])

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 5), (5, 5)])
    def test_start_roots(self, m, n, rng):
        # one root of the linear-product start system per split of its
        # rows, the same numbers as one SVD per split
        tracker = _PathTracker(rng.standard_normal((m + n - 2, m, n)) + 0j)
        a, b = tracker.z[:, :m], tracker.z[:, m:]
        assert a.shape[0] == zoo.delta(m, n)
        assert np.max(np.abs((a @ tracker.x.T) * (b @ tracker.y.T))) < 1e-12
        splits = list(itertools.combinations(range(m + n - 2), m - 1))
        ref_a = np.array([np.linalg.svd(tracker.x[list(p)])[2][-1].conj() for p in splits])
        ref_b = np.array([np.linalg.svd(tracker.y[[r for r in range(m + n - 2) if r not in p]])
                          [2][-1].conj() for p in splits])
        assert np.array_equal(a, ref_a / (ref_a @ tracker.patch_a)[:, None])
        assert np.array_equal(b, ref_b / (ref_b @ tracker.patch_b)[:, None])

    def test_bad_3x5_kernel_not_certified(self):
        state = zoo.bad_3xn(5)
        kern = kernel_basis(state)
        wc = complement_stack(kern, state.dims).conj()
        assert wc.shape[0] == 3 + 5 - 2
        points, _, paths, _ = _homotopy_roots(wc)
        assert paths["tracked"] == zoo.delta(3, 5)
        assert paths["accepted"] < paths["tracked"]
        assert len(points) < zoo.delta(3, 5)
        res = enumerate_product_vectors(kern, state.dims)
        assert res.classification == Classification.LIKELY_INFINITE
        # the paths that do not finish end on the product plane, which
        # settles the kernel
        assert res.evidence["route"] == "homotopy"

    def test_dimension_count_forces_continuum(self, monkeypatch):
        # dim K^perp = 5 < m + n - 2 = 6: the kernel meets the Segre
        # variety in a positive-dimensional set, decided without a search
        refuse_plane_search(monkeypatch)
        state = zoo.upb_complement_state(zoo.gentiles2_upb(3, 5))
        kern = kernel_basis(state)
        assert complement_stack(kern, state.dims).shape[0] == 5
        res = enumerate_product_vectors(kern, state.dims)
        assert res.classification == Classification.LIKELY_INFINITE
        assert res.evidence["dimension_forces_positive_dimension"] is True
        assert res.evidence["route"] == "dimension-count"
        assert (res.evidence["paths"], res.evidence["starts_used"]) == (None, 0)
        assert res.evidence["line_subspaces"] == []


def factors(points):
    """The a and the b factors of a list of ProductVectors, as row arrays."""
    return np.array([pv.a for pv in points]), np.array([pv.b for pv in points])


def span_of_products(m, n, k, rng):
    """The span of k generic product vectors, with those vectors."""
    pvs = [random_product_vector(BipartiteDims(m, n), rng) for _ in range(k)]
    return subspace_from_vectors([pv.vec() for pv in pvs], m * n), pvs


def near_copy(wc, pv, rng):
    """pv with its a moved along a random direction orthogonal to a, to a
    full residual of about 4e-6."""
    d = rng.standard_normal(pv.a.size) + 1j * rng.standard_normal(pv.a.size)
    d -= np.vdot(pv.a, d) * pv.a
    d *= 1e-6 / _membership_residuals(wc, (pv.a + 1e-6 * d)[None, :], pv.b[None, :])[0]
    return ProductVector(pv.a + 4e-6 * d, pv.b)


def turned(v, d, overlap):
    """The unit vector at |<v, .>| = overlap from unit v, toward the unit
    direction d orthogonal to v."""
    return overlap * v + np.sqrt(1 - overlap ** 2) * d


def dedup_candidates(rng, dim_a, dim_b):
    """Seeded candidate rows (a, b, residual) for a dedup: six classes with
    exact copies, near copies at overlap 1 - DEDUP_TOL/2 (they join) and
    1 - 2 DEDUP_TOL (they stay apart), later copies with a lower residual,
    and a chain that joins a class only through its new representative."""
    def unit(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return v / np.linalg.norm(v)

    def orthogonal(v):
        d = unit(v.size)
        d -= np.vdot(v, d) * v
        return d / np.linalg.norm(d)

    rows = [(unit(dim_a), unit(dim_b), r) for r in rng.uniform(1e-13, 1e-11, 6)]
    tail = []
    for a, b, r in rows[:3]:
        tail.append((a.copy(), b.copy(), r * 2))
        tail.append((a * np.exp(1j * rng.uniform(0, 6)), b, r * 0.5))
    for a, b, r in rows[3:]:
        d = orthogonal(a)
        tail.append((turned(a, d, 1 - DEDUP_TOL / 2), b, r * 3))
        tail.append((turned(a, d, 1 - 2 * DEDUP_TOL), b, r))
    a, b, r = rows[0]
    d = orthogonal(a)
    # one turn joins and takes over the class; two turns are 1 - 2 DEDUP_TOL
    # from the first representative and join only through the second
    tail.append((turned(a, d, 1 - DEDUP_TOL / 2), b, r / 100))
    tail.append((turned(a, d, 2 * (1 - DEDUP_TOL / 2) ** 2 - 1), b, r))
    order = rng.permutation(len(tail))
    return rows + [tail[i] for i in order]


def pool_order(cands, res):
    """The kept candidates, in order, of the sequential reference pool."""
    pool = _PointPool()
    for pv, r in zip(cands, res):
        pool.add(pv, r)
    return pool.points, pool.residuals


class TestDistinct:
    """`_distinct` keeps the representatives of the sequential reference
    pool, in its order, for points and for planes of either side."""

    @pytest.mark.parametrize("seed", range(6))
    def test_points_match_the_sequential_pool(self, seed):
        rows = dedup_candidates(np.random.default_rng(seed), 3, 4)
        cands = [ProductVector(a, b) for a, b, _ in rows]
        res = [r for _, _, r in rows]
        keep = _distinct(*factors(cands), res)
        ref, ref_res = pool_order(cands, res)
        assert 6 <= len(keep) < len(cands)
        assert len(keep) == len(ref) and all(cands[i] is pv for i, pv in zip(keep, ref))
        assert _distinct_points(cands, res) == ([cands[i] for i in keep], ref_res)

    @pytest.mark.parametrize("seed", range(3))
    def test_planes_match_the_sequential_pool_per_side(self, seed):
        rng = np.random.default_rng(seed)
        for side, dim, dim_sub in (("A", 3, 4), ("B", 4, 3)):
            rows = dedup_candidates(rng, dim, 1)
            planes = [LineSubspace(side, a, SubspaceBasis(dim_sub, np.eye(dim_sub)[:2], 1e-10), r)
                      for a, _, r in rows]
            as_points = [ProductVector(ls.vector, [1.0]) for ls in planes]
            ref, _ = pool_order(as_points, [ls.residual for ls in planes])
            kept = _distinct_lines(planes)
            assert 6 <= len(kept) < len(planes)
            want = [planes[as_points.index(pv)] for pv in ref]
            assert len(kept) == len(want) and all(x is y for x, y in zip(kept, want))

    def test_no_rows(self):
        assert _distinct(np.zeros((0, 3)), np.zeros((0, 4)), []).tolist() == []
        assert _distinct_points([], []) == ([], [])
        assert _distinct_lines([]) == []


class TestSquareDown:
    @pytest.mark.parametrize("state_fn", [
        zoo.good_3x4,
        lambda: zoo.kon_mnogo()[0],
        lambda: zoo.upb_complement_state(zoo.gentiles2_upb(3, 4)),
        zoo.bad_3x4,
        lambda: zoo.bad_mxn(4, 5),
    ], ids=["good_3x4", "kon_mnogo", "gentiles2_3x4", "bad_3x4", "bad_4x5"])
    def test_zoo_ranges_empty_by_count(self, state_fn):
        state = state_fn()
        dims = state.dims
        dlt = zoo.delta(dims.m, dims.n)
        n0 = max(400, 4 * dlt)
        ces, res = ces_certificate(range_basis(state), dims)
        assert ces
        assert res.classification == Classification.EMPTY
        assert res.evidence["route"] == "homotopy"
        assert res.evidence["paths"] == {"tracked": dlt, "finished": dlt, "accepted": dlt,
                                         "on_plane": 0}
        # one cross-check round, no doubling ladder
        assert res.evidence["starts_used"] == n0
        assert res.evidence["rounds"] == 1
        assert res.evidence["best_residual"] > 1e-4

    @pytest.mark.parametrize("m,n,k", [(3, 4, 4), (3, 5, 5), (4, 4, 5), (2, 5, 3)])
    def test_product_spans_are_never_empty(self, m, n, k, rng):
        # the roots of the squared-down system that lie on the subspace are
        # exactly the k product vectors; a Gauss-Newton polish on the full
        # system would also pull off-subspace endpoints onto them
        dims = BipartiteDims(m, n)
        sub, pvs = span_of_products(m, n, k, rng)
        wc = complement_stack(sub, dims).conj()
        assert wc.shape[0] > m + n - 2
        points, _, paths, _ = _homotopy_roots(wc)
        assert paths["tracked"] == zoo.delta(m, n)
        full = _membership_residuals(wc, *factors(points))
        on_subspace = [pv for pv, r in zip(points, full) if r <= np.sqrt(1e-10)]
        assert match_sets(on_subspace, pvs)
        n0 = max(400, 4 * zoo.delta(m, n))
        res = enumerate_product_vectors(sub, dims)
        # the count settles the set, and one cross-check round agrees
        assert res.classification == Classification.FINITE
        assert res.evidence["route"] == "homotopy"
        assert match_sets(res.points, pvs)
        assert res.evidence["starts_used"] == n0
        assert res.evidence["rounds"] == 1

    def test_a_near_root_off_the_subspace_leaves_the_count(self, rng):
        # a root whose full residual passes the sqrt(RESIDUAL_TOL) pre-filter
        # but which polishes onto a kept root is off K and is dropped; the
        # count of the true product vectors stands
        dims = BipartiteDims(3, 4)
        sub, pvs = span_of_products(3, 4, 4, rng)
        wc = complement_stack(sub, dims).conj()
        points, _, paths, _ = _homotopy_roots(wc)
        assert len(points) == paths["accepted"] == zoo.delta(3, 4)
        pv = next(p for p, r in zip(points, _membership_residuals(wc, *factors(points))) if r < 1e-12)
        moved = near_copy(wc, pv, rng)
        assert 3e-6 < _membership_residuals(wc, *factors([moved]))[0] < 5e-6
        kept, _, best = _roots_on_subspace(wc, points + [moved])
        assert match_sets(kept, pvs)
        assert best <= 1e-10

    def test_a_near_root_without_a_count_is_polished_onto_the_subspace(self, rng, monkeypatch):
        # the homotopy loses a path to a root off K, which leaves no count,
        # and returns a true root of K only 4e-6 off it: the near root is
        # still polished onto K, and a round that accepts nothing leaves the
        # four points
        dims = BipartiteDims(3, 4)
        sub, pvs = span_of_products(3, 4, 4, rng)
        wc = complement_stack(sub, dims).conj()
        points, residuals, paths, planes = _homotopy_roots(wc)
        full = _membership_residuals(wc, *factors(points))
        pv = next(p for p, r in zip(points, full) if r < 1e-12)
        off = next(p for p, r in zip(points, full) if r > 1e-5)
        moved = near_copy(wc, pv, rng)
        assert 3e-6 < _membership_residuals(wc, *factors([moved]))[0] < 5e-6
        lossy = [moved if p is pv else p for p in points if p is not off]
        assert len(lossy) == zoo.delta(3, 4) - 1
        original_polish = segre._polish_batch

        def round_accepts_nothing(wc, a, b, iters):
            a, b, res = original_polish(wc, a, b, iters)
            return (a, b, np.ones_like(res)) if a.shape[0] == 400 else (a, b, res)

        monkeypatch.setattr(segre, "_homotopy_roots",
                            lambda wc: (lossy, residuals[:len(lossy)], paths, planes))
        monkeypatch.setattr(segre, "_polish_batch", round_accepts_nothing)
        res = enumerate_product_vectors(sub, dims)
        assert match_sets(res.points, pvs)
        assert max(res.residuals) <= 1e-10
        assert (res.classification, res.evidence["route"]) == (Classification.INCONCLUSIVE,
                                                                "multistart")

    def test_best_residual_counts_the_alternation(self, monkeypatch):
        # the polish can raise a start's residual; the round's best residual
        # is the smallest one it reached
        import pptlab.segre as segre_mod
        original = segre_mod._alternate_batch
        reached = []

        def recording(*args):
            a, b, settled, res = original(*args)
            reached.append(float(res.min()))
            return a, b, settled, res

        monkeypatch.setattr(segre_mod, "_alternate_batch", recording)
        state = zoo.good_3x4()
        _, res = ces_certificate(range_basis(state), state.dims)
        assert len(reached) == 1
        assert res.evidence["best_residual"] <= reached[0]

    def test_square_systems_are_not_mixed(self):
        state = zoo.good_3x4()
        wc = complement_stack(kernel_basis(state), state.dims).conj()
        assert _square_down(wc) is wc

    def test_mixing_never_raises_the_residual(self, rng):
        sub, _ = span_of_products(3, 4, 3, rng)
        wc = complement_stack(sub, BipartiteDims(3, 4)).conj()
        wsq = _square_down(wc)
        assert wsq.shape == (5, 3, 4)
        pvs = [random_product_vector(BipartiteDims(3, 4), rng) for _ in range(8)]
        assert np.all(_membership_residuals(wsq, *factors(pvs)) <= _membership_residuals(wc, *factors(pvs)) + 1e-14)

    def test_cross_check_overrules_a_wrong_count(self, rng, monkeypatch):
        # pretend every endpoint is off the subspace: the multistart round
        # finds the product vectors, so the count is not trusted
        import pptlab.segre as segre_mod
        dims = BipartiteDims(3, 4)
        sub, pvs = span_of_products(3, 4, 4, rng)
        claims = []
        original = segre_mod._roots_on_subspace

        def off_subspace(wc, points):
            claims.append(len(points))
            return original(wc, [])

        monkeypatch.setattr(segre_mod, "_roots_on_subspace", off_subspace)
        res = enumerate_product_vectors(sub, dims)
        assert claims == [zoo.delta(3, 4)]
        assert res.classification != Classification.EMPTY
        assert res.evidence["route"] == "multistart"
        assert res.evidence["rounds"] == 1
        assert match_sets(res.points, pvs)


def alternate_by_svd(wc, a, b, iters):
    """The alternation that takes the least right singular vectors of F(a)
    and G(b) exactly, by SVD."""
    for _ in range(iters):
        f = np.einsum('si,rij->srj', a, wc)
        b = np.linalg.svd(f)[2][:, -1, :].conj()
        g = np.einsum('rij,sj->sri', wc, b)
        a = np.linalg.svd(g)[2][:, -1, :].conj()
    f = np.einsum('si,rij->srj', a, wc)
    return a, b, np.linalg.norm(np.einsum('srj,sj->sr', f, b), axis=1)


def good_3x4_range_stack():
    state = zoo.good_3x4()
    return complement_stack(range_basis(state), state.dims).conj()


class SolveRecorder:
    """Stands in for np.linalg.solve and records the batch size of every call."""

    def __init__(self, monkeypatch):
        self.solve, self.rows = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", self)

    def __call__(self, x, *args, **kwargs):
        self.rows.append(np.shape(x)[0])
        return self.solve(x, *args, **kwargs)


class TestStartPairs:
    def test_deterministic(self):
        a0, b0 = start_pairs(400, 4, 5)
        a1, b1 = start_pairs(400, 4, 5)
        assert np.array_equal(a0, a1) and np.array_equal(b0, b1)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 4), (4, 5), (8, 8)])
    @pytest.mark.parametrize("count", [0, 1, 400])
    def test_unit_rows(self, count, m, n):
        a, b = start_pairs(count, m, n)
        assert a.shape == (count, m) and b.shape == (count, n)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 64, 128, 399])
    def test_prefix_stable(self, k):
        a, b = start_pairs(400, 3, 4)
        ak, bk = start_pairs(k, 3, 4)
        assert np.array_equal(a[:k], ak) and np.array_equal(b[:k], bk)

    def test_chunked_round_equals_one_batch(self, monkeypatch):
        # the round draws its 400 starts once and slices them into
        # _BATCH_CAP chunks: at a cap of 128 they run as 128+128+128+16
        state = zoo.good_3x4()
        rng_basis = range_basis(state)
        whole = enumerate_product_vectors(rng_basis, state.dims)
        chunks = []

        def recording(wc, a, b):
            chunks.append((a, b))
            return _alternate_batch(wc, a, b)

        monkeypatch.setattr(segre, "_BATCH_CAP", 128)
        monkeypatch.setattr(segre, "_alternate_batch", recording)
        chunked = enumerate_product_vectors(rng_basis, state.dims)
        assert [a.shape[0] for a, _ in chunks] == [128, 128, 128, 16]
        a0, b0 = start_pairs(400, 3, 4)
        assert np.array_equal(np.concatenate([a for a, _ in chunks]), a0)
        assert np.array_equal(np.concatenate([b for _, b in chunks]), b0)
        assert chunked.evidence["starts_used"] == whole.evidence["starts_used"] == 400
        assert chunked.evidence["best_residual"] == whole.evidence["best_residual"]
        assert len(chunked.points) == len(whole.points)
        for p, q in zip(chunked.points, whole.points):
            assert np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b)


class TestAlternate:
    @pytest.mark.parametrize("case", ["good_3x4_range", "product_span_3x4",
                                      "bad_4x5_range", "kon_mnogo_range"])
    def test_matches_the_inverse_iteration_oracle(self, case, rng):
        # bad_4x5's range retires its starts the slowest, kon_mnogo's the fastest
        if case == "good_3x4_range":
            wc = good_3x4_range_stack()
        elif case == "product_span_3x4":
            sub, _ = span_of_products(3, 4, 4, rng)
            wc = complement_stack(sub, BipartiteDims(3, 4)).conj()
        else:
            state = zoo.bad_mxn(4, 5) if case == "bad_4x5_range" else zoo.kon_mnogo()[0]
            wc = complement_stack(range_basis(state), state.dims).conj()
        a0, b0 = start_pairs(400, wc.shape[1], wc.shape[2])
        # the same inverse-iteration steps, on F^H F formed from the stack
        # itself and with no start retired
        a_ref, b_ref, res_ref = alternate_by_inverse_iteration(wc, a0, b0, 60)
        a, b, _, res = _alternate_batch(wc, a0, b0)
        assert np.max(np.abs(res - res_ref)) <= 1e-12
        # the same vectors up to phase
        assert np.min(np.abs(np.einsum('si,si->s', a_ref.conj(), a))) >= 1 - 1e-12
        assert np.min(np.abs(np.einsum('si,si->s', b_ref.conj(), b))) >= 1 - 1e-12
        # the residual is |F(a) b| at the returned pair, not an eigenvalue
        direct = np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1)
        assert np.allclose(res, direct, rtol=1e-12, atol=1e-15)

    def test_calls_no_svd(self, monkeypatch):
        # nor np.linalg.eigh: each half-step is one solve
        wc = good_3x4_range_stack()
        a0, b0 = start_pairs(400, 3, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("the alternation called np.linalg.svd or eigh")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        _, _, _, res = _alternate_batch(wc, a0, b0)
        assert res.shape == (400,)

    def test_settled_starts_retire(self, monkeypatch):
        # on good_3x4's range most starts reach their fixed point well
        # before the last iteration and leave the solves
        wc = good_3x4_range_stack()
        a0, b0 = start_pairs(400, 3, 4)
        solve = SolveRecorder(monkeypatch)
        a, b, _, _ = _alternate_batch(wc, a0, b0)
        assert sum(solve.rows) <= 0.6 * 2 * 400 * 60
        # the inputs are left as they were
        a1, b1 = start_pairs(400, 3, 4)
        assert np.array_equal(a0, a1) and np.array_equal(b0, b1)
        # restarted at its own output, every start retires after one iteration
        solve.rows.clear()
        _alternate_batch(wc, a, b)
        assert solve.rows == [400, 400]

    def test_the_svd_iterations_least_pairs_retire(self, monkeypatch):
        # a pair of least singular vectors spans invariant subspaces of both
        # Grams, so one inverse-iteration step leaves it where it is
        wc = good_3x4_range_stack()
        a, b, _ = alternate_by_svd(wc, *start_pairs(400, 3, 4), 60)
        solve = SolveRecorder(monkeypatch)
        _alternate_batch(wc, a, b)
        assert solve.rows == [400, 400]

    @pytest.mark.parametrize("name", ["good_3x4", "kon_mnogo", "gentiles2_3x4", "bad_3x4",
                                      "bad_4x5"])
    def test_a_half_step_never_raises_the_residual(self, name):
        # v^H M^k v is log-convex in k, so the Rayleigh quotient at
        # (M + shift)^-1 v is at most the one at v: with w = 1 each half-step
        # lowers |F(a) b| or keeps it
        state = RANGE_BEST_RESIDUALS[name][0]()
        wc = complement_stack(range_basis(state), state.dims).conj()
        q = segre._gram(wc)
        a, b = start_pairs(400, state.dims.m, state.dims.n)

        def residual(a, b):
            return np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1)

        res = residual(a, b)
        for _ in range(10):
            b = segre._inverse_iteration_step(q, a[:, :, None], b[:, :, None])[:, :, 0]
            after_b = residual(a, b)
            a = segre._inverse_iteration_step(q.T, b[:, :, None], a[:, :, None])[:, :, 0]
            after_a = residual(a, b)
            assert np.all(after_b <= res * (1 + 1e-12) + 1e-15)
            assert np.all(after_a <= after_b * (1 + 1e-12) + 1e-15)
            res = after_a


class TestDegenerateGram:
    # the orthocomplement of K spanned by integer matrices, none touching
    # the entry (0, 0): e0 (x) e0 lies in K, F(e0) has a zero column and
    # F(e0)^H F(e0) the exact eigenvalue 0, with a zero first row and column
    # that would stop an unshifted LU at its first pivot
    STACK = np.array([[[0, 1, 1], [1, 0, 0], [0, 0, 1]],
                      [[0, 1, -1], [0, 1, 0], [1, 0, 0]],
                      [[0, 2, 1], [0, 0, 1], [0, 1, 0]],
                      [[0, 0, 0], [1, 1, 0], [0, 0, 2]]], dtype=complex)

    def test_a_start_on_a_product_vector_retires(self, monkeypatch):
        q = segre._gram(self.STACK)
        e0 = np.eye(3, dtype=complex)[0]
        assert np.array_equal((np.kron(e0, e0) @ q).reshape(3, 3)[0], np.zeros(3))
        solve = SolveRecorder(monkeypatch)
        a, b, _ = segre._alternate(q, e0[None, :], e0[None, :, None])
        assert solve.rows == [1, 1]
        assert np.allclose(np.abs(a[0]), np.abs(e0), rtol=0, atol=1e-15)
        assert np.allclose(np.abs(b[0, :, 0]), np.abs(e0), rtol=0, atol=1e-15)
        # in a batch with generic starts: every start stays finite
        a, b = start_pairs(8, 3, 3)
        a[5], b[5] = e0, e0
        a, b, _ = segre._alternate(q, a, b[:, :, None])
        assert np.isfinite(a).all() and np.isfinite(b).all()
        assert abs(a[5, 0]) > 1 - 1e-15 and abs(b[5, 0, 0]) > 1 - 1e-15

    def test_an_empty_stack_keeps_its_frame(self, monkeypatch):
        # the edge fallback of a state whose range and partial transpose's
        # range are the whole space: both Grams are zero
        q = segre._gram(np.zeros((0, 3, 4), dtype=complex))
        a0, b0 = start_pairs(64, 3, 4)
        solve = SolveRecorder(monkeypatch)
        a, b, _ = segre._alternate(q, a0, b0[:, :, None])
        assert solve.rows == [64, 64]
        assert np.abs(np.einsum('si,si->s', a0.conj(), a)).min() > 1 - 1e-15
        assert np.abs(np.einsum('si,si->s', b0.conj(), b[:, :, 0])).min() > 1 - 1e-15


def alternate_start_by_start(q, a, b):
    """`_alternate`'s settled flags from a plain loop, one start at a time:
    a start settles at the first iteration that moves it by less than
    _SETTLED_STEP."""
    settled = []
    for j in range(a.shape[0]):
        aj, bj = a[j:j + 1, :, None], b[j:j + 1, :, None]
        for _ in range(segre._ALTERNATE_ITERS):
            bn = segre._inverse_iteration_step(q, aj, bj)
            an = segre._inverse_iteration_step(q.T, bn, aj)
            moved = max(segre._moved(aj, an)[0], segre._moved(bj, bn)[0])
            aj, bj = an, bn
            if moved < segre._SETTLED_STEP:
                break
        settled.append(moved < segre._SETTLED_STEP)
    return np.array(settled)


class TestSettledFlag:
    def test_one_iteration_settles_only_a_product_vector(self, monkeypatch):
        # after one iteration a start on a product vector of K has not
        # moved, while every seeded random start has
        monkeypatch.setattr(segre, "_ALTERNATE_ITERS", 1)
        q = segre._gram(TestDegenerateGram.STACK)
        e0 = np.eye(3, dtype=complex)[0]
        a, b = start_pairs(8, 3, 3)
        a[5], b[5] = e0, e0
        _, _, settled = segre._alternate(q, a, b[:, :, None])
        assert settled.tolist() == [j == 5 for j in range(8)]
        _, _, settled, _ = _alternate_batch(good_3x4_range_stack(), *start_pairs(400, 3, 4))
        assert not settled.any()

    @pytest.mark.parametrize("name", ["bad_3x4", "bad_4x5"])
    def test_matches_a_plain_loop(self, name):
        # the first 48 starts of the round on these ranges settle in part
        state = RANGE_STATES[name]()
        wc = complement_stack(range_basis(state), state.dims).conj()
        a, b = start_pairs(48, state.dims.m, state.dims.n)
        _, _, settled, _ = _alternate_batch(wc, a, b)
        assert 0 < settled.sum() < 48
        assert np.array_equal(settled, alternate_start_by_start(segre._gram(wc), a, b))


def polish_by_pinv(wc, a, b, iters):
    """Reference polish: Gauss-Newton steps through the SVD pseudoinverse of
    the full Jacobian with its two gauge columns zeroed."""
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


def assert_same_polish(got, ref):
    """The same pairs up to phase and the same residuals, row by row."""
    (a, b, res), (a_ref, b_ref, res_ref) = got, ref
    assert np.min(np.abs(np.einsum('si,si->s', a_ref.conj(), a))) >= 1 - 1e-12
    assert np.min(np.abs(np.einsum('si,si->s', b_ref.conj(), b))) >= 1 - 1e-12
    assert np.allclose(res, res_ref, rtol=1e-12, atol=1e-15)


class SvdRecorder:
    """Stands in for np.linalg.svd and records the shape of every call made
    while `active`."""

    def __init__(self, monkeypatch):
        self.svd, self.shapes, self.active = np.linalg.svd, [], True
        monkeypatch.setattr(np.linalg, "svd", self)

    def __call__(self, x, *args, **kwargs):
        if self.active:
            self.shapes.append(np.shape(x))
        return self.svd(x, *args, **kwargs)


RANGE_STATES = {
    "good_3x4": zoo.good_3x4,
    "bad_3x4": zoo.bad_3x4,
    "gentiles2_3x4": lambda: zoo.upb_complement_state(zoo.gentiles2_upb(3, 4)),
    "bad_4x5": lambda: zoo.bad_mxn(4, 5),
}


class TestPolish:
    @pytest.mark.parametrize("iters", [1, 16])
    @pytest.mark.parametrize("name", list(RANGE_STATES))
    def test_matches_the_pinv_polish(self, name, iters):
        # the cross-check round's own input: alternated seeded starts
        state = RANGE_STATES[name]()
        m, n = state.dims.m, state.dims.n
        wc = complement_stack(range_basis(state), state.dims).conj()
        a, b, _, _ = _alternate_batch(wc, *start_pairs(400, m, n))
        assert_same_polish(_polish_batch(wc, a, b, iters), polish_by_pinv(wc, a, b, iters))

    def test_rank_deficient_row_takes_the_pinv_step(self, monkeypatch):
        # the bad_3x4 kernel holds the plane e0 (x) span{e2, e3}, so F(e0)
        # has two zero columns and J_r is rank-deficient at a = e0 for any
        # b: that row alone takes the pseudoinverse step
        state = zoo.bad_3x4()
        wc = complement_stack(kernel_basis(state), state.dims).conj()
        a, b = start_pairs(400, 3, 4)
        a[7] = np.eye(3)[0]
        assert np.max(np.abs(wc[:, 0, 2:])) < 1e-14
        svd = SvdRecorder(monkeypatch)
        got = _polish_batch(wc, a, b, 1)
        svd.active = False
        assert svd.shapes == [(1, 5, 5)]
        ref = polish_by_pinv(wc, a, b, 1)
        assert_same_polish(got, ref)
        # g is linear in b at fixed a: the step lands on the plane
        assert np.linalg.norm(np.einsum('i,rij,j->r', a[7], wc, b[7])) > 1e-3
        assert got[2][7] < 1e-14

    def test_range_cross_check_polish_calls_no_svd(self, monkeypatch):
        # the round polishes only the starts its alternation left unsettled
        # or near K: every start settles off K on good_3x4's range, so only
        # the homotopy's 10 endpoints reach the polish; on bad_4x5's range
        # the round's batch is exactly the 231 unsettled starts
        import pptlab.segre as segre_mod

        svd = SvdRecorder(monkeypatch)
        svd.active, batches, unsettled = False, [], []

        def recording_alternation(wc, a, b):
            a, b, settled, res = _alternate_batch(wc, a, b)
            unsettled.append(a[~settled])
            return a, b, settled, res

        def recording(wc, a, b, iters):
            batches.append(a.copy())
            svd.active = True
            try:
                return _polish_batch(wc, a, b, iters)
            finally:
                svd.active = False

        monkeypatch.setattr(segre_mod, "_alternate_batch", recording_alternation)
        monkeypatch.setattr(segre_mod, "_polish_batch", recording)
        state = zoo.good_3x4()
        res = enumerate_product_vectors(range_basis(state), state.dims)
        assert res.classification == Classification.EMPTY
        assert [x.shape[0] for x in batches] == [10]
        assert [x.shape[0] for x in unsettled] == [0]
        batches.clear(), unsettled.clear()
        state = zoo.bad_mxn(4, 5)
        res = enumerate_product_vectors(range_basis(state), state.dims)
        assert res.classification == Classification.EMPTY
        assert len(batches) == 2 and [x.shape[0] for x in unsettled] == [231]
        assert np.array_equal(batches[1], unsettled[0])
        assert svd.shapes == []

    def test_skipped_starts_would_not_reach_K(self):
        # the premise of the skip: a start the alternation settled above
        # sqrt(RESIDUAL_TOL) is a stationary point of |F(a) b| off K, and a
        # full polish takes none of them to K or below the round's best; on
        # a kernel no start settles off K at all
        rounds = [(fn(), range_basis) for fn, _ in RANGE_BEST_RESIDUALS.values()]
        rounds += [(state, kernel_basis) for state in (
            zoo.good_3x4(), zoo.kon_mnogo()[0], zoo.good_3xn(6), zoo.bad_3x4(),
            zoo.bad_mxn(4, 5), slocc_changed(zoo.good_3xn(6), 1000, 100),
            slocc_changed(zoo.bad_3x4(), 1000, 100))]
        for state, basis in rounds:
            m, n = state.dims.m, state.dims.n
            wc = complement_stack(basis(state), state.dims).conj()
            starts = start_pairs(max(segre._MIN_STARTS, 4 * zoo.delta(m, n)), m, n)
            a, b, settled, alt = _alternate_batch(wc, *starts)
            skipped = settled & (alt > np.sqrt(segre.RESIDUAL_TOL))
            if basis is kernel_basis:
                assert not skipped.any()
                continue
            # every range skips some starts, so the guard checks something
            assert skipped.any()
            best = alt.min()
            if not skipped.all():
                kept = _polish_batch(wc, a[~skipped], b[~skipped], segre._POLISH_ITERS)[2]
                best = min(best, kept.min())
            full = _polish_batch(wc, a[skipped], b[skipped], segre._POLISH_ITERS)[2]
            assert full.min() > segre.RESIDUAL_TOL
            assert full.min() >= best


# The cross-check round's best residual on zoo ranges that hold no product
# vector, recorded when each half-step of the alternation was an exact least
# eigenvector by eigh: both alternations reach the same least local minimum
# of |F(a) b|, which is below every homotopy root's full residual there.
RANGE_BEST_RESIDUALS = {
    "good_3x4": (zoo.good_3x4, 0.06505756829558874),
    "kon_mnogo": (lambda: zoo.kon_mnogo()[0], 0.17413982852767376),
    "gentiles2_3x4": (RANGE_STATES["gentiles2_3x4"], 0.17413982852767365),
    "bad_3x4": (zoo.bad_3x4, 0.09941792288776688),
    "bad_4x5": (RANGE_STATES["bad_4x5"], 0.050629908597181465),
}


class TestRangeCrossCheck:
    @pytest.mark.parametrize("name", list(RANGE_BEST_RESIDUALS))
    def test_best_residual_is_the_recorded_minimum(self, name):
        state_fn, recorded = RANGE_BEST_RESIDUALS[name]
        state = state_fn()
        res = enumerate_product_vectors(range_basis(state), state.dims)
        ev, dlt = res.evidence, zoo.delta(state.dims.m, state.dims.n)
        assert res.classification == Classification.EMPTY
        assert (ev["route"], ev["starts_used"]) == ("homotopy", 400)
        assert ev["paths"] == {"tracked": dlt, "finished": dlt, "accepted": dlt, "on_plane": 0}
        assert ev["best_residual"] == pytest.approx(recorded, rel=1e-9, abs=0)


class TestCes:
    def test_good_3x4_range_is_ces(self):
        state = zoo.good_3x4()
        assert ces_certificate(range_basis(state), state.dims)[0]

    def test_dimension_forces_product_vector(self, rng):
        dims = BipartiteDims(3, 3)
        vecs = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        assert not ces_certificate(subspace_from_vectors(vecs, 9), dims)[0]

    def test_span_of_product_vector_is_not_ces(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert not ces_certificate(subspace_from_vectors([v], 4), BipartiteDims(2, 2))[0]


class TestTransversal:
    def test_separable_two_term_good_points(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 1.0])))
        kern = kernel_basis(state)
        pv = ProductVector([1.0, 0.0], [0.0, 1.0])
        assert transversal(kern, pv, state.dims)

    def test_one_by_two_state_is_not_transversal(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 1.0, 0, 0])))
        kern = kernel_basis(state)
        pv = ProductVector([0.0, 1.0], [1.0, 0.0])
        assert not transversal(kern, pv, state.dims)

    def test_good_3x4_all_points_transversal(self):
        state = zoo.good_3x4()
        kern = kernel_basis(state)
        res = enumerate_product_vectors(kern, state.dims)
        assert res.count == 10
        assert all(transversal(kern, pv, state.dims) for pv in res.points)

    @pytest.mark.parametrize("state_fn", [
        zoo.good_3x4,
        lambda: zoo.kon_mnogo()[0],
        lambda: zoo.upb_complement_state(tiles_upb_3x3()),
        lambda: zoo.upb_complement_state(zoo.gentiles2_upb(3, 4)),
        lambda: zoo.good_3xn(5),
        zoo.bad_3x4,
        lambda: zoo.bad_mxn(4, 5),
    ], ids=["good_3x4", "kon_mnogo", "tiles_3x3", "gentiles2_3x4", "good_3x5", "bad_3x4",
            "bad_4x5"])
    def test_jacobian_rank_agrees_with_the_tangent_span(self, state_fn):
        # every kernel point, counted or accepted on the way to a plane: the
        # Jacobian rank test and the rank of [K | tangent] give one answer,
        # and the enumeration records the same flags
        state = state_fn()
        kern = kernel_basis(state)
        res = enumerate_product_vectors(kern, state.dims)
        assert res.points
        flags = [transversal(kern, pv, state.dims) for pv in res.points]
        assert flags == [transversal_by_tangent_span(kern, pv, state.dims)
                         for pv in res.points]
        assert flags == res.evidence["transversal"]

    @pytest.mark.parametrize("diag,a,b", [
        ([1.0, 0, 0, 1.0], [1.0, 0.0], [0.0, 1.0]),
        ([1.0, 1.0, 0, 0], [0.0, 1.0], [1.0, 0.0]),
        ([1.0, 0, 0, 0], [0.0, 1.0], [0.0, 1.0]),
        ([1.0, 0, 0, 0], [0.6, 0.8], [0.0, 1.0]),
    ], ids=["two_terms", "one_by_two", "one_term", "one_term_tilted"])
    def test_two_qubit_cases_agree_with_the_tangent_span(self, diag, a, b):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag(diag)))
        kern, pv = kernel_basis(state), ProductVector(a, b)
        assert transversal(kern, pv, state.dims) == \
            transversal_by_tangent_span(kern, pv, state.dims)

    def test_whole_space_is_transversal(self):
        full, dims = subspace_from_vectors(np.eye(4), 4), BipartiteDims(2, 2)
        pv = ProductVector([0.6, 0.8], [0.8, -0.6])
        assert transversal(full, pv, dims) and transversal_by_tangent_span(full, pv, dims)

    def test_requires_membership(self):
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag([1.0, 0, 0, 1.0])))
        with pytest.raises(ValueError, match="not in the subspace"):
            transversal(kernel_basis(state), ProductVector([1.0, 0], [1.0, 0]), state.dims)


class TestGoodness:
    def test_good_3x4(self):
        verdict = classify_goodness(zoo.good_3x4())
        assert verdict.verdict == Goodness.GOOD
        assert verdict.reason == GoodnessReason.COUNT_EQUALS_DELTA
        assert verdict.count == 10

    def test_bad_separable_3x3(self):
        verdict = classify_goodness(bad_separable_3x3())
        assert verdict.verdict == Goodness.BAD
        assert verdict.reason == GoodnessReason.INFINITE_COMPONENT

    def test_werner_good_by_empty_intersection(self):
        verdict = classify_goodness(werner_2x2())
        assert verdict.verdict == Goodness.GOOD
        assert verdict.reason == GoodnessReason.EMPTY_INTERSECTION

    def test_low_rank_returns_indeterminate(self):
        # rank 2 (|00><00| + |11><11|), below the borderline 4 and not pure
        rho = np.diag(np.eye(9)[0] + np.eye(9)[4])
        state = BipartiteState(HermitianOperator(BipartiteDims(3, 3), rho))
        verdict = classify_goodness(state)
        assert verdict.verdict == Goodness.INDETERMINATE
        assert verdict.reason == GoodnessReason.RANK_BELOW_BORDERLINE

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4)])
    @pytest.mark.parametrize("entangled", [False, True])
    def test_pure_states_are_good(self, m, n, entangled):
        # the paper's theorem, PPT (a product vector) or not; the verdict
        # holds under a local unitary and under the party swap
        rng = np.random.default_rng(10 * m + n)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        psi = cplx(m * n) if entangled else np.kron(cplx(m), cplx(n))
        rho = np.outer(psi, psi.conj())
        u = np.kron(np.linalg.qr(cplx(m, m))[0], np.linalg.qr(cplx(n, n))[0])
        swapped = rho.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
        for dims, mat in ((BipartiteDims(m, n), rho), (BipartiteDims(m, n), u @ rho @ u.conj().T),
                          (BipartiteDims(n, m), swapped)):
            state = BipartiteState(HermitianOperator(dims, mat))
            assert is_ppt(state)[0] is not entangled
            verdict = classify_goodness(state)
            assert (verdict.verdict, verdict.reason) == (Goodness.GOOD, GoodnessReason.PURE_STATE)

    @pytest.mark.parametrize("m,n,verdict,reason", [
        (1, 1, Goodness.GOOD, GoodnessReason.EMPTY_INTERSECTION),
        (1, 2, Goodness.GOOD, GoodnessReason.COUNT_EQUALS_DELTA),
        (1, 3, Goodness.INDETERMINATE, GoodnessReason.RANK_BELOW_BORDERLINE),
        (3, 1, Goodness.INDETERMINATE, GoodnessReason.RANK_BELOW_BORDERLINE)])
    def test_rank_one_with_a_local_dimension_of_one(self, m, n, verdict, reason):
        # the pure-state rule needs both local dimensions at least two
        rng = np.random.default_rng(10 * m + n)
        v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        got = classify_goodness(BipartiteState(HermitianOperator(BipartiteDims(m, n),
                                                                 np.outer(v, v.conj()))))
        assert (got.verdict, got.reason) == (verdict, reason)

    def test_one_kernel_product_vector_above_borderline_is_bad(self, rng):
        # rank 5 > m + n - 2 = 4, and the kernel span(|00>, three random
        # vectors) meets the Segre variety only in |00>: the count of the
        # squared-down kernel system finds it
        dims = BipartiteDims(3, 3)
        e00 = np.eye(9)[0]
        kern = subspace_from_vectors(
            [e00] + list(rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))), 9)
        proj = np.eye(9) - kern.vectors.T @ kern.vectors.conj()
        state = BipartiteState(HermitianOperator(dims, proj))
        verdict = classify_goodness(state)
        assert verdict.verdict == Goodness.BAD
        assert verdict.reason == GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X
        assert verdict.count == 1
        res = enumerate_product_vectors(kernel_basis(state), dims)
        assert res.evidence["route"] == "homotopy"
        assert res.points[0].overlap(ProductVector(e00[:3], e00[:3])) > 1 - 1e-8

    @pytest.mark.parametrize("cls,expected", [
        (Classification.LIKELY_INFINITE, (Goodness.BAD, GoodnessReason.INFINITE_COMPONENT, None)),
        (Classification.INCONCLUSIVE, (Goodness.INDETERMINATE, None, 1)),
    ], ids=["likely_infinite", "inconclusive"])
    def test_above_borderline_rows(self, cls, expected):
        # werner_2x2 has rank 3 > m + n - 2 = 2
        pv = ProductVector([1.0, 0.0], [0.0, 1.0])
        verdict = classify_goodness(werner_2x2(),
                                    enumeration=segre.EnumerationResult([pv], [0.0], cls, {}))
        assert (verdict.verdict, verdict.reason, verdict.count) == expected
        assert verdict.anomaly is False

    @pytest.mark.parametrize("cls,count", [(Classification.FINITE, 9),
                                           (Classification.EMPTY, 0)], ids=["finite", "empty"])
    def test_borderline_count_below_delta_is_a_ppt_anomaly(self, cls, count):
        # good_3x4 is PPT at rank 5 = m + n - 2, where a finite count below
        # delta = 10 is impossible: the verdict is bad and flagged
        points = [ProductVector(np.eye(3)[i % 3], np.eye(4)[i % 4]) for i in range(count)]
        enn = segre.EnumerationResult(points, [0.0] * count, cls, {})
        verdict = classify_goodness(zoo.good_3x4(), enumeration=enn)
        assert (verdict.verdict, verdict.reason, verdict.count, verdict.anomaly) == (
            Goodness.BAD, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X, count, True)

    def test_borderline_count_below_delta_npt_is_indeterminate(self):
        # a Bell state mixed with |01>: rank 2 = m + n - 2 and NPT
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(bell, bell) + 0.1 * np.diag([0.0, 1.0, 0.0, 0.0])
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), rho))
        enn = segre.EnumerationResult([ProductVector([1.0, 0.0], [0.0, 1.0])], [0.0],
                                      Classification.FINITE, {})
        verdict = classify_goodness(state, enumeration=enn)
        assert (verdict.verdict, verdict.reason, verdict.count, verdict.anomaly) == (
            Goodness.INDETERMINATE, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X, 1, False)


class TestGeneralPosition:
    def test_kon_mnogo_points_not_general(self):
        _, points = zoo.kon_mnogo()
        assert not general_position(points, BipartiteDims(3, 4))

    def test_good_3x4_points_general(self):
        state = zoo.good_3x4()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert general_position(res.points, state.dims)

    def test_two_orthogonal_products(self):
        pvs = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([0, 1.0], [0, 1.0])]
        assert general_position(pvs, BipartiteDims(2, 2))


class TestLineSubspaces:
    def test_bad_mxn_kernel_plane_found(self):
        state = zoo.bad_mxn(4, 5)
        kern = kernel_basis(state)
        hits = find_line_subspaces(kern, state.dims)
        a_hits = [ls for ls in hits if ls.side == "A"]
        assert a_hits
        # every reported |a> (x) W must genuinely sit inside the kernel
        for hit in a_hits:
            for w_vec in hit.subspace.vectors:
                assert kern.project_residual(np.kron(hit.vector, w_vec)) < 1e-8
        # the last two B-basis directions span the advertised plane; |0> (x)
        # that plane is one member of the family the search samples from
        for col in (3, 4):
            v = np.zeros(20)
            v[col] = 1.0
            assert kern.project_residual(v) < 1e-12
        best = a_hits[0]
        for col in (3, 4):
            v = np.zeros(5)
            v[col] = 1.0
            assert best.subspace.project_residual(v) < 1e-8

    def test_good_3x4_kernel_has_no_plane(self):
        state = zoo.good_3x4()
        assert find_line_subspaces(kernel_basis(state), state.dims) == []

    def test_full_space_trivially_contains_planes(self):
        full = subspace_from_vectors(np.eye(6), 6)
        hits = find_line_subspaces(full, BipartiteDims(2, 3))
        assert hits


class TestPlaneRoute:
    @pytest.mark.parametrize("state_fn,paths", [
        (zoo.bad_3x4, (10, 7, 7, 3)),
        (lambda: zoo.bad_3xn(5), (15, 12, 12, 3)),
        (lambda: zoo.bad_mxn(4, 5), (35, 19, 19, 16)),
        (lambda: zoo.bad_mxn(5, 5), (70, 26, 26, 44)),
    ], ids=["bad_3x4", "bad_3x5", "bad_4x5", "bad_5x5"])
    def test_plane_settles_kernel_without_starts(self, state_fn, paths, monkeypatch):
        # every path ends on an accepted root or on a verified product plane:
        # the accepted roots are all the isolated ones, the plane proves the
        # continuum, and neither a plane search nor a multistart round runs
        refuse_plane_search(monkeypatch)
        state = state_fn()
        kern = kernel_basis(state)
        res = enumerate_product_vectors(kern, state.dims)
        ev = res.evidence
        assert res.classification == Classification.LIKELY_INFINITE
        assert ev["route"] == "homotopy"
        assert ev["paths"] == dict(zip(("tracked", "finished", "accepted", "on_plane"), paths))
        assert (ev["starts_used"], ev["rounds"]) == (0, 0)
        planes = ev["line_subspaces"]
        assert any(ls.side == "A" for ls in planes)
        for ls in planes:
            for w_vec in ls.subspace.vectors:
                vec = np.kron(ls.vector, w_vec) if ls.side == "A" else np.kron(w_vec, ls.vector)
                assert kern.project_residual(vec) < 1e-8
        assert np.isfinite(ev["best_residual"])
        assert ev["best_residual"] == min([ls.residual for ls in planes] + res.residuals)
        roots, _, _, _ = _homotopy_roots(complement_stack(kern, state.dims).conj())
        assert match_sets(res.points, roots)
        verdict = classify_goodness(state, enumeration=res)
        assert (verdict.verdict, verdict.reason) == (Goodness.BAD,
                                                     GoodnessReason.INFINITE_COMPONENT)

    def test_conic_is_not_a_plane(self):
        # paths that end on the conic are unaccounted, so the set keeps the
        # search route
        sub, dims = conic_subspace()
        assert complement_stack(sub, dims).shape[0] == 3 + 3 - 2
        res = enumerate_product_vectors(sub, dims)
        paths = res.evidence["paths"]
        assert paths["on_plane"] == 0
        assert paths["accepted"] < paths["tracked"]
        assert res.evidence["route"] == "multistart"
        assert res.evidence["starts_used"] == 400

    @pytest.mark.parametrize("case", ["conic", "lossy_good_3x4"])
    def test_an_unsettled_set_gets_one_round(self, case, monkeypatch):
        # neither a count nor an endpoint plane settles the set: one
        # multistart round decides it, with no plane search
        if case == "conic":
            sub, dims = conic_subspace()
        else:
            original = segre._homotopy_roots

            def lossy(wc):
                points, residuals, paths, planes = original(wc)
                return points[:-1], residuals[:-1], paths, planes

            monkeypatch.setattr(segre, "_homotopy_roots", lossy)
            state = zoo.good_3x4()
            sub, dims = kernel_basis(state), state.dims
        refuse_plane_search(monkeypatch)
        res = enumerate_product_vectors(sub, dims)
        ev = res.evidence
        assert (ev["route"], ev["starts_used"], ev["rounds"]) == ("multistart", 400, 1)
        assert ev["line_subspaces"] == []
        if case == "conic":
            assert res.classification == Classification.LIKELY_INFINITE
        else:
            # the round finds the tenth point, and delta certified distinct
            # nonsingular points settle a square set whichever search found them
            assert (res.classification, res.count) == (Classification.FINITE, 10)

    def test_singular_row_halves_only_its_own_step(self):
        # a zero row has an exactly singular Jacobian: its step fails and
        # halves, and every other path takes its step and grows it
        state = zoo.good_3x4()
        tracker = _PathTracker(complement_stack(kernel_basis(state), state.dims).conj())
        tracker.z[1] = 0.0
        before = tracker.step.copy()
        tracker.advance()
        others = np.arange(before.size) != 1
        assert tracker.step[1] == before[1] / 2
        assert (tracker.s[1], tracker.active[1]) == (0.0, True)
        assert np.all(tracker.s[others] == before[others])
        assert np.all(tracker.step[others] > before[others])


PLANE_KERNELS = {
    "bad_3x4": zoo.bad_3x4,
    "bad_3x5": lambda: zoo.bad_3xn(5),
    "bad_4x5": lambda: zoo.bad_mxn(4, 5),
    "bad_5x5": lambda: zoo.bad_mxn(5, 5),
}


def slocc_changed(state, kappa, seed):
    """(A (x) B) rho (A (x) B)^H, made Hermitian and divided by its largest
    entry; A = U diag(geomspace(1, kappa)) V with U and V the Q factors of
    complex Gaussian matrices, drawn as U_A, V_A, U_B, V_B from
    default_rng(seed)."""
    rng = np.random.default_rng(seed)

    def unitary(k):
        return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]

    ua, va, ub, vb = (unitary(k) for k in (state.dims.m, state.dims.m,
                                           state.dims.n, state.dims.n))
    u = np.kron(ua @ np.diag(np.geomspace(1, kappa, state.dims.m)) @ va,
                ub @ np.diag(np.geomspace(1, kappa, state.dims.n)) @ vb)
    rho = u @ state.matrix @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    return BipartiteState(HermitianOperator(state.dims, rho / np.abs(rho).max()))


class TestSettledSetsRunNoPlaneSearch:
    """A set settled by a verified endpoint plane gets no second, fresh
    plane search, even with a path unaccounted for."""

    @pytest.mark.parametrize("label", ["bad_3x4", "bad_4x5"])
    def test_endpoint_plane_with_an_unaccounted_path(self, label, monkeypatch):
        # one on-plane endpoint reported fewer leaves a path unaccounted;
        # the verified planes still prove the set infinite
        state = PLANE_KERNELS[label]()
        kern = kernel_basis(state)
        ref = enumerate_product_vectors(kern, state.dims)
        original = segre._endpoint_planes

        def one_fewer(wc, a, b):
            planes, on_plane = original(wc, a, b)
            return planes, on_plane - 1

        monkeypatch.setattr(segre, "_endpoint_planes", one_fewer)
        refuse_plane_search(monkeypatch)
        res = enumerate_product_vectors(kern, state.dims)
        ev = res.evidence
        assert ev["paths"]["accepted"] + ev["paths"]["on_plane"] < ev["paths"]["tracked"]
        assert res.classification == Classification.LIKELY_INFINITE
        assert (ev["route"], ev["starts_used"], ev["rounds"]) == ("homotopy", 0, 0)
        assert [(pv.a.tolist(), pv.b.tolist()) for pv in res.points] == \
            [(pv.a.tolist(), pv.b.tolist()) for pv in ref.points]
        assert res.residuals == ref.residuals
        assert [(ls.side, ls.vector.tolist()) for ls in ev["line_subspaces"]] == \
            [(ls.side, ls.vector.tolist()) for ls in ref.evidence["line_subspaces"]]

    @pytest.mark.parametrize("label,kappa,seed", [
        (label, kappa, seed) for label, kappa in (("bad_3x4", 30), ("bad_4x5", 30),
                                                  ("bad_4x5", 100))
        for seed in (100, 101, 102)])
    def test_slocc_keeps_the_kernel_fields(self, label, kappa, seed):
        def fields(state):
            res = enumerate_product_vectors(kernel_basis(state), state.dims)
            return res.classification, res.count, res.evidence["route"]

        state = PLANE_KERNELS[label]()
        assert fields(slocc_changed(state, kappa, seed)) == fields(state)


class TestPlaneSearch:
    @pytest.mark.parametrize("label", sorted(PLANE_KERNELS))
    def test_same_endpoints_as_the_svd_loop(self, label, monkeypatch):
        # from the endpoints the homotopy hands to _endpoint_planes, side A
        # and then side B on the rest, the Gram alternation reaches a plane
        # from the same endpoints as the SVD loop of as many iterations; where
        # the plane through an endpoint is unique (bad_3x4, bad_3x5) it is
        # the same
        state = PLANE_KERNELS[label]()
        kern = kernel_basis(state)
        wc = complement_stack(kern, state.dims).conj()
        calls = []
        original = segre._endpoint_planes
        monkeypatch.setattr(segre, "_endpoint_planes",
                            lambda *args: calls.append(args) or original(*args))
        _homotopy_roots(wc)
        _, a, b = calls[0]
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        todo = np.nonzero(np.linalg.norm(np.einsum('si,rij,sj->sr', a, wc, b), axis=1) <= 1e-5)[0]
        assert todo.size
        for side, stack, vecs in (("A", wc, a), ("B", wc.transpose(0, 2, 1), b)):
            if todo.size == 0:
                break
            planes = segre._plane_search(side, stack, vecs[todo], 2)
            ref, h_ref = _plane_alternation(stack, vecs[todo], 2, segre._ALTERNATE_ITERS)
            assert list(planes) == list(np.flatnonzero(h_ref <= segre.RESIDUAL_TOL))
            todo = np.delete(todo, list(planes))
            for j, ls in planes.items():
                assert ls.side == side
                if label in ("bad_3x4", "bad_3x5"):
                    assert abs(np.vdot(ls.vector, ref[j])) >= 1 - 1e-10
                for w_vec in ls.subspace.vectors:
                    prod = np.kron(ls.vector, w_vec) if side == "A" else np.kron(w_vec, ls.vector)
                    assert kern.project_residual(prod) <= segre.RESIDUAL_TOL

    @pytest.mark.parametrize("label", sorted(PLANE_KERNELS))
    def test_plane_vectors_take_the_product_vector_phase(self, label):
        # the first entry above 1e-8 is real and positive to rounding, as in
        # ProductVector, whatever phase the alternation left the vector with
        state = PLANE_KERNELS[label]()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.evidence["line_subspaces"]
        for ls in res.evidence["line_subspaces"]:
            lead = ls.vector[np.argmax(np.abs(ls.vector) > 1e-8)]
            assert abs(lead.imag) <= 1e-15 and lead.real > 0

    def test_starting_frames_are_seeded(self):
        # row i's frame is drawn from the i-th block of the seeded stream,
        # so a search repeats exactly, and the first rows of a search are
        # those of a search over just those rows
        state = zoo.bad_mxn(4, 5)
        wc = complement_stack(kernel_basis(state), state.dims).conj()
        a, _ = start_pairs(segre._LINE_STARTS, 4, 5)
        first = segre._plane_search("A", wc, a, 2)
        again = segre._plane_search("A", wc, a, 2)
        head = segre._plane_search("A", wc, a[:16], 2)
        assert first and list(first) == list(again)
        assert list(head) == [j for j in first if j < 16]
        for j, ls in first.items():
            assert np.array_equal(ls.vector, again[j].vector)
            assert np.array_equal(ls.subspace.vectors, again[j].subspace.vectors)
            assert ls.residual == again[j].residual
        for j, ls in head.items():
            assert np.allclose(ls.vector, first[j].vector, rtol=0, atol=1e-12)
            assert np.allclose(ls.subspace.vectors, first[j].subspace.vectors, rtol=0, atol=1e-12)

    def test_one_alternation_from_frames_drawn_once(self, monkeypatch):
        # the search is one _alternate from its seeded frames, then one
        # verification: no frame is redrawn on the way
        state = zoo.bad_mxn(4, 5)
        wc = complement_stack(kernel_basis(state), state.dims).conj()
        a, _ = start_pairs(segre._LINE_STARTS, 4, 5)
        original = segre._alternate
        calls = []
        monkeypatch.setattr(segre, "_alternate",
                            lambda q, a, b: calls.append(b.shape) or original(q, a, b))
        planes = segre._plane_search("A", wc, a, 2)
        assert calls == [(a.shape[0], 5, 2)]
        z = np.random.default_rng(segre._START_SEED).standard_normal((a.shape[0], 5, 4))
        frames = np.linalg.qr(z[:, :, :2] + 1j * z[:, :, 2:])[0]
        ref_a, ref_b, _ = original(segre._gram(wc), a, frames)
        h = np.linalg.norm(np.einsum('si,rij,sjw->srw', ref_a, wc, ref_b), axis=(1, 2))
        assert planes and list(planes) == list(np.flatnonzero(h <= segre.RESIDUAL_TOL))
        for j, ls in planes.items():
            assert np.array_equal(ls.vector, ProductVector._canonical(ref_a[j]))
            assert np.array_equal(ls.subspace.vectors, ref_b[j].T)
            assert ls.residual == h[j]

    def test_calls_no_svd(self, monkeypatch):
        state = zoo.bad_mxn(4, 5)
        wc = complement_stack(kernel_basis(state), state.dims).conj()
        a, _ = start_pairs(segre._LINE_STARTS, 4, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("the plane search called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        hits = segre._plane_search("A", wc, a, 2)
        assert hits and all(ls.subspace.vectors.shape == (2, 5) for ls in hits.values())


def tracker_systems():
    """The square systems of the kernel-census kernels and the squared-down
    systems of two zoo ranges, by label."""
    kernels = {f"good_3x{n}": zoo.good_3xn(n) for n in range(4, 9)}
    kernels.update(bad_3x5=zoo.bad_3xn(5), bad_4x5=zoo.bad_mxn(4, 5), bad_5x5=zoo.bad_mxn(5, 5))
    out = {f"{label}_kernel": complement_stack(kernel_basis(st), st.dims).conj()
           for label, st in kernels.items()}
    for label, st in (("good_3x4", zoo.good_3x4()), ("bad_4x5", zoo.bad_mxn(4, 5))):
        wc = complement_stack(range_basis(st), st.dims).conj()
        out[f"{label}_range"] = _square_down(wc)
    return out


TRACKER_SYSTEMS = tracker_systems()


class TestTrackerOracle:
    # the stored tangent and the error-sized step move no path's endpoint
    # class and no accepted root against the plain tracker
    @pytest.mark.parametrize("label", sorted(TRACKER_SYSTEMS))
    def test_same_roots_as_the_reference_tracker(self, label, monkeypatch):
        import pptlab.segre as segre_mod

        wc = TRACKER_SYSTEMS[label]
        points, _, paths, planes = _homotopy_roots(wc)
        monkeypatch.setattr(segre_mod, "_PathTracker", ReferenceTracker)
        ref_points, _, ref_paths, _ = _homotopy_roots(wc)
        assert paths == ref_paths
        assert len(points) == len(ref_points)
        for p, q in zip(points, ref_points):
            assert p.overlap(q) >= 1 - 1e-12
        # which endpoints span a plane may move, but every plane is in K
        for ls in planes:
            for w_vec in ls.subspace.vectors:
                a, b = (ls.vector, w_vec) if ls.side == "A" else (w_vec, ls.vector)
                assert np.linalg.norm(np.einsum('i,rij,j->r', a, wc, b)) < 1e-8


def tracked(tracker):
    """The tracker, advanced until no path is active, and its advance count."""
    advances = 0
    while tracker.active.any() and advances < segre._HOMOTOPY_MAX_STEPS:
        tracker.advance()
        advances += 1
    return tracker, advances


def random_square_system(m, n):
    """A seeded random complex square membership system of an m x n space."""
    rng = np.random.default_rng(5)
    shape = (m + n - 2, m, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# the tracker systems, and two where m or n is 1 and one patch has no direction
REDUCED_SYSTEMS = {**TRACKER_SYSTEMS, "random_1x3": random_square_system(1, 3),
                   "random_3x1": random_square_system(3, 1)}


class TestReducedTracker:
    # solving in the patch's own directions takes the same steps as the
    # bordered Jacobian: every tangent and correction is the same in exact
    # arithmetic, so the paths match advance for advance
    @pytest.mark.parametrize("label", sorted(REDUCED_SYSTEMS))
    def test_same_paths_as_the_bordered_tracker(self, label):
        wc = REDUCED_SYSTEMS[label]
        m = wc.shape[1]
        red, red_advances = tracked(_PathTracker(wc))
        ref, ref_advances = tracked(BorderedTracker(wc))
        assert red_advances == ref_advances
        for flag in ("finished", "diverged", "active"):
            assert np.array_equal(getattr(red, flag), getattr(ref, flag))
        assert np.abs(red.z - ref.z).max() <= 1e-10
        assert np.abs(red.z[:, :m] @ red.patch_a - 1).max() <= 1e-12
        assert np.abs(red.z[:, m:] @ red.patch_b - 1).max() <= 1e-12

    def test_every_solve_is_square_in_the_patch(self, monkeypatch):
        wc = TRACKER_SYSTEMS["bad_4x5_kernel"]
        shapes = set()
        original = segre._solve_rows
        monkeypatch.setattr(segre, "_solve_rows",
                            lambda jac, rhs: shapes.add(jac.shape[1:]) or original(jac, rhs))
        tracked(_PathTracker(wc))
        assert shapes == {(7, 7)}


class TestEndgameStop:
    # a path stopped in the endgame zone short of s = 1 is polished and
    # accepted by the rule of a finished one
    def test_good_3x6_stays_good_by_count_under_kappa_1000(self):
        state = slocc_changed(zoo.good_3xn(6), 1000, 102)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert (res.classification, res.count) == (Classification.FINITE, 21)
        assert (res.evidence["route"], res.evidence["starts_used"]) == ("homotopy", 0)
        paths = res.evidence["paths"]
        assert paths["accepted"] == 21 > paths["finished"]
        verdict = classify_goodness(state, enumeration=res)
        assert verdict.verdict == Goodness.GOOD
        assert verdict.reason == GoodnessReason.COUNT_EQUALS_DELTA

    def test_bad_4x5_keeps_its_count_under_kappa_1000(self):
        state = slocc_changed(zoo.bad_mxn(4, 5), 1000, 101)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert (res.classification, res.count) == (Classification.LIKELY_INFINITE, 19)
        assert res.evidence["route"] == "homotopy"


def in_class_of(pv, a, b):
    """Which rows of (a, b) the dedup rule puts in the class of pv."""
    return np.abs(a @ pv.a.conj()) * np.abs(b @ pv.b.conj()) > 1 - DEDUP_TOL


class TestOneSettlingRule:
    """delta certified distinct nonsingular points settle a square set,
    whichever search found them."""

    @staticmethod
    def enumerate_draw(seed):
        state = slocc_changed(zoo.good_3xn(6), 1000, seed)
        return state, enumerate_product_vectors(kernel_basis(state), state.dims)

    @pytest.mark.parametrize("seed", [100, 101])
    def test_the_round_completes_the_count(self, seed):
        # the homotopy holds 19 distinct points and the round finds the
        # other 2: the 21 settle the set, by the route that found them
        state, res = self.enumerate_draw(seed)
        ev = res.evidence
        assert (res.classification, res.count) == (Classification.FINITE, 21)
        assert ev["points_from"] == {"homotopy": 19, "multistart": 2}
        assert (ev["route"], ev["starts_used"], ev["rounds"]) == ("multistart", 400, 1)
        assert all(ev["transversal"]) and ev["min_separation_ratio"] > MARGIN_FACTOR
        verdict = classify_goodness(state, enumeration=res)
        assert (verdict.verdict, verdict.reason, verdict.count) == (
            Goodness.GOOD, GoodnessReason.COUNT_EQUALS_DELTA, 21)

    def test_the_homotopy_alone_keeps_its_route(self):
        _, res = self.enumerate_draw(102)
        assert (res.classification, res.count) == (Classification.FINITE, 21)
        assert res.evidence["points_from"] == {"homotopy": 21, "multistart": 0}
        assert (res.evidence["route"], res.evidence["rounds"]) == ("homotopy", 0)

    def test_a_withheld_round_point_leaves_the_set_inconclusive(self, monkeypatch):
        # the round's classes open after the homotopy's: withholding the
        # last one from every polish leaves 20 points and no count
        state, full = self.enumerate_draw(100)
        withheld = full.points[-1]
        original = segre._polish_batch

        def never_reaches(wc, a, b, iters):
            a, b, res = original(wc, a, b, iters)
            return a, b, np.where(in_class_of(withheld, a, b), 1.0, res)

        monkeypatch.setattr(segre, "_polish_batch", never_reaches)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert (res.classification, res.count) == (Classification.INCONCLUSIVE, 20)
        assert res.evidence["points_from"] == {"homotopy": 19, "multistart": 1}
        assert res.evidence["route"] == "multistart"

    @pytest.mark.parametrize("ratio,expected", [(MARGIN_FACTOR / 2, Classification.INCONCLUSIVE),
                                                (MARGIN_FACTOR * 2, Classification.FINITE)])
    def test_points_nearer_than_their_error_margin_do_not_count(self, ratio, expected,
                                                                monkeypatch):
        # scaling both Jacobian extremes keeps every rank test and scales
        # every forward error by the inverse: the closest pair then sits at
        # `ratio` times the sum of its forward errors
        state, full = self.enumerate_draw(100)
        scale = ratio / full.evidence["min_separation_ratio"]
        original = segre._jacobian_extremes
        monkeypatch.setattr(segre, "_jacobian_extremes",
                            lambda wc, a, b: tuple(scale * v for v in original(wc, a, b)))
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.evidence["min_separation_ratio"] == pytest.approx(ratio, rel=1e-9)
        assert all(res.evidence["transversal"])
        assert (res.classification, res.count) == (expected, 21)

    def test_a_singular_round_point_does_not_count(self, monkeypatch):
        # a round point whose Jacobian reads singular at RANK_TOL is not
        # transversal, so the 21 points do not settle the set, though its
        # forward error still leaves every pair certified distinct
        state, full = self.enumerate_draw(100)
        singular = full.points[-1]
        original = segre._jacobian_extremes

        def flattened(wc, a, b):
            smin, smax = original(wc, a, b)
            return np.where(in_class_of(singular, a, b), RANK_TOL / 2 * smax, smin), smax

        monkeypatch.setattr(segre, "_jacobian_extremes", flattened)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.evidence["transversal"].count(False) == 1
        assert res.evidence["min_separation_ratio"] > MARGIN_FACTOR
        assert (res.classification, res.count) == (Classification.INCONCLUSIVE, 21)

    def test_a_square_set_with_no_point_is_not_empty(self, monkeypatch):
        # m + n - 2 hyperplanes always meet the Segre variety: a square set
        # whose searches found nothing is inconclusive, never empty
        original = segre._polish_batch

        def round_accepts_nothing(wc, a, b, iters):
            a, b, res = original(wc, a, b, iters)
            return a, b, np.ones_like(res)

        monkeypatch.setattr(segre, "_homotopy_roots",
                            lambda wc: ([], [], {"tracked": 10, "finished": 0, "accepted": 0,
                                                 "on_plane": 0}, []))
        monkeypatch.setattr(segre, "_polish_batch", round_accepts_nothing)
        state = zoo.good_3x4()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert (res.classification, res.count) == (Classification.INCONCLUSIVE, 0)
        assert res.evidence["points_from"] == {"homotopy": 0, "multistart": 0}
        assert res.evidence["min_separation_ratio"] is None


def separable_terms(m, n, r, shared, seed):
    """r complex Gaussian product terms, the first `shared` of them on one
    A factor; with shared = 0, nonzero integer factors in {-1, 0, 1}^d."""
    rng = np.random.default_rng(seed)

    def draw(d):
        if shared:
            return rng.standard_normal(d) + 1j * rng.standard_normal(d)
        while True:
            v = rng.integers(-1, 2, size=d).astype(float)
            if v.any():
                return v

    a0 = draw(m) if shared else None
    return [ProductVector(a0 if i < shared else draw(m), draw(n)) for i in range(r)]


GOOD_EMPTY = (Goodness.GOOD, GoodnessReason.EMPTY_INTERSECTION)
BAD_POINTS = (Goodness.BAD, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X)
BAD_INFINITE = (Goodness.BAD, GoodnessReason.INFINITE_COMPONENT)


class TestSeparable:
    @pytest.mark.parametrize("m, n, r, shared, seed, expected", [
        (2, 2, 3, 1, 26, GOOD_EMPTY), (2, 2, 3, 2, 27, BAD_POINTS),
        (2, 3, 4, 1, 28, GOOD_EMPTY), (2, 3, 4, 2, 29, BAD_POINTS),
        (2, 3, 4, 3, 30, BAD_INFINITE),
        (2, 3, 5, 1, 29, GOOD_EMPTY), (2, 3, 5, 2, 30, GOOD_EMPTY),
        (2, 3, 5, 3, 31, BAD_POINTS),
        (3, 3, 5, 1, 39, GOOD_EMPTY), (3, 3, 5, 2, 40, BAD_POINTS),
        (3, 3, 5, 3, 41, BAD_INFINITE),
        (3, 3, 6, 1, 40, GOOD_EMPTY), (3, 3, 6, 2, 41, GOOD_EMPTY),
        (3, 3, 6, 3, 42, BAD_POINTS),
        (3, 4, 6, 1, 41, GOOD_EMPTY), (3, 4, 6, 2, 42, BAD_POINTS),
        (3, 4, 6, 3, 43, BAD_INFINITE),
        (3, 4, 7, 1, 42, GOOD_EMPTY), (3, 4, 7, 2, 43, GOOD_EMPTY),
        (3, 4, 7, 3, 44, BAD_POINTS),
        (4, 4, 7, 1, 52, GOOD_EMPTY), (4, 4, 7, 2, 53, BAD_POINTS),
        (4, 4, 7, 3, 54, BAD_INFINITE),
        (3, 3, 5, 0, 0, BAD_POINTS), (3, 3, 5, 0, 1, BAD_INFINITE),
    ])
    def test_partition_ranks_agree_with_the_kernel_route(self, m, n, r, shared, seed,
                                                         expected):
        # above the borderline rank, the kernel of sum_i |a_i b_i><a_i b_i|
        # decides goodness on its own; the homotopy must reach the verdict
        # and reason that the partition ranks give
        dims = BipartiteDims(m, n)
        pvs = separable_terms(m, n, r, shared, seed)
        state = BipartiteState(HermitianOperator(
            dims, sum(np.outer(pv.vec(), pv.vec().conj()) for pv in pvs)))
        assert r > m + n - 2 and len(state.split()[1]) == r
        by_ranks = classify_separable_good(pvs, dims)
        by_kernel = classify_goodness(state)
        assert (by_ranks.verdict, by_ranks.reason) == expected
        assert (by_kernel.verdict, by_kernel.reason) == expected

    def test_partition_guard(self):
        pvs = [ProductVector([1.0, 0], [1.0, 0])] * 21
        with pytest.raises(ValueError, match="at most 20"):
            classify_separable_good(pvs, BipartiteDims(2, 2))

    @pytest.mark.parametrize("a, b", [
        ([1.0, 0], [1.0, 0, 0, 0]), ([1.0, 0, 0, 0], [1.0, 0]), ([1.0, 0], [1.0, 0, 0]),
    ])
    def test_refuses_factors_of_the_wrong_length(self, a, b):
        pvs = [ProductVector(np.roll(a, k), np.roll(b, k)) for k in range(3)]
        shapes = rf"\({len(a)}, {len(b)}\), not \(2, 2\)"
        with pytest.raises(ValueError, match=shapes):
            classify_separable_good(pvs, BipartiteDims(2, 2))

    def test_classify_bad_four_term(self):
        pvs = [ProductVector(np.eye(3)[i], np.eye(3)[i]) for i in range(3)]
        pvs.append(ProductVector([0, 1.0, 1.0], [0, 1.0, 1.0]))
        # |0> (x) |0>^perp and |0>^perp (x) |0> lie in the kernel
        verdict = classify_separable_good(pvs, BipartiteDims(3, 3))
        assert (verdict.verdict, verdict.reason) == BAD_INFINITE

    def test_classify_bad_by_partition(self):
        # three terms in 2 x 2, above m + n - 2 = 2; the two sharing |0> on
        # A leave |1> (x) b_3^perp in the kernel, so the partition of those
        # two against the third spans neither side
        b3 = np.array([1.0, 1.0]) / np.sqrt(2)
        pvs = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([1.0, 0], [0, 1.0]),
               ProductVector([0, 1.0], b3)]
        verdict = classify_separable_good(pvs, BipartiteDims(2, 2))
        assert (verdict.verdict, verdict.reason) == (
            Goodness.BAD, GoodnessReason.COUNT_BELOW_DELTA_WITH_NONEMPTY_X)

    def test_classify_good_two_term(self):
        pvs = [ProductVector([1.0, 0], [1.0, 0]), ProductVector([0, 1.0], [0, 1.0])]
        verdict = classify_separable_good(pvs, BipartiteDims(2, 2))
        assert verdict.verdict == Goodness.GOOD

    def test_classify_werner_decomposition_good(self):
        # tetrahedron directions: sum of the four |tt><tt| is proportional
        # to the projector onto the symmetric subspace, a Werner state
        bloch = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        pvs = []
        for x, y, z in bloch:
            theta = np.arccos(z)
            phi = np.arctan2(y, x)
            ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            pvs.append(ProductVector(ket, ket))
        recon = sum(1.5 * np.outer(pv.vec(), pv.vec().conj()) for pv in pvs)
        assert np.abs(recon - werner_2x2().matrix).max() < 1e-12
        verdict = classify_separable_good(pvs, BipartiteDims(2, 2))
        assert verdict.verdict == Goodness.GOOD
        assert verdict.reason == GoodnessReason.EMPTY_INTERSECTION


class TestDeltaCountSpans:
    def test_full_count_factors_span_both_sides(self):
        state = zoo.good_3x4()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.count == zoo.delta(3, 4)
        amat = np.array([pv.a for pv in res.points])
        bmat = np.array([pv.b for pv in res.points])
        assert np.linalg.matrix_rank(amat, tol=1e-9) == 3
        assert np.linalg.matrix_rank(bmat, tol=1e-9) == 4


class TestGeneralPositionLargeN:
    @pytest.mark.parametrize("n", [5, 6])
    def test_good_family_default_draw_in_general_position(self, n):
        # matches the published verification range n = 4, 5, 6; above that
        # the property is open and only ever checked, never assumed
        state = zoo.good_3xn(n)
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        assert res.count == n * (n + 1) // 2
        assert general_position(res.points, state.dims)

    def test_subset_budget_guard(self):
        # 24 terms on C^3 (x) C^8: the A side, Vandermonde rows, is in general
        # position in C(24, 3) subsets, and the B side needs C(24, 8) = 735,471
        # subsets, above the budget of 500,000
        pvs = [ProductVector(np.array([1.0, k, k * k]), np.arange(8) + k)
               for k in range(1, 25)]
        with pytest.raises(ValueError, match="735471 subsets, above the budget of 500000"):
            general_position(pvs, BipartiteDims(3, 8))


class TestPartialConjugateBijection:
    @pytest.mark.parametrize("state_fn", [zoo.good_3x4, lambda: zoo.good_3xn(5)])
    def test_counts_match_on_gamma_invariant_states(self, state_fn):
        state = state_fn()
        res = enumerate_product_vectors(kernel_basis(state), state.dims)
        partners = [partial_conjugate(pv) for pv in res.points]
        # gamma-invariant state: the kernel of the partial transpose is the
        # same subspace, so the conjugated family must match the original
        assert match_sets(res.points, partners)
