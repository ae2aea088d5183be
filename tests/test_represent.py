import math

import numpy as np
import pytest

from ridematch.geo import GeoPoint
from ridematch.represent import (
    DegenerateInputError,
    SpaceTimeEdge,
    feature_hash,
    normalize_dataset,
    preprocessing_vector,
    query_vector,
    sparse_inner,
    st_edge_set,
    transform_P_batch,
    transform_Q,
    unit_normalize,
)
from ridematch.roadnet import Route


def _route(points, durations):
    return Route(points=points, segment_durations=durations, total_duration=math.fsum(durations))


class TestStEdgeSet:
    def test_single_cell_route_collapses(self):
        # points ~5 m apart stay in one geohash-7 cell; one time bucket
        p0 = GeoPoint(40.74000, -73.99000)
        p1 = GeoPoint(40.74003, -73.99003)
        s = st_edge_set(_route([p0, p1], [30.0]), 0.0, 7, 1200.0)
        assert s == {}

    def test_two_cell_route_single_edge(self):
        p0 = GeoPoint(40.74, -73.99)
        p1 = GeoPoint(40.75, -73.99)  # ~1.1 km north: different cell
        s = st_edge_set(_route([p0, p1], [45.0]), 0.0, 7, 1200.0)
        assert len(s) == 1
        ((edge, cost),) = s.items()
        assert cost == 45.0
        assert edge.from_bucket == 0 and edge.to_bucket == 0

    def test_reversed_route_shares_no_edges(self):
        pts = [GeoPoint(40.74 + 0.01 * i, -73.99) for i in range(5)]
        durs = [40.0, 50.0, 45.0, 55.0]
        fwd = st_edge_set(_route(pts, durs), 0.0, 7, 1200.0)
        rev = st_edge_set(_route(pts[::-1], durs[::-1]), 0.0, 7, 1200.0)
        assert fwd and rev
        assert set(fwd) & set(rev) == set()

    def test_revisited_edge_accumulates(self):
        a = GeoPoint(40.74, -73.99)
        b = GeoPoint(40.75, -73.99)
        single = st_edge_set(_route([a, b], [40.0]), 0.0, 7, 1200.0)
        (ab,) = single.keys()
        s = st_edge_set(_route([a, b, a, b], [40.0, 50.0, 60.0]), 0.0, 7, 1200.0)
        assert s[ab] == 100.0  # 40 + 60 accumulated on the repeated A->B edge

    def test_time_buckets_annotate_arrival(self):
        a = GeoPoint(40.74, -73.99)
        b = GeoPoint(40.75, -73.99)
        c = GeoPoint(40.76, -73.99)
        s = st_edge_set(_route([a, b, c], [700.0, 700.0]), 0.0, 7, 1200.0)
        buckets = sorted((e.from_bucket, e.to_bucket) for e in s)
        assert buckets == [(0, 0), (0, 1)]

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            st_edge_set(Route(points=[], segment_durations=[], total_duration=0.0), 0.0, 7, 1200.0)


class TestSparseVectors:
    def _set(self, rng, n):
        out = {}
        for i in range(n):
            e = SpaceTimeEdge(f"c{rng.integers(40)}", int(rng.integers(3)), f"c{rng.integers(40)}", int(rng.integers(3)))
            out[e] = float(rng.integers(10, 100))
        return out

    def test_empty(self):
        assert preprocessing_vector({}) == {}
        assert query_vector({}) == {}

    def test_magnitudes(self):
        e1 = SpaceTimeEdge("a", 0, "b", 0)
        e2 = SpaceTimeEdge("b", 0, "c", 0)
        s = {e1: 30.0, e2: 45.0}
        assert preprocessing_vector(s) == {e1: 30.0, e2: 45.0}
        assert query_vector(s) == {e1: 1.0, e2: 1.0}
        assert sparse_inner(preprocessing_vector(s), query_vector(s)) == 75.0

    def test_inner_product_equals_intersection_cost(self, rng):
        for _ in range(100):
            a = self._set(rng, int(rng.integers(1, 30)))
            b = self._set(rng, int(rng.integers(1, 30)))
            got = sparse_inner(preprocessing_vector(a), query_vector(b))
            want = math.fsum(a[e] for e in set(a) & set(b))
            assert got == want


class TestNormalizeDataset:
    def test_max_norm_hits_target(self, rng):
        mat = rng.normal(size=(40, 16))
        scaled, scale = normalize_dataset(mat, 0.75)
        norms = np.linalg.norm(scaled, axis=1)
        assert abs(norms.max() - 0.75) < 1e-12
        assert scale > 0

    def test_ranking_invariance(self, rng):
        mat = np.abs(rng.normal(size=(50, 12)))
        q = np.abs(rng.normal(size=12))
        before = np.argsort(-(mat @ q), kind="stable")
        scaled, _ = normalize_dataset(mat, 0.75)
        after = np.argsort(-(scaled @ unit_normalize(q)), kind="stable")
        assert np.array_equal(before, after)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_dataset(np.zeros((3, 4)), 0.75)


class TestFeatureHash:
    def test_empty_vector(self):
        assert np.array_equal(feature_hash({}, 8, 0), np.zeros(8))

    def test_single_entry(self):
        out = feature_hash({"key": 3.5}, 16, 1)
        nz = np.nonzero(out)[0]
        assert len(nz) == 1
        assert abs(out[nz[0]]) == 3.5

    def test_deterministic(self):
        v = {"a": 1.0, "b": 2.0, "c": 3.0}
        assert np.array_equal(feature_hash(v, 32, 5), feature_hash(v, 32, 5))

    def test_unbiased_inner_product(self, rng):
        x = {f"k{i}": float(rng.uniform(1, 5)) for i in range(20)}
        y = {f"k{i}": float(rng.uniform(1, 5)) for i in range(10, 30)}
        exact = math.fsum(x[k] * y[k] for k in set(x) & set(y))
        est = np.mean([
            float(feature_hash(x, 64, s) @ feature_hash(y, 64, s)) for s in range(200)
        ])
        assert abs(est - exact) / exact < 0.05

    def test_memo_keeps_every_row_bit_identical(self, rng):
        rows = [{f"k{j}": float(rng.uniform(-3, 3)) for j in rng.choice(40, 15, replace=False)}
                for _ in range(10)]
        memo: dict = {}
        for v in rows:
            assert feature_hash(v, 16, 9, memo).tobytes() == feature_hash(v, 16, 9).tobytes()
        assert set(memo) == set().union(*rows)

    def test_non_power_of_two_rejected(self):
        for d in (0, 1, 3, 48):
            with pytest.raises(ValueError):
                feature_hash({"a": 1.0}, d, 0)


class TestTransforms:
    def test_zero_vector(self):
        out = transform_P_batch(np.zeros((1, 4)), 2)
        assert np.array_equal(out, [[0, 0, 0, 0, 0.5, 0.5]])

    def test_known_norm_tail(self):
        x = np.zeros((1, 6))
        x[0, 0] = 0.75
        (out,) = transform_P_batch(x, 2)
        assert out[-2] == pytest.approx(0.5 - 0.5625, abs=1e-15)       # 1/2 - 0.75^2
        assert out[-1] == pytest.approx(0.5 - 0.31640625, abs=1e-15)   # 1/2 - 0.75^4
        assert out[-2] == -0.0625
        assert out[-1] == 0.18359375

    def test_inner_product_identity(self, rng):
        p = rng.normal(size=(100, 24))
        p = p / np.linalg.norm(p, axis=1, keepdims=True) * rng.uniform(0.0, 0.75, size=(100, 1))
        pmat = transform_P_batch(p, 2)
        for i in range(100):
            q = unit_normalize(rng.normal(size=24))
            lhs = float(transform_Q(q, 2) @ pmat[i])
            assert abs(lhs - float(q @ p[i])) < 1e-12

    def test_norm_identity(self, rng):
        for m in (1, 2, 3):
            x = rng.normal(size=(5, 16))
            x = x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.0, 0.75, size=(5, 1))
            norm_sq = np.linalg.norm(transform_P_batch(x, m), axis=1) ** 2
            want = m / 4 + np.linalg.norm(x, axis=1) ** (2 ** (m + 1))
            assert np.all(np.abs(norm_sq - want) < 1e-12)

    def test_q_appends_zeros_and_keeps_norm(self, rng):
        q = unit_normalize(rng.normal(size=10))
        out = transform_Q(q, 2)
        assert len(out) == 12
        assert np.array_equal(out[-2:], [0.0, 0.0])
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_norm_too_large_rejected(self):
        with pytest.raises(ValueError):
            transform_P_batch(np.ones((2, 4)), 2)  # norm 2
        x = np.zeros((2, 4))
        x[1, 0] = 1.0  # norm exactly 1 in one row
        with pytest.raises(ValueError):
            transform_P_batch(x, 2)

    def test_zero_query_rejected(self):
        with pytest.raises(DegenerateInputError):
            transform_Q(np.zeros(4), 2)
        with pytest.raises(DegenerateInputError):
            unit_normalize(np.zeros(3))
