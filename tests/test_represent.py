import math
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridematch import represent
from ridematch.geo import GeoPoint, geohash_encode
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


def _reference_st_edge_set(route, request_time, space_precision, time_interval_s):
    """st_edge_set as a list of arrivals, a list of (cell, bucket) nodes and a
    collapsing loop over them."""
    arrivals = [request_time]
    for d in route.segment_durations:
        arrivals.append(arrivals[-1] + d)
    nodes = [
        (geohash_encode(p, space_precision), math.floor(t / time_interval_s))
        for p, t in zip(route.points, arrivals)
    ]
    edges = {}
    current = nodes[0]
    accum = 0.0
    for i in range(1, len(nodes)):
        accum += route.segment_durations[i - 1]
        if nodes[i] == current:
            continue
        if accum > 0.0:
            edge = SpaceTimeEdge(current[0], current[1], nodes[i][0], nodes[i][1])
            edges[edge] = edges.get(edge, 0.0) + accum
        current = nodes[i]
        accum = 0.0
    return edges


def _reference_feature_hash(v, d, seed):
    """feature_hash as one blake2b per key, accumulated into zeros."""
    out = np.zeros(d)
    skey = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    for key, mag in v.items():
        data = key if isinstance(key, bytes) else key.encode() if isinstance(key, str) else repr(key).encode()
        h = int.from_bytes(blake2b(data, digest_size=8, key=skey).digest(), "big")
        out[(h >> 1) % d] += (1.0 - 2.0 * (h & 1)) * mag
    return out


# Four points two geohash-7 cells apart, one a few metres from its neighbour
# (same cell), so routes revisit cells and collapse runs.
_PLACES = [
    GeoPoint(40.74, -73.99),
    GeoPoint(40.75, -73.99),
    GeoPoint(40.75003, -73.99003),
    GeoPoint(40.76, -73.98),
]


@st.composite
def _routes(draw):
    n = draw(st.integers(1, 12))
    points = [_PLACES[i] for i in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    # zero-duration segments, durations that land exactly on bucket boundaries
    duration = st.sampled_from([0.0, 0.0, 1.5, 100.0, 600.0, 1199.5, 1200.0]) | st.floats(0.0, 3000.0)
    durations = draw(st.lists(duration, min_size=n - 1, max_size=n - 1))
    request = draw(st.sampled_from([0.0, 1199.0, 1200.0, -600.0]) | st.floats(-1e6, 1e9))
    interval = draw(st.sampled_from([1200.0, 600.0, 7.0]))
    return _route(points, durations), request, interval


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

    def test_bad_interval_rejected(self):
        route = _route([_PLACES[0]], [])
        for interval in (0.0, -5.0):
            with pytest.raises(ValueError, match="interval must be positive"):
                st_edge_set(route, 0.0, 7, interval)

    @settings(max_examples=300, deadline=None)
    @given(case=_routes(), precision=st.sampled_from([5, 7]))
    def test_matches_reference_loop(self, case, precision):
        route, request, interval = case
        got = st_edge_set(route, request, precision, interval)
        want = _reference_st_edge_set(route, request, precision, interval)
        assert list(got.items()) == list(want.items())  # keys, costs and their order
        for edge in got:
            assert type(edge) is SpaceTimeEdge
            assert [type(f) for f in edge] == [str, int, str, int]

    def test_cell_cache_bound(self):
        assert represent._cell_of.cache_info().maxsize == represent._CELL_CACHE_SIZE == 1 << 17


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

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.text(max_size=3) | st.integers(-5, 5), max_size=30),
        mags=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300])
            | st.floats(-1e3, 1e3)
            | st.floats(-1e3, 1e3, width=32).map(np.float32)
            | st.floats(-1e3, 1e3).map(np.float64),
            max_size=30,
        ),
        d=st.sampled_from([2, 4, 64]),
        seed=st.integers(0, 2**70),
    )
    def test_matches_reference(self, keys, mags, d, seed):
        # small d: many keys share a slot, so the summation order shows; a
        # float32 magnitude must still be summed in float64
        v = dict(zip(keys, mags))
        want = _reference_feature_hash(v, d, seed).tobytes()
        assert feature_hash(v, d, seed).tobytes() == want
        assert feature_hash(v, d, seed, {}).tobytes() == want

    @pytest.mark.parametrize(
        "a, b",
        [
            (SpaceTimeEdge("c0", 1, "c1", 2), ("c0", 1, "c1", 2)),
            (SpaceTimeEdge("c0", 1, "c1", 2), SpaceTimeEdge("c0", 1.0, "c1", 2)),
            (SpaceTimeEdge("c0", 1, "c1", 2), SpaceTimeEdge("c0", True, "c1", 2)),
            (SpaceTimeEdge("c0", 1, "c1", 2), SpaceTimeEdge("c0", 1, "c1", 2.0)),
            (SpaceTimeEdge("c0", 1, "c1", 1), SpaceTimeEdge("c0", 1, "c1", True)),
            (True, 1),
            (("x", False), ("x", 0)),
        ],
    )
    def test_equal_keys_of_other_bytes_get_their_own_slot(self, a, b):
        assert a == b and repr(a) != repr(b)
        assert not np.array_equal(_reference_feature_hash({a: 2.0}, 1024, 11), _reference_feature_hash({b: 2.0}, 1024, 11))
        for first, second in ((a, b), (b, a)):
            represent._slot.cache_clear()
            for key in (first, second, first, second):  # cold, then warm
                for d, seed in ((8, 3), (1024, 11)):
                    want = _reference_feature_hash({key: 2.0}, d, seed)
                    assert feature_hash({key: 2.0}, d, seed).tobytes() == want.tobytes()

    def test_slot_cache_bound(self):
        assert represent._slot.cache_info().maxsize == represent._SLOT_CACHE_SIZE == 1 << 16

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
