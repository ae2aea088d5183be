import heapq
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from ridematch import roadnet
from ridematch.geo import GeoPoint, haversine_km_arrays
from ridematch.roadnet import (
    ALT_ACCEPT_RATIO,
    ALT_EDGE_PENALTY,
    NoRouteError,
    RoadNetwork,
    Route,
    RoutingLedger,
    _csr_graph,
    _sssp,
    batch_route_multi,
    build_city_network,
    build_grid_network,
    route,
)
from ridematch.trips import synth_commute
from ridematch.utility import pairwise_utilities


def brute_force_shortest(net, s, t):
    """Exhaustive minimum over all simple paths (small grids only)."""
    adj = {}
    for u, v, d in zip(net.edge_u, net.edge_v, net.edge_duration):
        adj.setdefault(int(u), []).append((int(v), float(d)))
    best = math.inf
    stack = [(s, 0.0, {s})]
    while stack:
        node, cost, seen = stack.pop()
        if cost >= best:
            continue
        if node == t:
            best = cost
            continue
        for v, d in adj.get(node, []):
            if v not in seen:
                stack.append((v, cost + d, seen | {v}))
    return best


def reference_sssp(indptr, indices, weights, source):
    """Heap Dijkstra with pops ordered by (distance, node); defines the tree-edge tie rule."""
    n = len(indptr) - 1
    dist = np.full(n, np.inf)
    pred_edge = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for e in range(indptr[u], indptr[u + 1]):
            v = int(indices[e])
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                pred_edge[v] = e
                heapq.heappush(heap, (nd, v))
    return dist, pred_edge


def tails_of(indptr):
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def random_int_digraph(rng, n):
    """CSR digraph with 0-3 out-edges per node (parallel edges allowed), weights in {1, 2, 3}."""
    edges = sorted(
        (u, int(v), float(rng.integers(1, 4)))
        for u in range(n)
        for v in rng.integers(0, n, size=rng.integers(0, 4))
        if u != v
    )
    indptr = np.searchsorted([e[0] for e in edges], np.arange(n + 1)).astype(np.int64)
    indices = np.array([e[1] for e in edges], dtype=np.int64)
    weights = np.array([e[2] for e in edges], dtype=np.float64)
    return indptr, indices, weights


def _two_node_data(edges):
    """Network dict of nodes 0 and 1 with the given (u, v, duration_s) edges."""
    return {
        "nodes": [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1, "lat": 0.0, "lon": 0.01}],
        "edges": [{"u": u, "v": v, "duration_s": d, "length_m": 1000.0} for u, v, d in edges],
    }


class TestSssp:
    def test_small_graph(self):
        # 0 -> 1 (1.0), 0 -> 2 (4.0), 1 -> 2 (1.5), 1 -> 3 (5.0), 2 -> 3 (1.0)
        indptr = np.array([0, 2, 4, 5, 5], dtype=np.int64)
        indices = np.array([1, 2, 2, 3, 3], dtype=np.int64)
        weights = np.array([1.0, 4.0, 1.5, 5.0, 1.0])
        dist, pred_edge = _sssp(_csr_graph(indptr, indices, weights), tails_of(indptr), 0)
        assert np.allclose(dist, [0.0, 1.0, 2.5, 3.5])
        assert pred_edge.tolist() == [-1, 0, 2, 4]

    def test_pred_tie_rule_matches_reference_heap(self):
        grid = build_grid_network(12, 12)
        unit = (grid.indptr, grid.edge_v, np.ones(len(grid.edge_v)))  # every path ties
        rng = np.random.default_rng(7)
        graphs = [unit] + [random_int_digraph(rng, 30) for _ in range(20)]
        unreachable = no_neighbour_source = tight_parallel = 0
        for g in graphs:
            indptr, indices, weights = g
            graph, tails = _csr_graph(*g), tails_of(indptr)
            for s in range(len(indptr) - 1):
                dist, pred_edge = _sssp(graph, tails, s)
                ref_dist, ref_pred_edge = reference_sssp(*g, s)
                assert np.array_equal(dist, ref_dist)
                assert np.array_equal(pred_edge, ref_pred_edge)
                unreachable += int(np.isinf(dist).sum())
                no_neighbour_source += int(np.isfinite(dist).sum() == 1)
                # tree edges with an equally tight parallel edge right after them
                e = pred_edge[pred_edge >= 0]
                e = e[e + 1 < len(indices)]
                tight_parallel += int(np.sum((tails[e + 1] == tails[e]) & (indices[e + 1] == indices[e])
                                             & (weights[e + 1] == weights[e])))
        assert unreachable > 0 and no_neighbour_source > 0 and tight_parallel > 0

    def test_penalized_weights_match_reference_heap(self):
        # as alternate routes re-solve: used edges penalized round after round
        grid = build_grid_network(12, 12)
        unit = RoadNetwork(grid.node_lat, grid.node_lon, grid.edge_u, grid.edge_v,
                           np.ones(len(grid.edge_u)), grid.edge_length)  # every path ties
        rng = np.random.default_rng(5)
        for net, stride in ((unit, 1), (build_city_network(21, 21, 500.0, seed=42), 5)):
            weights = net.edge_duration.copy()
            for _ in range(3):
                weights[rng.choice(len(weights), 60, replace=False)] *= ALT_EDGE_PENALTY
                graph = _csr_graph(net.indptr, net.edge_v, weights)
                for s in range(0, net.n_nodes, stride):
                    dist, pred_edge = _sssp(graph, net.edge_u, s)
                    ref_dist, ref_pred_edge = reference_sssp(net.indptr, net.edge_v, weights, s)
                    assert np.array_equal(dist, ref_dist)
                    assert np.array_equal(pred_edge, ref_pred_edge)
            assert np.array_equal(net._graph.data, net.edge_duration)


class TestGridNetwork:
    def test_2x2_combinatorics(self):
        net = build_grid_network(2, 2, 500.0, 0)
        assert net.n_nodes == 4
        assert len(net.edge_u) == 8

    def test_3x3_combinatorics(self):
        net = build_grid_network(3, 3, 500.0, 0)
        assert net.n_nodes == 9
        assert len(net.edge_u) == 24  # 2*(rows*(cols-1) + cols*(rows-1))

    def test_seed_determinism(self):
        a = build_grid_network(4, 4, 500.0, 7)
        b = build_grid_network(4, 4, 500.0, 7)
        assert np.array_equal(a.edge_duration, b.edge_duration)

    def test_speeds_in_range(self):
        net = build_grid_network(6, 6, 500.0, 3)
        speeds = 500.0 / net.edge_duration
        assert speeds.min() >= 6.0
        assert speeds.max() <= 14.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_grid_network(1, 5, 500.0, 0)


class TestRoute:
    def test_same_snap_node(self, grid5):
        p = grid5.node_point(0)
        routes = route(grid5, p, p)
        assert len(routes) == 1
        assert routes[0].total_duration == 0.0
        assert routes[0].segment_durations == []

    def test_adjacent_nodes_single_segment(self, grid5):
        routes = route(grid5, grid5.node_point(0), grid5.node_point(1))
        assert len(routes[0].segment_durations) == 1
        e = np.nonzero((grid5.edge_u == 0) & (grid5.edge_v == 1))[0][0]
        assert routes[0].total_duration == grid5.edge_duration[e]

    def test_dijkstra_vs_brute_force(self):
        for seed in (0, 1, 2):
            net = build_grid_network(4, 4, 500.0, seed)
            for s, t in [(0, 15), (3, 12), (5, 10)]:
                got = route(net, net.node_point(s), net.node_point(t))[0].total_duration
                assert abs(got - brute_force_shortest(net, s, t)) < 1e-9

    def test_dijkstra_vs_brute_force_5x5(self):
        net = build_grid_network(5, 5, 500.0, 3)
        for s, t in [(0, 24), (2, 22)]:
            got = route(net, net.node_point(s), net.node_point(t))[0].total_duration
            assert abs(got - brute_force_shortest(net, s, t)) < 1e-9

    def test_alternates_on_grid(self):
        net = build_grid_network(3, 3, 500.0, 5)
        routes = route(net, net.node_point(0), net.node_point(8), alternates=2)
        assert 1 <= len(routes) <= 2
        if len(routes) == 2:
            assert routes[1].total_duration <= ALT_ACCEPT_RATIO * routes[0].total_duration
            assert set(zip(routes[0].nodes, routes[0].nodes[1:])) != set(
                zip(routes[1].nodes, routes[1].nodes[1:])
            )
            assert routes[0].total_duration <= routes[1].total_duration

    def test_parallel_edges_route_on_the_shortest(self):
        # two edges 0 -> 1 of 3 s and 5 s; the route must take the 3 s one
        net = RoadNetwork.from_dict(_two_node_data([(0, 1, 3.0), (0, 1, 5.0), (1, 0, 4.0)]))
        best = route(net, net.node_point(0), net.node_point(1))[0]
        assert best.total_duration == net.distance_matrix([0])[0, 1] == 3.0
        assert best.nodes == [0, 1] and best.segment_durations == [3.0]

    def test_alternate_takes_the_other_parallel_edge(self):
        # penalized 3 s -> 4.5 s, so the 3.5 s parallel edge is the alternate:
        # same nodes, a different edge set, within ALT_ACCEPT_RATIO. Then
        # 3.5 s -> 5.25 s brings back the 3 s edge, a repeat, which ends it.
        net = RoadNetwork.from_dict(_two_node_data([(0, 1, 3.0), (0, 1, 3.5), (0, 1, 9.0)]))
        routes = route(net, net.node_point(0), net.node_point(1), alternates=3)
        assert [r.segment_durations for r in routes] == [[3.0], [3.5]]
        assert [r.nodes for r in routes] == [[0, 1], [0, 1]]

    def test_route_invariants(self, grid5):
        r = route(grid5, grid5.node_point(0), grid5.node_point(24))[0]
        assert abs(r.total_duration - math.fsum(r.segment_durations)) < 1e-9
        assert len(r.segment_durations) == len(r.points) - 1

    def test_route_validation(self):
        with pytest.raises(ValueError):
            Route(points=[GeoPoint(0, 0)], segment_durations=[1.0], total_duration=1.0)
        with pytest.raises(ValueError):
            Route(
                points=[GeoPoint(0, 0), GeoPoint(0, 0.01)],
                segment_durations=[1.0],
                total_duration=2.0,
            )


class TestBatchRoute:
    def test_single_request(self, grid5):
        ledger = RoutingLedger()
        batch_route_multi(grid5, [(grid5.node_point(0), grid5.node_point(5))], ledger)
        assert ledger.call_count == 1
        assert ledger.batch_count == 1
        assert ledger.simulated_latency_ms == 10.0

    def test_250_requests_three_batches(self, grid5):
        ledger = RoutingLedger()
        reqs = [(grid5.node_point(0), grid5.node_point(5))] * 250
        batch_route_multi(grid5, reqs, ledger)
        assert ledger.call_count == 250
        assert ledger.batch_count == 3
        assert ledger.simulated_latency_ms == 30.0

    def test_empty(self, grid5):
        ledger = RoutingLedger()
        batch_route_multi(grid5, [], ledger)
        assert ledger.call_count == 0
        assert ledger.batch_count == 0
        assert ledger.simulated_latency_ms == 0.0

    def test_unreachable_marked_none(self):
        # two disconnected 2-node components
        data = {
            "nodes": [
                {"id": 0, "lat": 0.0, "lon": 0.0},
                {"id": 1, "lat": 0.0, "lon": 0.01},
                {"id": 2, "lat": 0.5, "lon": 0.0},
                {"id": 3, "lat": 0.5, "lon": 0.01},
            ],
            "edges": [
                {"u": 0, "v": 1, "duration_s": 60.0, "length_m": 1000.0},
                {"u": 1, "v": 0, "duration_s": 60.0, "length_m": 1000.0},
                {"u": 2, "v": 3, "duration_s": 60.0, "length_m": 1000.0},
                {"u": 3, "v": 2, "duration_s": 60.0, "length_m": 1000.0},
            ],
        }
        net = RoadNetwork.from_dict(data)
        with pytest.raises(NoRouteError):
            route(net, GeoPoint(0.0, 0.0), GeoPoint(0.5, 0.0))
        ledger = RoutingLedger()
        out = batch_route_multi(net, [(GeoPoint(0.0, 0.0), GeoPoint(0.5, 0.0))], ledger)
        assert out == [None]
        assert ledger.call_count == 1


class TestBatchRouteMulti:
    @pytest.fixture(scope="class")
    def city_and_island(self):
        """A 6x6 city (nodes 0-35) plus two nodes 36, 37 that reach only each other."""
        data = build_city_network(6, 6, 500.0, seed=4, arterial_every=3).to_dict()
        data["nodes"] += [{"id": 36, "lat": 41.0, "lon": -74.0}, {"id": 37, "lat": 41.0, "lon": -73.99}]
        data["edges"] += [
            {"u": 36, "v": 37, "duration_s": 60.0, "length_m": 900.0},
            {"u": 37, "v": 36, "duration_s": 60.0, "length_m": 900.0},
        ]
        return RoadNetwork.from_dict(data)

    def test_equals_per_request_route(self, city_and_island):
        net = city_and_island
        rng = np.random.default_rng(11)

        def near(node):
            p = net.node_point(node)
            return GeoPoint(p.lat + rng.uniform(-1e-4, 1e-4), p.lon + rng.uniform(-1e-4, 1e-4))

        pairs = [(0, 35), (5, 30), (0, 35), (7, 7), (3, 36), (5, 30), (14, 2), (0, 35), (0, 30), (5, 35), (5, 0)]
        requests = [(near(s), near(t)) for s, t in pairs]
        for alternates in (1, 3):
            ledger = RoutingLedger()
            out = batch_route_multi(net, requests, ledger, alternates=alternates)
            assert ledger.call_count == len(requests)
            assert len(out) == len(requests)
            for (origin, dest), got in zip(requests, out):
                try:
                    want = route(net, origin, dest, alternates=alternates)
                except NoRouteError:
                    assert got is None
                    continue
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.nodes == w.nodes
                    assert g.segment_durations == w.segment_durations
                    assert g.total_duration == w.total_duration
        assert out[4] is None
        assert [r.nodes for r in out[3]] == [[7]]
        assert any(len(routes) > 1 for routes in out if routes is not None)
        # requests of one pair share Routes, never the list that holds them
        first, again = out[0], out[2]
        assert first is not again and first[0] is again[0]
        first.append(first[0])
        assert len(again) == len(out[7]) == len(first) - 1

    def test_given_nodes_are_routed_without_snapping(self, city_and_island):
        net = city_and_island
        requests = [(net.node_point(0), net.node_point(35)), (net.node_point(14), net.node_point(2))]
        out = batch_route_multi(net, requests, RoutingLedger(), alternates=2, nodes=[5, 30, 14, 2])
        assert out[0] == route(net, net.node_point(5), net.node_point(30), alternates=2)
        assert out[1] == route(net, net.node_point(14), net.node_point(2), alternates=2)
        with pytest.raises(ValueError, match="2 snapped nodes per request"):
            batch_route_multi(net, requests, RoutingLedger(), nodes=[5, 30, 14])


@st.composite
def snap_cases(draw):
    """(node lats, node lons, point lats, point lons, far): nodes scattered,
    collinear or on a grid near a random origin, some at the coordinates of
    another, in shuffled id order; points on the nodes, on midpoints of node
    pairs and near the nodes, then `far` points at least 1 degree away."""
    lat0, lon0 = draw(st.floats(-70.0, 70.0)), draw(st.floats(-170.0, 170.0))
    offsets = st.floats(-0.02, 0.02)
    layout = draw(st.sampled_from(["scatter", "collinear", "grid"]))
    if layout == "grid":
        side, step = draw(st.integers(1, 6)), draw(st.floats(1e-4, 0.004))
        dlat, dlon = np.divmod(np.arange(side * side), side)
        dlat, dlon = dlat * step, dlon * step
    else:
        n = draw(st.integers(1, 30))
        dlat = np.array(draw(st.lists(offsets, min_size=n, max_size=n)))
        if layout == "collinear":
            dlat, dlon = dlat * draw(st.floats(-1.0, 1.0)), dlat * draw(st.floats(-1.0, 1.0))
        else:
            dlon = np.array(draw(st.lists(offsets, min_size=n, max_size=n)))
    lat, lon = lat0 + dlat, lon0 + dlon
    copies = draw(st.lists(st.integers(0, len(lat) - 1), max_size=4))
    order = draw(st.permutations(range(len(lat) + len(copies))))
    lat, lon = np.r_[lat, lat[copies]][order], np.r_[lon, lon[copies]][order]
    node = st.integers(0, len(lat) - 1)
    pairs = np.array(draw(st.lists(st.tuples(node, node), min_size=1, max_size=10)))
    near = np.array(draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=10)))
    away = st.floats(1.0, 15.0) | st.floats(-15.0, -1.0)
    far = np.array(draw(st.lists(st.tuples(away, st.floats(-8.0, 8.0)), min_size=1, max_size=5)))
    plat = np.concatenate([lat, lat[pairs[:, 0]] / 2 + lat[pairs[:, 1]] / 2, lat0 + near[:, 0], lat0 + far[:, 0]])
    plon = np.concatenate([lon, lon[pairs[:, 0]] / 2 + lon[pairs[:, 1]] / 2, lon0 + near[:, 1], lon0 + far[:, 1]])
    return lat, lon, plat, plon, len(far)


class TestSnapping:
    @settings(max_examples=300, deadline=None)
    @given(case=snap_cases())
    def test_equals_brute_force_argmin(self, case):
        lat, lon, plat, plon, far = case
        net = RoadNetwork(lat, lon, [], [], [], [])
        got = net.nearest_nodes(plat, plon)
        for i, (a, b) in enumerate(zip(plat, plon)):
            d = haversine_km_arrays(net.node_lat, net.node_lon, a, b)
            assert got[i] == np.flatnonzero(d == d.min())[0]
        # the grid settles none of the far points: the full scan does
        assert all(len(pt) == 0 for pt, _ in net._snap_grid.candidates(plat[-far:], plon[-far:]))

    def test_exact_ties_go_to_the_lowest_node_id(self):
        corners = [(0.25, 0.25), (0.25, -0.25), (-0.25, 0.25), (-0.25, -0.25)]
        for order in itertools.permutations(corners):
            net = RoadNetwork([c[0] for c in order], [c[1] for c in order], [], [], [], [])
            d = haversine_km_arrays(net.node_lat, net.node_lon, 0.0, 0.0)
            assert np.all(d == d[0])  # the centre is exactly as far from every corner
            assert net.nearest_nodes([0.0], [0.0]).tolist() == [0]
            midpoint = (order[1][0] / 2 + order[3][0] / 2, order[1][1] / 2 + order[3][1] / 2)
            if order[1][0] == order[3][0] or order[1][1] == order[3][1]:  # a side, not a diagonal
                assert net.nearest_nodes([midpoint[0]], [midpoint[1]]).tolist() == [1]

    @pytest.mark.parametrize("block", [1, 7, 2**18])
    def test_blocked_snapping_equals_per_point(self, monkeypatch, block):
        net = build_city_network(30, 30, 500.0, seed=42)
        u, v = net.edge_u, net.edge_v
        rng = np.random.default_rng(3)
        lats = np.concatenate([(net.node_lat[u] + net.node_lat[v]) / 2,
                               rng.uniform(net.node_lat.min() - 0.01, net.node_lat.max() + 0.01, 500)])
        lons = np.concatenate([(net.node_lon[u] + net.node_lon[v]) / 2,
                               rng.uniform(net.node_lon.min() - 0.01, net.node_lon.max() + 0.01, 500)])
        monkeypatch.setattr(roadnet, "_SNAP_BLOCK", block)
        got = net.nearest_nodes(lats, lons)
        ties = 0
        for i, (lat, lon) in enumerate(zip(lats, lons)):
            d = haversine_km_arrays(net.node_lat, net.node_lon, lat, lon)
            nearest = np.flatnonzero(d == d.min())
            assert got[i] == nearest[0]
            ties += len(nearest) > 1
        # edge midpoints on a grid tie exactly between the edge's ends
        assert ties > 1000
        assert net.nearest_nodes(lats[:1], lons[:1])[0] == got[0] == min(u[0], v[0])

    @pytest.mark.parametrize(
        "lats, lons, first",
        [
            ([40.72, np.nan], [-74.0, -74.0], 1),
            ([np.nan, 40.72], [-74.0, np.inf], 0),
            ([40.72, 40.72, 40.72], [-74.0, -74.0, -np.inf], 2),
            ([np.inf], [-74.0], 0),
        ],
    )
    def test_non_finite_point_rejected(self, lats, lons, first):
        net = build_city_network(5, 5, 500.0, seed=0)
        with pytest.raises(ValueError, match=rf"^cannot snap point {first} \("):
            net.nearest_nodes(lats, lons)

    def test_empty_input_gives_empty_array(self):
        net = build_city_network(5, 5, 500.0, seed=0)
        got = net.nearest_nodes([], [])
        assert got.shape == (0,) and got.dtype == np.int64


class TestDistanceMatrix:
    @pytest.mark.parametrize("size", [21, 30])
    def test_rows_equal_all_pairs_bit_for_bit(self, size):
        net = build_city_network(size, size, 500.0, seed=size)
        full = dijkstra(_csr_graph(net.indptr, net.edge_v, net.edge_duration), directed=True)
        rng = np.random.default_rng(size)
        first = rng.choice(net.n_nodes, 15, replace=False)
        second = np.concatenate([first[:5], rng.choice(net.n_nodes, 10, replace=False), first[:2]])
        for sources in (first, second, [int(first[0])], []):
            got = net.distance_matrix(sources)
            assert got.shape == (len(sources), net.n_nodes)
            assert np.array_equal(got, full[np.asarray(sources, dtype=np.int64)])
        assert len(net._rows) == len(set(first.tolist()) | set(second.tolist()))
        assert np.array_equal(net.distance_matrix(np.arange(net.n_nodes)), full)
        assert len(net._rows) == net.n_nodes

    def test_pairwise_utilities_memory_bounded(self):
        # the full 3600 x 3600 table would take 104 MB
        net = build_city_network(60, 60, 500.0, seed=5)
        rides = synth_commute(net, 40, seed=6).rides
        endpoints = {r.pickup_node for r in rides} | {r.dropoff_node for r in rides}
        assert len(endpoints) <= 60
        pairs = np.array(list(itertools.combinations(range(len(rides)), 2)))
        tracemalloc.start()
        try:
            utility = pairwise_utilities(net, rides, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(net._rows) == len(endpoints)
        assert np.any(utility > 0)


class TestJsonRoundTrip:
    def test_round_trip(self, grid5, tmp_path):
        path = tmp_path / "net.json"
        grid5.save_json(path)
        loaded = RoadNetwork.load_json(path)
        assert np.array_equal(loaded.edge_duration, grid5.edge_duration)
        every = np.arange(grid5.n_nodes)
        assert np.allclose(loaded.distance_matrix(every), grid5.distance_matrix(every))

    def test_bad_node_ids(self):
        with pytest.raises(ValueError):
            RoadNetwork.from_dict({"nodes": [{"id": 1, "lat": 0, "lon": 0}], "edges": []})


class TestCityNetwork:
    def test_hubs_on_arterials(self):
        net = build_city_network(11, 11, 500.0, seed=1, arterial_every=5)
        assert net.hubs is not None
        rows = net.hubs // 11
        cols = net.hubs % 11
        assert np.all(rows % 5 == 0)
        assert np.all(cols % 5 == 0)

    def test_deterministic(self):
        a = build_city_network(11, 11, 500.0, seed=9)
        b = build_city_network(11, 11, 500.0, seed=9)
        assert np.array_equal(a.edge_duration, b.edge_duration)

    def test_arterials_faster(self):
        net = build_city_network(11, 11, 500.0, seed=2, arterial_every=5)
        speeds = 500.0 / net.edge_duration
        u, v = net.edge_u, net.edge_v
        horiz = (u // 11) == (v // 11)
        art = (((u // 11) % 5 == 0) & horiz) | (((u % 11) % 5 == 0) & ~horiz)
        assert speeds[art].min() > speeds[~art].max()
