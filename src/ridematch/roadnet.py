"""Road network model and router.

A synthetic Manhattan-style grid stands in for a real routing service: it keeps
the O(n^2) ground-truth evaluation affordable and removes the network
dependency. The route()/batch_route() signatures are the seam where a real
routing client could be substituted.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .geo import GeoPoint, haversine_km_arrays

METERS_PER_DEGREE_LAT = 111_320.0

# Alternate-route search: used edges are penalized by this factor before
# re-solving, and a candidate is kept only if its true duration stays within
# the acceptance ratio of the optimum and its edge set differs.
ALT_EDGE_PENALTY = 1.5
ALT_ACCEPT_RATIO = 1.2

BATCH_SIZE = 100
BATCH_LATENCY_MS = 10.0

# (point, node) distances per snapping block (see RoadNetwork.nearest_nodes)
_SNAP_BLOCK = 2**18


class NoRouteError(RuntimeError):
    """No path exists between the snapped endpoints."""


@dataclass
class Route:
    """An ordered point sequence with per-segment traversal durations (seconds)."""

    points: list[GeoPoint]
    segment_durations: list[float]
    total_duration: float
    nodes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if len(self.segment_durations) != len(self.points) - 1:
            raise ValueError("need exactly one duration per consecutive point pair")
        if abs(self.total_duration - math.fsum(self.segment_durations)) > 1e-9:
            raise ValueError("total_duration must equal the sum of segment durations")


class RoutingLedger:
    """Counts logical routing-service calls: 10 ms per batch of <= 100 requests.

    Thread-safe; concurrent charges never lose counts.
    """

    def __init__(self):
        self.call_count = 0
        self.batch_count = 0
        self.simulated_latency_ms = 0.0
        self._lock = threading.Lock()

    def charge(self, n_requests: int):
        if n_requests <= 0:
            return
        batches = -(-n_requests // BATCH_SIZE)
        with self._lock:
            self.call_count += n_requests
            self.batch_count += batches
            self.simulated_latency_ms += BATCH_LATENCY_MS * batches


def _csr_graph(indptr, indices, weights) -> csr_matrix:
    n = len(indptr) - 1
    return csr_matrix((weights, indices, indptr), shape=(n, n))


def _sssp(indptr, indices, weights, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths on a CSR graph; returns (dist, pred_edge).

    pred_edge[v] is the CSR position of v's tree edge, under one tie rule:
    among the in-edges (u, v, w) of v with finite dist[u] and
    dist[u] + w == dist[v], the tree edge is the one with the smallest
    (dist[u], u, position), which is the tree a (distance, node)-ordered heap
    Dijkstra builds. Weights must be positive; the source and unreachable
    nodes get -1.
    """
    n = len(indptr) - 1
    dist = dijkstra(_csr_graph(indptr, indices, weights), directed=True, indices=source)
    tails = np.repeat(np.arange(n), np.diff(indptr))
    du = dist[tails]
    tight = np.flatnonzero(np.isfinite(du) & (du + weights == dist[indices]))
    v = indices[tight]
    # positions ascend with the tail u, so they stand in for (u, position)
    order = np.lexsort((tight, du[tight], v))
    heads, first = np.unique(v[order], return_index=True)
    pred_edge = np.full(n, -1, dtype=np.int64)
    pred_edge[heads] = tight[order][first]
    return dist, pred_edge


class RoadNetwork:
    """Directed road graph in CSR form with per-edge durations and lengths.

    Immutable after construction; distance_matrix rows are memoized per
    source node so repeated queries are cheap.
    """

    def __init__(self, node_lat, node_lon, edges_u, edges_v, durations, lengths):
        self.node_lat = np.asarray(node_lat, dtype=np.float64)
        self.node_lon = np.asarray(node_lon, dtype=np.float64)
        self.n_nodes = len(self.node_lat)
        u = np.asarray(edges_u, dtype=np.int64)
        v = np.asarray(edges_v, dtype=np.int64)
        dur = np.asarray(durations, dtype=np.float64)
        ln = np.asarray(lengths, dtype=np.float64)
        if np.any(dur <= 0):
            raise ValueError("all edge durations must be positive")
        order = np.lexsort((v, u))
        self.edge_u = u[order]
        self.edge_v = v[order]
        self.edge_duration = dur[order]
        self.edge_length = ln[order]
        self.indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.add.at(self.indptr, self.edge_u + 1, 1)
        self.indptr = np.cumsum(self.indptr)
        # distance_matrix rows by source node: at most one row per node
        self._rows: dict[int, np.ndarray] = {}
        # Demand anchor nodes (set by builders that know the city structure).
        self.hubs: np.ndarray | None = None

    @cached_property
    def _points(self) -> list[GeoPoint]:
        """Every node's point, built once on first use: routes share them."""
        return [GeoPoint(lat, lon) for lat, lon in zip(self.node_lat.tolist(), self.node_lon.tolist())]

    def node_point(self, i: int) -> GeoPoint:
        return self._points[i]

    def nearest_node(self, p: GeoPoint) -> int:
        return int(self.nearest_nodes([p.lat], [p.lon])[0])

    def nearest_nodes(self, lats, lons) -> np.ndarray:
        """The node nearest each point by haversine distance, the lowest node
        id on a tie. Points are snapped in blocks of at most _SNAP_BLOCK
        (point, node) distances, at least one point each."""
        lats = np.asarray(lats, dtype=np.float64)[:, None]
        lons = np.asarray(lons, dtype=np.float64)[:, None]
        out = np.empty(len(lats), dtype=np.int64)
        step = max(1, _SNAP_BLOCK // self.n_nodes)
        for lo in range(0, len(lats), step):
            d = haversine_km_arrays(self.node_lat, self.node_lon, lats[lo : lo + step], lons[lo : lo + step])
            out[lo : lo + step] = np.argmin(d, axis=1)
        return out

    def distance_matrix(self, sources=None) -> np.ndarray:
        """Shortest-path durations (seconds) from each of `sources` (every node
        if None) to every node, one row per source; np.inf if unreachable.

        The rows not yet known are computed in one Dijkstra call and kept, so
        the memo never holds more than one row per node.
        """
        sources = np.arange(self.n_nodes) if sources is None else np.asarray(sources, dtype=np.int64)
        missing = [s for s in dict.fromkeys(sources.tolist()) if s not in self._rows]
        if missing:
            graph = _csr_graph(self.indptr, self.edge_v, self.edge_duration)
            rows = dijkstra(graph, directed=True, indices=missing).reshape(len(missing), self.n_nodes)
            self._rows.update(zip(missing, rows))
        return np.array([self._rows[s] for s in sources.tolist()]).reshape(len(sources), self.n_nodes)

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"id": i, "lat": float(self.node_lat[i]), "lon": float(self.node_lon[i])}
                for i in range(self.n_nodes)
            ],
            "edges": [
                {
                    "u": int(self.edge_u[e]),
                    "v": int(self.edge_v[e]),
                    "duration_s": float(self.edge_duration[e]),
                    "length_m": float(self.edge_length[e]),
                }
                for e in range(len(self.edge_u))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoadNetwork":
        nodes = sorted(data["nodes"], key=lambda n: n["id"])
        ids = [n["id"] for n in nodes]
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be consecutive integers starting at 0")
        edges = data["edges"]
        return cls(
            [n["lat"] for n in nodes],
            [n["lon"] for n in nodes],
            [e["u"] for e in edges],
            [e["v"] for e in edges],
            [e["duration_s"] for e in edges],
            [e["length_m"] for e in edges],
        )

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load_json(cls, path) -> "RoadNetwork":
        with open(path) as f:
            return cls.from_dict(json.load(f))


DEFAULT_ORIGIN = GeoPoint(40.72, -74.0)


def build_grid_network(
    rows: int,
    cols: int,
    spacing_m: float = 500.0,
    speed_jitter_seed: int = 0,
    origin: GeoPoint = DEFAULT_ORIGIN,
) -> RoadNetwork:
    """Build a rows x cols grid city with bidirectional streets.

    Each directed edge gets an independent speed drawn uniformly from
    [6, 14] m/s under the seed, so durations are deterministic but street
    directions are not symmetric.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    dlat = spacing_m / METERS_PER_DEGREE_LAT
    dlon = spacing_m / (METERS_PER_DEGREE_LAT * math.cos(math.radians(origin.lat)))
    lat = np.empty(rows * cols)
    lon = np.empty(rows * cols)
    for r in range(rows):
        for c in range(cols):
            lat[r * cols + c] = origin.lat + r * dlat
            lon[r * cols + c] = origin.lon + c * dlon
    us, vs = [], []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                us.extend((i, i + 1))
                vs.extend((i + 1, i))
            if r + 1 < rows:
                us.extend((i, i + cols))
                vs.extend((i + cols, i))
    rng = np.random.default_rng(speed_jitter_seed)
    speeds = rng.uniform(6.0, 14.0, size=len(us))
    durations = spacing_m / speeds
    lengths = np.full(len(us), float(spacing_m))
    return RoadNetwork(lat, lon, us, vs, durations, lengths)


def build_city_network(
    rows: int,
    cols: int,
    spacing_m: float = 500.0,
    seed: int = 0,
    arterial_every: int = 5,
    side_speed: tuple[float, float] = (3.0, 5.0),
    arterial_speed: tuple[float, float] = (12.0, 14.0),
    origin: GeoPoint = DEFAULT_ORIGIN,
) -> RoadNetwork:
    """Grid city with an arterial hierarchy: every `arterial_every`-th row and
    column is fast, side streets are slow.

    The speed contrast makes shortest paths funnel onto shared trunk
    corridors, the way real commutes do; the returned network carries the
    arterial intersection node ids in `net.hubs` (used by the synthetic
    workload generator as demand anchors).
    """
    base = build_grid_network(rows, cols, spacing_m, seed, origin)
    rng = np.random.default_rng((seed, 0xA57))
    u, v = base.edge_u, base.edge_v
    row_u, col_u = u // cols, u % cols
    horizontal = row_u == v // cols
    arterial = ((row_u % arterial_every == 0) & horizontal) | (
        (col_u % arterial_every == 0) & ~horizontal
    )
    speeds = np.where(
        arterial,
        rng.uniform(arterial_speed[0], arterial_speed[1], len(u)),
        rng.uniform(side_speed[0], side_speed[1], len(u)),
    )
    net = RoadNetwork(base.node_lat, base.node_lon, u, v, spacing_m / speeds, base.edge_length)
    node_rows = np.arange(net.n_nodes) // cols
    node_cols = np.arange(net.n_nodes) % cols
    net.hubs = np.nonzero((node_rows % arterial_every == 0) & (node_cols % arterial_every == 0))[0]
    return net


def _tree_route(net: RoadNetwork, pred_edge: np.ndarray, source: int, target: int):
    """The tree path from source to target as (CSR edge positions, Route)."""
    edges = []
    node = target
    while node != source:
        e = int(pred_edge[node])
        if e < 0:
            raise NoRouteError(f"no path from node {source} to node {target}")
        edges.append(e)
        node = int(net.edge_u[e])
    edges = np.array(edges[::-1], dtype=np.int64)
    nodes = [source] + net.edge_v[edges].tolist()
    segs = net.edge_duration[edges].tolist()
    points = [net.node_point(i) for i in nodes]
    return edges, Route(points=points, segment_durations=segs, total_duration=math.fsum(segs), nodes=nodes)


def _pair_routes(net: RoadNetwork, s: int, t: int, alternates: int, trees: dict) -> list[Route]:
    """Up to `alternates` routes from node s to node t, sorted by duration.

    trees maps a source node to its shortest-path tree (pred_edge); a missing
    tree is computed and added. Raises NoRouteError if t is unreachable.
    """
    if alternates < 1:
        raise ValueError(f"alternates must be >= 1, got {alternates}")
    if s == t:
        return [Route(points=[net.node_point(s)], segment_durations=[], total_duration=0.0, nodes=[s])]
    if s not in trees:
        trees[s] = _sssp(net.indptr, net.edge_v, net.edge_duration, s)[1]
    edges, best = _tree_route(net, trees[s], s, t)
    routes = [best]
    if alternates > 1:
        weights = net.edge_duration.copy()
        seen_edge_sets = {frozenset(edges.tolist())}
        while len(routes) < alternates:
            weights[edges] *= ALT_EDGE_PENALTY
            edges, cand = _tree_route(net, _sssp(net.indptr, net.edge_v, weights, s)[1], s, t)
            edge_set = frozenset(edges.tolist())
            if edge_set in seen_edge_sets or cand.total_duration > ALT_ACCEPT_RATIO * best.total_duration:
                break
            seen_edge_sets.add(edge_set)
            routes.append(cand)
    routes.sort(key=lambda r: r.total_duration)
    return routes


def route(net: RoadNetwork, origin: GeoPoint, dest: GeoPoint, alternates: int = 1) -> list[Route]:
    """Route between the nearest network nodes; up to `alternates` routes total.

    The first route is a minimum-duration Dijkstra path. Additional ones come
    from re-solving with used-edge durations penalized; a candidate is kept
    only while it stays within ALT_ACCEPT_RATIO of the optimum and uses a
    different edge set. The result is sorted by duration.
    """
    s, t = net.nearest_nodes([origin.lat, dest.lat], [origin.lon, dest.lon]).tolist()
    return _pair_routes(net, s, t, alternates, {})


def batch_route(net: RoadNetwork, requests, ledger: RoutingLedger) -> list[Route | None]:
    """Route each (origin, dest) request; None marks an unreachable pair.

    Charges the ledger one call per request, split into batches of <= 100.
    """
    results = batch_route_multi(net, requests, ledger, alternates=1)
    return [r[0] if r is not None else None for r in results]


def batch_route_multi(
    net: RoadNetwork, requests, ledger: RoutingLedger, alternates: int = 1, nodes=None
) -> list[list[Route] | None]:
    """Batch variant returning all alternates per request (still 1 call each).

    Every endpoint is snapped in one pass, unless `nodes` already holds each
    request's origin and destination nodes (as net.nearest_nodes gives them),
    in request order. Each distinct snapped (s, t) pair is routed once, with
    one shortest-path tree per source. The requests of one pair get their
    own lists of the same read-only Routes, equal to what route() returns for
    each.
    """
    requests = list(requests)
    if nodes is None:
        ends = [p for pair in requests for p in pair]
        nodes = net.nearest_nodes([p.lat for p in ends], [p.lon for p in ends])
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.shape != (2 * len(requests),):
        raise ValueError(f"need 2 snapped nodes per request, got {nodes.shape} for {len(requests)}")
    pairs, inverse = np.unique(nodes[0::2] * net.n_nodes + nodes[1::2], return_inverse=True)
    trees: dict[int, np.ndarray] = {}
    routed: list[list[Route] | None] = []
    for s, t in zip(*divmod(pairs, net.n_nodes)):
        try:
            routed.append(_pair_routes(net, int(s), int(t), alternates, trees))
        except NoRouteError:
            routed.append(None)
    ledger.charge(len(requests))
    return [None if routed[i] is None else list(routed[i]) for i in inverse.tolist()]
