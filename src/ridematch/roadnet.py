"""Road network model and router.

A synthetic Manhattan-style grid stands in for a real routing service: it keeps
the O(n^2) ground-truth evaluation affordable and removes the network
dependency. The route()/batch_route_multi() signatures are the seam where a
real routing client could be substituted.
"""

from __future__ import annotations

import json
import math
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

# A point's own snapping-grid cell and the 26 around it, as (x, y, z) offsets
_NEIGHBOUR_CELLS = np.indices((3, 3, 3)).reshape(3, -1).T - 1
# Slack on the nearest chord: far above the rounding error of the chord and of
# the haversine, so no node the haversine could rank first is pruned
_CHORD_REL_SLACK = 1e-7
_CHORD_ABS_SLACK = 1e-9
# Smallest snapping-grid cell edge, as a chord of the unit sphere (about 6 m)
_MIN_CELL = 1e-6


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
    """Counts logical routing-service calls: 10 ms per batch of <= 100 requests."""

    def __init__(self):
        self.call_count = 0
        self.batch_count = 0
        self.simulated_latency_ms = 0.0

    def charge(self, n_requests: int):
        if n_requests <= 0:
            return
        batches = -(-n_requests // BATCH_SIZE)
        self.call_count += n_requests
        self.batch_count += batches
        self.simulated_latency_ms += BATCH_LATENCY_MS * batches


def _csr_graph(indptr, indices, weights) -> csr_matrix:
    n = len(indptr) - 1
    return csr_matrix((weights, indices, indptr), shape=(n, n))


def _sssp(graph: csr_matrix, tails: np.ndarray, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths on a CSR graph; returns (dist, pred_edge).

    tails[e] is the tail node of CSR position e. pred_edge[v] is the CSR
    position of v's tree edge, under one tie rule: among the in-edges
    (u, v, w) of v with finite dist[u] and dist[u] + w == dist[v], the tree
    edge is the one with the smallest (dist[u], u, position), which is the
    tree a (distance, node)-ordered heap Dijkstra builds. Weights must be
    positive; the source and unreachable nodes get -1.
    """
    heads, weights = graph.indices, graph.data
    dist = dijkstra(graph, directed=True, indices=source)
    du = dist[tails]
    tight = np.flatnonzero(np.isfinite(du) & (du + weights == dist[heads]))
    v = heads[tight]
    pred_edge = np.full(len(dist), -1, dtype=np.int64)
    pred_edge[v] = tight
    # only heads with two or more tight in-edges need the rule; positions
    # ascend with the tail u, so they stand in for (u, position)
    tied = np.bincount(v, minlength=len(dist))[v] > 1
    tight, v = tight[tied], v[tied]
    order = np.lexsort((tight, du[tight], v))
    v = v[order]
    first = np.flatnonzero(np.diff(v, prepend=-1))
    pred_edge[v[first]] = tight[order][first]
    return dist, pred_edge


def _unit_vectors(lats, lons) -> np.ndarray:
    """Points on the unit sphere, one row each. The chord between two of them
    grows strictly with their great-circle angle, so with the haversine."""
    phi, lam = np.radians(lats), np.radians(lons)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=1)


def _blocks(sizes: np.ndarray):
    """Consecutive (start, stop) runs of items whose sizes sum to at most
    _SNAP_BLOCK, at least one item each."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        b = max(a + 1, int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _SNAP_BLOCK, side="right")))
        yield a, b
        a = b


@dataclass(frozen=True)
class _SnapGrid:
    """A hash grid over the nodes' unit vectors, for exact nearest-node search."""

    edge: float  # cell edge, a chord length
    low: np.ndarray  # cell coordinates of the lowest corner cell, (3,)
    shape: np.ndarray  # cells per axis, (3,)
    keys: np.ndarray  # sorted ids of the occupied cells
    bounds: np.ndarray  # nodes of keys[i] are order[bounds[i]:bounds[i + 1]]
    order: np.ndarray  # node ids by cell, ascending within a cell
    xyz: np.ndarray  # node unit vectors, (V, 3)

    def candidates(self, lats: np.ndarray, lons: np.ndarray):
        """Yield, block by block, (point, node) pairs grouped by point: for each
        point the grid settles, every node the haversine could rank first.

        A point's candidates are the nodes in the 27 cells around it whose
        chord is within a slack of the nearest one's. Every node within that
        bound lies in those cells when it is shorter than a cell edge (with
        room for the rounding of the cell coordinates); otherwise the point
        is not settled and yields no pair. A block holds at most _SNAP_BLOCK
        pairs before pruning, at least one point.
        """
        xyz = _unit_vectors(lats, lons)
        start, count = self._cell_ranges(xyz)
        sizes = count.sum(axis=1)
        for a, b in _blocks(sizes):
            c = count[a:b].ravel()
            node = self.order[np.arange(c.sum()) + np.repeat(start[a:b].ravel() - np.cumsum(c) + c, c)]
            pt = np.repeat(np.arange(a, b), sizes[a:b])
            chord = np.sqrt(np.square(self.xyz[node] - xyz[pt]).sum(axis=1))
            nearest = np.full(b - a, np.inf)
            held = sizes[a:b] > 0
            nearest[held] = np.minimum.reduceat(chord, (np.cumsum(sizes[a:b]) - sizes[a:b])[held])
            bound = nearest * (1 + _CHORD_REL_SLACK) + _CHORD_ABS_SLACK
            settled = bound <= self.edge * (1 - 1e-9)
            keep = settled[pt - a] & (chord <= bound[pt - a])
            yield pt[keep], node[keep]

    def _cell_ranges(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point, the (start, count) in `order` of each of the 27 cells
        around it, shape (len(xyz), 27) each; count 0 for an empty cell."""
        cells = np.clip(np.floor(xyz / self.edge) - self.low, -2, self.shape + 1).astype(np.int64)
        around = cells[:, None, :] + _NEIGHBOUR_CELLS
        inside = np.all((around >= 0) & (around < self.shape), axis=2)
        key = np.where(inside, (around[..., 0] * self.shape[1] + around[..., 1]) * self.shape[2] + around[..., 2], -1)
        at = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        start = self.bounds[at]
        return start, np.where(self.keys[at] == key, self.bounds[at + 1] - start, 0)


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

    @cached_property
    def _graph(self) -> csr_matrix:
        """The duration-weighted graph, built once on first use."""
        return _csr_graph(self.indptr, self.edge_v, self.edge_duration)

    @cached_property
    def _snap_grid(self) -> _SnapGrid:
        """The nodes' snapping grid, built once on first use. Its cell edge is
        the mean node spacing of nodes spread over a square, so a cell holds
        about one node and a point inside a grid of nodes is settled by the
        cells around it."""
        xyz = _unit_vectors(self.node_lat, self.node_lon)
        edge = max(float(np.ptp(xyz, axis=0).max()) / math.sqrt(self.n_nodes), _MIN_CELL)
        cells = np.floor(xyz / edge).astype(np.int64)
        low = cells.min(axis=0)
        cells -= low
        shape = cells.max(axis=0) + 1
        key = (cells[:, 0] * shape[1] + cells[:, 1]) * shape[2] + cells[:, 2]
        order = np.argsort(key, kind="stable")
        keys, first = np.unique(key[order], return_index=True)
        return _SnapGrid(edge, low, shape, keys, np.append(first, self.n_nodes), order, xyz)

    def node_point(self, i: int) -> GeoPoint:
        return self._points[i]

    def nearest_nodes(self, lats, lons) -> np.ndarray:
        """The node nearest each point by haversine distance, the lowest node
        id on a tie.

        The snapping grid picks each point's candidates (_SnapGrid.candidates)
        and the haversine decides among them; a point the grid does not
        settle, one farther than a cell edge from every node, is compared with
        all nodes. Each block evaluates at most _SNAP_BLOCK (point, node)
        pairs, at least one point. Raises ValueError for a NaN or infinite
        coordinate, naming the first such point.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(lats) & np.isfinite(lons)))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"cannot snap point {i} ({lats[i]}, {lons[i]}): coordinates must be finite")
        out = np.full(len(lats), -1, dtype=np.int64)
        step = max(1, _SNAP_BLOCK // len(_NEIGHBOUR_CELLS))
        for lo in range(0, len(lats), step):
            for pt, node in self._snap_grid.candidates(lats[lo : lo + step], lons[lo : lo + step]):
                self._settle(lats, lons, pt + lo, node, out)
        left = np.flatnonzero(out < 0)
        for a, b in _blocks(np.full(len(left), self.n_nodes)):
            pts = left[a:b]
            self._settle(lats, lons, np.repeat(pts, self.n_nodes), np.tile(np.arange(self.n_nodes), len(pts)), out)
        return out

    def _settle(self, lats, lons, pt, node, out):
        """out[p] = the node of least haversine distance among p's (pt, node)
        pairs, the lowest id on a tie; the pairs come grouped by point."""
        d = haversine_km_arrays(self.node_lat[node], self.node_lon[node], lats[pt], lons[pt])
        first = np.flatnonzero(np.diff(pt, prepend=-1))
        best = np.repeat(np.minimum.reduceat(d, first), np.diff(first, append=len(pt)))
        out[pt[first]] = np.minimum.reduceat(np.where(d == best, node, self.n_nodes), first)

    def distance_matrix(self, sources) -> np.ndarray:
        """Shortest-path durations (seconds) from each of `sources` to every
        node, one row per source; np.inf if unreachable.

        The rows not yet known are computed in one Dijkstra call and kept, so
        the memo never holds more than one row per node.
        """
        sources = np.asarray(sources, dtype=np.int64)
        missing = [s for s in dict.fromkeys(sources.tolist()) if s not in self._rows]
        if missing:
            rows = dijkstra(self._graph, directed=True, indices=missing).reshape(len(missing), self.n_nodes)
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


# South-west corner of the synthetic cities
CITY_ORIGIN = GeoPoint(40.72, -74.0)
# Uniform speed ranges (m/s) of a city's side streets and arterials
SIDE_SPEED_MPS = (3.0, 5.0)
ARTERIAL_SPEED_MPS = (12.0, 14.0)


def _grid(rows: int, cols: int, spacing_m: float):
    """(lat, lon, u, v) of a rows x cols grid with bidirectional streets:
    node r * cols + c sits r rows north and c columns east of CITY_ORIGIN,
    and each node in id order adds its east street, then its north one,
    each as (out, back) directed edges."""
    if rows < 2 or cols < 2:
        raise ValueError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    dlat = spacing_m / METERS_PER_DEGREE_LAT
    dlon = spacing_m / (METERS_PER_DEGREE_LAT * math.cos(math.radians(CITY_ORIGIN.lat)))
    i = np.arange(rows * cols)
    r, c = np.divmod(i, cols)
    east, north = c + 1 < cols, r + 1 < rows
    keep = np.stack([east, east, north, north], axis=1)
    u = np.stack([i, i + 1, i, i + cols], axis=1)[keep]
    v = np.stack([i + 1, i, i + cols, i], axis=1)[keep]
    return CITY_ORIGIN.lat + r * dlat, CITY_ORIGIN.lon + c * dlon, u, v


def build_grid_network(
    rows: int,
    cols: int,
    spacing_m: float = 500.0,
    speed_jitter_seed: int = 0,
) -> RoadNetwork:
    """Build a rows x cols grid city with bidirectional streets.

    Each directed edge gets an independent speed drawn uniformly from
    [6, 14] m/s under the seed, so durations are deterministic but street
    directions are not symmetric.
    """
    lat, lon, u, v = _grid(rows, cols, spacing_m)
    rng = np.random.default_rng(speed_jitter_seed)
    speeds = rng.uniform(6.0, 14.0, size=len(u))
    return RoadNetwork(lat, lon, u, v, spacing_m / speeds, np.full(len(u), float(spacing_m)))


def build_city_network(
    rows: int,
    cols: int,
    spacing_m: float = 500.0,
    seed: int = 0,
    arterial_every: int = 5,
) -> RoadNetwork:
    """Grid city with an arterial hierarchy: every `arterial_every`-th row and
    column is fast (ARTERIAL_SPEED_MPS), side streets are slow
    (SIDE_SPEED_MPS).

    The speed contrast makes shortest paths funnel onto shared trunk
    corridors, the way real commutes do; the returned network carries the
    arterial intersection node ids in `net.hubs` (used by the synthetic
    workload generator as demand anchors).
    """
    lat, lon, u, v = _grid(rows, cols, spacing_m)
    # speeds are drawn in the network's (u, v) edge order
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    rng = np.random.default_rng((seed, 0xA57))
    row_u, col_u = u // cols, u % cols
    horizontal = row_u == v // cols
    arterial = ((row_u % arterial_every == 0) & horizontal) | (
        (col_u % arterial_every == 0) & ~horizontal
    )
    speeds = np.where(
        arterial,
        rng.uniform(*ARTERIAL_SPEED_MPS, len(u)),
        rng.uniform(*SIDE_SPEED_MPS, len(u)),
    )
    net = RoadNetwork(lat, lon, u, v, spacing_m / speeds, np.full(len(u), float(spacing_m)))
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
        trees[s] = _sssp(net._graph, net.edge_u, s)[1]
    edges, best = _tree_route(net, trees[s], s, t)
    routes = [best]
    if alternates > 1:
        weights = net.edge_duration.copy()
        graph = net._graph  # its int32 index arrays serve every re-solve
        seen_edge_sets = {frozenset(edges.tolist())}
        while len(routes) < alternates:
            weights[edges] *= ALT_EDGE_PENALTY
            reweighted = _csr_graph(graph.indptr, graph.indices, weights)
            edges, cand = _tree_route(net, _sssp(reweighted, net.edge_u, s)[1], s, t)
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


def batch_route_multi(
    net: RoadNetwork, requests, ledger: RoutingLedger, alternates: int = 1, nodes=None
) -> list[list[Route] | None]:
    """Route each (origin, dest) request; None marks an unreachable pair,
    else up to `alternates` routes as route() gives them.

    Charges the ledger one call per request, split into batches of <= 100.

    Every endpoint is snapped in one call, unless `nodes` already holds each
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
