"""Exact ride-pair utilities, computed apart from the ridematch package.

Shortest-path durations come from scipy's Dijkstra over the road network's
CSR arrays. The pair rule is written out here from its definition: a shared
trip visits both pickups before either dropoff, so there are four stop
orders; the ride picked up second waits for the leg between the pickups and
that wait may not exceed the maximum pickup delay; and the two requests may
be at most the same delay apart. Utility is the duration saved against two
solo trips, zero when no order is feasible. Rides are snapped to nodes here
too, from their coordinates, so the package's snapping is checked as well.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

MAX_DELAY_S = 600.0
# Largest gap, in seconds, accepted between a program utility and the oracle's.
UTILITY_TOL_S = 1e-6

# Stop orders with both pickups ("s") before either dropoff ("t").
STOP_ORDERS = (
    ("as", "bs", "at", "bt"),
    ("as", "bs", "bt", "at"),
    ("bs", "as", "bt", "at"),
    ("bs", "as", "at", "bt"),
)


class RideTable(NamedTuple):
    """Pickup nodes, dropoff nodes and request times of a ride list, by position."""

    s: np.ndarray
    t: np.ndarray
    time: np.ndarray


class Oracle:
    """All-pairs durations of one road network plus the exact pair rule."""

    def __init__(self, net):
        n = len(net.node_lat)
        graph = csr_matrix(
            (np.asarray(net.edge_duration, float), np.asarray(net.edge_v), np.asarray(net.indptr)),
            shape=(n, n),
        )
        self.dist = dijkstra(graph, directed=True)
        self.node_lat = np.asarray(net.node_lat, float)
        self.node_lon = np.asarray(net.node_lon, float)

    def snap(self, lat: float, lon: float) -> int:
        """Nearest node by local equirectangular distance."""
        k = math.cos(math.radians(lat))
        d2 = (self.node_lat - lat) ** 2 + ((self.node_lon - lon) * k) ** 2
        return int(np.argmin(d2))

    def rides(self, points) -> RideTable:
        """RideTable from (pickup_lat, pickup_lon, dropoff_lat, dropoff_lon, request_time) rows."""
        pts = list(points)
        s = np.array([self.snap(p[0], p[1]) for p in pts], dtype=np.int64)
        t = np.array([self.snap(p[2], p[3]) for p in pts], dtype=np.int64)
        times = np.array([p[4] for p in pts], dtype=float)
        return RideTable(s, t, times)

    def utilities(self, rides: RideTable, a: int, b) -> np.ndarray:
        """Utility of ride a paired with each ride in b."""
        b = np.asarray(b)
        stops = {"as": rides.s[a], "at": rides.t[a], "bs": rides.s[b], "bt": rides.t[b]}
        best = np.full(len(b), np.inf)
        for order in STOP_ORDERS:
            total = sum(self.dist[stops[x], stops[y]] for x, y in zip(order, order[1:]))
            wait = self.dist[stops[order[0]], stops[order[1]]]
            best = np.minimum(best, np.where(wait <= MAX_DELAY_S, total, np.inf))
        solo = self.dist[stops["as"], stops["at"]] + self.dist[stops["bs"], stops["bt"]]
        ok = (np.abs(rides.time[a] - rides.time[b]) <= MAX_DELAY_S) & np.isfinite(best)
        return np.where(ok, np.maximum(0.0, solo - best), 0.0)

    def topk(self, rides: RideTable, a: int, k: int):
        """(positions, utilities) of ride a's k best partners among all others, ties by position."""
        cand = np.delete(np.arange(len(rides.s)), a)
        u = self.utilities(rides, a, cand)
        order = np.lexsort((cand, -u))[:k]
        return cand[order], u[order]

    def greedy_total(self, rides: RideTable) -> float:
        """Greedy matching on the complete pair graph: heaviest free pair first."""
        n = len(rides.s)
        us, vs, ws = [], [], []
        for a in range(n - 1):
            b = np.arange(a + 1, n)
            w = self.utilities(rides, a, b)
            pos = w > 0.0
            us.append(np.full(int(pos.sum()), a))
            vs.append(b[pos])
            ws.append(w[pos])
        if not us:
            return 0.0
        u, v, w = np.concatenate(us), np.concatenate(vs), np.concatenate(ws)
        taken = np.zeros(n, dtype=bool)
        total = 0.0
        for e in np.lexsort((v, u, -w)):
            if not taken[u[e]] and not taken[v[e]]:
                taken[u[e]] = taken[v[e]] = True
                total += float(w[e])
        return total


def quality(oracle: Oracle, rides: RideTable, ids, proposals: dict, k: int):
    """Recall@k and utility share of proposals against the exact top-k by utility.

    `ids[p]` is the ride id at position p, and `proposals[p]` lists the ride
    ids proposed for the query at position p. Only partners with positive
    utility count as exact top-k, and a query with none is skipped. Returns
    (mean recall, proposed utility / exact top-k utility summed over queries).
    """
    pos_of = {rid: p for p, rid in enumerate(ids)}
    recalls, got, best = [], 0.0, 0.0
    for a, prop in proposals.items():
        top, util = oracle.topk(rides, a, k)
        keep = util > 0.0
        if not keep.any():
            continue
        exact = {ids[p] for p in top[keep]}
        recalls.append(len(exact & set(prop)) / len(exact))
        if prop:
            got += float(oracle.utilities(rides, a, [pos_of[r] for r in prop]).sum())
        best += float(util[keep].sum())
    if not recalls:
        return 0.0, 0.0
    return float(np.mean(recalls)), got / best


def cross_check(oracle: Oracle, rides: RideTable, ids, a: int, program_topk) -> list[str]:
    """Compare a program top-k list of (ride id, utility) for query a with the oracle.

    Rank by rank the utilities must agree, and so must the oracle's own
    utility for each pair the program named.
    """
    errors = []
    _, util = oracle.topk(rides, a, len(program_topk))
    pos_of = {rid: p for p, rid in enumerate(ids)}
    for rank, ((rid, u), exact) in enumerate(zip(program_topk, util)):
        if abs(u - exact) > UTILITY_TOL_S:
            errors.append(f"query {ids[a]} rank {rank}: program utility {u}, oracle {exact}")
        mine = float(oracle.utilities(rides, a, [pos_of[rid]])[0])
        if abs(u - mine) > UTILITY_TOL_S:
            errors.append(f"query {ids[a]} with ride {rid}: program utility {u}, oracle {mine}")
    return errors
