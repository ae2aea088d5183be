"""Ground-truth pairwise match math.

The cost of serving two rides together is the minimum over the four
pickup/dropoff orderings that keep both pickups first; matching utility is
the duration saved versus serving them separately, zero if the pair is
infeasible. Each evaluated pair is charged as 6 logical routing calls (the
six cross segments; the two own-ride costs are cached on the rides).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .roadnet import RoadNetwork, RoutingLedger
from .trips import Ride

DEFAULT_MAX_DELAY_S = 600.0  # 10-minute maximum pickup delay

ORDERING_LABELS = ("ssTT", "ssT'T", "s'sT'T", "s'sTT'")

CROSS_SEGMENTS_PER_PAIR = 6


@dataclass
class MatchEvaluation:
    combined_cost: float
    best_ordering: str | None
    feasible: bool
    utility: float


def _eval_arrays(table, a_s, a_t, c_a, t_a, b_s, b_t, c_b, t_b, max_delay_s):
    """Vectorized pair evaluation over parallel index/cost/time arrays; the
    node indices index both axes of the duration table.

    Returns (combined, best_idx, feasible, utility). Orderings whose
    second-picked ride would wait longer than max_delay_s, or with an
    unreachable leg, are excluded; an excluded pair has combined == inf.
    """
    d_ss = table[a_s, b_s]   # a's pickup -> b's pickup
    d_s2s = table[b_s, a_s]
    d_tt = table[a_t, b_t]   # a's dropoff -> b's dropoff
    d_t2t = table[b_t, a_t]
    d_st2 = table[a_s, b_t]
    d_s2t = table[b_s, a_t]

    orders = np.stack(
        [
            d_ss + d_s2t + d_tt,    # <a_s, b_s, a_t, b_t>
            d_ss + c_b + d_t2t,     # <a_s, b_s, b_t, a_t>
            d_s2s + d_st2 + d_t2t,  # <b_s, a_s, b_t, a_t>
            d_s2s + c_a + d_tt,     # <b_s, a_s, a_t, b_t>
        ]
    )
    # Pickup delay: the ride picked up second waits for the leg between the
    # two pickups; the first incurs none.
    a_first_ok = d_ss <= max_delay_s
    b_first_ok = d_s2s <= max_delay_s
    orders[0] = np.where(a_first_ok, orders[0], np.inf)
    orders[1] = np.where(a_first_ok, orders[1], np.inf)
    orders[2] = np.where(b_first_ok, orders[2], np.inf)
    orders[3] = np.where(b_first_ok, orders[3], np.inf)

    combined = orders.min(axis=0)
    best_idx = orders.argmin(axis=0)
    time_ok = np.abs(np.asarray(t_a) - np.asarray(t_b)) <= max_delay_s
    feasible = time_ok & np.isfinite(combined)
    utility = np.where(feasible, np.maximum(0.0, c_a + c_b - combined), 0.0)
    return combined, best_idx, feasible, utility


def _endpoint_table(net: RoadNetwork, *nodes):
    """Shortest durations among the given nodes only, and each node array
    re-indexed into that table. Rows come from these nodes alone, so no
    V x V table is built."""
    ends, inverse = np.unique(np.concatenate(nodes), return_inverse=True)
    table = net.distance_matrix(ends)[:, ends]
    return table, np.split(inverse, np.cumsum([len(a) for a in nodes[:-1]]))


def _arrays_of(rides):
    s = np.fromiter((r.pickup_node for r in rides), dtype=np.int64, count=len(rides))
    t = np.fromiter((r.dropoff_node for r in rides), dtype=np.int64, count=len(rides))
    c = np.fromiter((r.cost for r in rides), dtype=np.float64, count=len(rides))
    rt = np.fromiter((r.request_time for r in rides), dtype=np.float64, count=len(rides))
    return s, t, c, rt


def combined_cost(
    r: Ride,
    r2: Ride,
    net: RoadNetwork,
    ledger: RoutingLedger | None = None,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
) -> MatchEvaluation:
    """Evaluate one pair; 6 cross-segment routing calls are charged."""
    if ledger is not None:
        ledger.charge(CROSS_SEGMENTS_PER_PAIR)
    table, (a_s, a_t, b_s, b_t) = _endpoint_table(
        net, [r.pickup_node], [r.dropoff_node], [r2.pickup_node], [r2.dropoff_node]
    )
    combined, best_idx, feasible, utility = _eval_arrays(
        table,
        a_s,
        a_t,
        np.array([r.cost]),
        np.array([r.request_time]),
        b_s,
        b_t,
        np.array([r2.cost]),
        np.array([r2.request_time]),
        max_delay_s,
    )
    cmb = float(combined[0])
    return MatchEvaluation(
        combined_cost=cmb,
        best_ordering=ORDERING_LABELS[int(best_idx[0])] if np.isfinite(cmb) else None,
        feasible=bool(feasible[0]),
        utility=float(utility[0]),
    )


def matching_utility(
    r: Ride,
    r2: Ride,
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ledger: RoutingLedger | None = None,
) -> float:
    """Duration saved by serving r and r2 together; 0 if infeasible."""
    if max_delay_s <= 0:
        raise ValueError(f"max_delay_s must be positive, got {max_delay_s}")
    return combined_cost(r, r2, net, ledger, max_delay_s).utility


def pairwise_utilities(
    net: RoadNetwork,
    rides: list[Ride],
    pairs: np.ndarray,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ledger: RoutingLedger | None = None,
) -> np.ndarray:
    """Utilities for index pairs (m, 2) into `rides`; charges 6 calls per pair."""
    if ledger is not None:
        ledger.charge(CROSS_SEGMENTS_PER_PAIR * len(pairs))
    if len(pairs) == 0:
        return np.empty(0)
    s, t, c, rt = _arrays_of(rides)
    i = pairs[:, 0]
    j = pairs[:, 1]
    table, (s, t) = _endpoint_table(net, s, t)
    _, _, _, utility = _eval_arrays(
        table, s[i], t[i], c[i], rt[i], s[j], t[j], c[j], rt[j], max_delay_s
    )
    return utility


def brute_force_topk(
    rides: list[Ride],
    q: Ride,
    k: int,
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
) -> list[tuple[int, float]]:
    """Exact top-k matches for q by utility, ties by ascending ride id.

    This is the oracle for recall measurement; it is free of routing-call
    accounting and independent of the index pipeline.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    others = [r for r in rides if r.id != q.id]
    if not others:
        return []
    s, t, c, rt = _arrays_of(others)
    table, (q_s, q_t, s, t) = _endpoint_table(net, [q.pickup_node], [q.dropoff_node], s, t)
    _, _, _, utility = _eval_arrays(
        table,
        np.repeat(q_s, len(others)),
        np.repeat(q_t, len(others)),
        np.full(len(others), q.cost),
        np.full(len(others), q.request_time),
        s,
        t,
        c,
        rt,
        max_delay_s,
    )
    ids = np.fromiter((r.id for r in others), dtype=np.int64, count=len(others))
    order = np.lexsort((ids, -utility))[:k]
    return [(int(ids[i]), float(utility[i])) for i in order]


def brute_force_topk_all(
    rides: list[Ride],
    k: int,
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    chunk: int = 256,
) -> dict[int, list[tuple[int, float]]]:
    """Oracle top-k for every ride at once (chunked O(n^2) evaluation)."""
    n = len(rides)
    s, t, c, rt = _arrays_of(rides)
    ids = np.fromiter((r.id for r in rides), dtype=np.int64, count=n)
    table, (s, t) = _endpoint_table(net, s, t)
    out: dict[int, list[tuple[int, float]]] = {}
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = hi - lo
        qs = np.repeat(s[lo:hi], n)
        qt = np.repeat(t[lo:hi], n)
        qc = np.repeat(c[lo:hi], n)
        qrt = np.repeat(rt[lo:hi], n)
        _, _, _, util = _eval_arrays(
            table, qs, qt, qc, qrt,
            np.tile(s, m), np.tile(t, m), np.tile(c, m), np.tile(rt, m),
            max_delay_s,
        )
        util = util.reshape(m, n)
        for row in range(m):
            qi = lo + row
            u = util[row]
            order = np.lexsort((ids, -u))
            order = order[order != qi][:k]  # exclude self
            out[int(ids[qi])] = [(int(ids[i]), float(u[i])) for i in order]
    return out
