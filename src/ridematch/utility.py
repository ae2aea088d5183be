"""Ground-truth pairwise match math.

The cost of serving two rides together is the minimum over the four
pickup/dropoff orderings that keep both pickups first; matching utility is
the duration saved versus serving them separately, zero if the pair is
infeasible. `pairwise_utilities` is the package's one pair evaluator; the
top-k oracles share its arithmetic (`_evaluate`). Each evaluated pair is
charged as 6 logical routing calls (the six cross segments; the two own-ride
costs are cached on the rides).
"""

from __future__ import annotations

import numpy as np

from .baselines import DEFAULT_MAX_DELAY_S, _id_rank, _top_k
from .roadnet import RoadNetwork, RoutingLedger
from .trips import Ride

CROSS_SEGMENTS_PER_PAIR = 6

_BLOCK = 2**18  # pair evaluations per brute_force_topk_all block


def _ride_arrays(net: RoadNetwork, rides):
    """(table, s, t, c, rt): the shortest durations among the rides' endpoint
    nodes only (no V x V table is built), and per ride the table indices of
    its pickup and dropoff, its cost and its request time."""
    n = len(rides)
    nodes = np.fromiter(
        (node for r in rides for node in (r.pickup_node, r.dropoff_node)), dtype=np.int64, count=2 * n
    )
    ends, inverse = np.unique(nodes, return_inverse=True)
    table = net.distance_matrix(ends)[:, ends]
    c = np.fromiter((r.cost for r in rides), dtype=np.float64, count=n)
    rt = np.fromiter((r.request_time for r in rides), dtype=np.float64, count=n)
    return table, inverse[0::2], inverse[1::2], c, rt


def _evaluate(arrays, i, j, max_delay_s):
    """Utilities of the pairs (ride i[p], ride j[p]) of one `_ride_arrays`
    result; i and j broadcast against each other.

    Orderings whose second-picked ride would wait longer than max_delay_s,
    or with an unreachable leg, are excluded; a pair with none left, or whose
    requests are further apart than max_delay_s, has utility 0. A
    max_delay_s that is not > 0 (NaN included) is refused; inf is allowed.
    """
    if not max_delay_s > 0:
        raise ValueError(f"max_delay_s must be positive, got {max_delay_s}")
    table, s, t, c, rt = arrays
    a_s, a_t, c_a = s[i], t[i], c[i]
    b_s, b_t, c_b = s[j], t[j], c[j]
    d_ss = table[a_s, b_s]   # a's pickup -> b's pickup
    d_s2s = table[b_s, a_s]
    d_tt = table[a_t, b_t]   # a's dropoff -> b's dropoff
    d_t2t = table[b_t, a_t]
    d_st2 = table[a_s, b_t]
    d_s2t = table[b_s, a_t]

    # Pickup delay: the ride picked up second waits for the leg between the
    # two pickups; the first incurs none. a first: <a_s, b_s, a_t, b_t> or
    # <a_s, b_s, b_t, a_t>; b first: <b_s, a_s, b_t, a_t> or <b_s, a_s, a_t, b_t>.
    a_first = np.where(d_ss <= max_delay_s, np.minimum(d_ss + d_s2t + d_tt, d_ss + c_b + d_t2t), np.inf)
    b_first = np.where(d_s2s <= max_delay_s, np.minimum(d_s2s + d_st2 + d_t2t, d_s2s + c_a + d_tt), np.inf)
    combined = np.minimum(a_first, b_first)
    feasible = (np.abs(rt[i] - rt[j]) <= max_delay_s) & np.isfinite(combined)
    return np.where(feasible, np.maximum(0.0, c_a + c_b - combined), 0.0)


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
    return _evaluate(_ride_arrays(net, rides), pairs[:, 0], pairs[:, 1], max_delay_s)


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
    m = len(others)
    utility = _evaluate(_ride_arrays(net, [q, *others]), 0, np.arange(1, m + 1), max_delay_s)
    ids = np.fromiter((r.id for r in others), dtype=np.int64, count=m)
    order = np.lexsort((ids, -utility))[:k]
    return [(int(ids[i]), float(utility[i])) for i in order]


def brute_force_topk_all(
    rides: list[Ride],
    k: int,
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
) -> dict[int, list[tuple[int, float]]]:
    """Oracle top-k for every ride at once: brute_force_topk's ranking by the
    baselines' top-k rule (`baselines._top_k`), min(k, n - 1) per ride. Rides
    are evaluated and ranked in blocks of rows x n pairs, at most _BLOCK
    pairs (at least one row) each."""
    n = len(rides)
    arrays = _ride_arrays(net, rides)
    ids = np.fromiter((r.id for r in rides), dtype=np.int64, count=n)
    k = min(k, n - 1)
    id_rank = _id_rank(ids)
    everyone = np.arange(n)[None, :]
    step = max(1, _BLOCK // max(1, n))
    out: dict[int, list[tuple[int, float]]] = {}
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        utility = _evaluate(arrays, rows[:, None], everyone, max_delay_s)
        cand = _top_k(-utility, everyone, rows, id_rank, k)
        top = np.take_along_axis(utility, cand, axis=-1)
        out.update(
            (rid, list(zip(cand_ids, values)))
            for rid, cand_ids, values in zip(ids[rows].tolist(), ids[cand].tolist(), top.tolist())
        )
    return out
