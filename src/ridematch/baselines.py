"""The three heuristic comparison approaches, deterministic and time-blind.

One two-stage search serves all three: CLOSEBY is its first stage (the k
nearest pickups), HAVERSINE its second (the top k by straight-line matching
utility), CLOSEBY-HAVERSINE both. Both stages rank by one rule (_top_k).
"""

from __future__ import annotations

import numpy as np

from .geo import haversine_km_arrays
from .trips import Ride

DEFAULT_M_CANDIDATES = 1000
DEFAULT_NOMINAL_SPEED_MPS = 8.0
# The maximum pickup delay of a match, here and in the exact evaluator
# (`utility`, which imports this module): 10 minutes
DEFAULT_MAX_DELAY_S = 600.0

# values per ranking block (see _search)
_BLOCK = 2**18


def _id_rank(ids):
    """Each ride's rank in ascending id order, the order _top_k breaks ties in."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[np.argsort(ids, kind="stable")] = np.arange(len(ids))
    return rank


def _top_k(keys, cand, rows, id_rank, k):
    """Per row i, the positions of the k candidates with the smallest keys,
    ride rows[i] excluded, ties by ascending ride id (id_rank from _id_rank).
    Overwrites keys (rows × candidates); k must not exceed the candidates
    other than the ride."""
    cand = np.broadcast_to(cand, keys.shape)
    keys[cand == rows[:, None]] = np.inf
    if k == 0:
        return cand[:, :0]
    # Every key below the k-th smallest is taken; of the keys tied with it,
    # those of the lowest ids fill the rest. Only the k taken are sorted.
    kth = np.partition(keys, k - 1, axis=1)[:, [k - 1]]
    less = keys < kth
    tie_ranks = id_rank[cand]
    tie_ranks[keys != kth] = len(id_rank)
    lowest = np.sort(np.partition(tie_ranks, k - 1, axis=1)[:, :k], axis=1)
    last = np.take_along_axis(lowest, k - 1 - np.count_nonzero(less, axis=1)[:, None], axis=1)
    cols = ((less | (tie_ranks <= last)).ravel().nonzero()[0] % keys.shape[1]).reshape(len(keys), k)
    taken = np.take_along_axis(cand, cols, axis=1)
    order = np.lexsort((id_rank[taken], np.take_along_axis(keys, cols, axis=1)), axis=-1)
    return np.take_along_axis(taken, order, axis=1)


def _rank_by_utility(ps, ds, costs, id_rank, rows, cand, k, max_delay_s, nominal_speed_mps):
    """Per row, the positions of the k candidates of highest haversine utility:
    the exact evaluator's four pickup-first orderings with straight-line
    distances (km), whose minimum collapses to ss + tt + min(cross, cross',
    C_a, C_b), zeroed unless pickup distance / nominal speed <= max delay."""
    q = rows[:, None]
    p_lat, p_lon, d_lat, d_lon = ps[cand, 0], ps[cand, 1], ds[cand, 0], ds[cand, 1]
    ss = haversine_km_arrays(p_lat, p_lon, ps[q, 0], ps[q, 1])
    tt = haversine_km_arrays(d_lat, d_lon, ds[q, 0], ds[q, 1])
    s2t = haversine_km_arrays(p_lat, p_lon, ds[q, 0], ds[q, 1])
    st2 = haversine_km_arrays(d_lat, d_lon, ps[q, 0], ps[q, 1])
    c_a, c_b = costs[q], costs[cand]
    combined = ss + tt + np.minimum(np.minimum(s2t, st2), np.minimum(c_a, c_b))
    utility = np.maximum(0.0, c_a + c_b - combined)
    utility[ss * 1000.0 / nominal_speed_mps > max_delay_s] = 0.0
    return _top_k(-utility, cand, rows, id_rank, k)


def _search(rides, nearest, by_utility=None) -> dict[int, list[int]]:
    """Per ride, the ids of its `nearest` nearest pickups (every other ride if
    None) or, given by_utility = (k, max_delay_s, nominal_speed_mps), the k of
    those of highest haversine utility. Rides are ranked in blocks of rows × n
    candidates, at most _BLOCK values (at least one row) each."""
    n = len(rides)
    ids = np.fromiter((r.id for r in rides), dtype=np.int64, count=n)
    id_rank = _id_rank(ids)
    ps = np.array([[r.pickup.lat, r.pickup.lon] for r in rides])
    ds = np.array([[r.dropoff.lat, r.dropoff.lon] for r in rides])
    costs = haversine_km_arrays(ps[:, 0], ps[:, 1], ds[:, 0], ds[:, 1])
    everyone = np.arange(n)[None, :]
    step = max(1, _BLOCK // max(1, n))
    out: dict[int, list[int]] = {}
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        cand = everyone
        if nearest is not None:
            dist = haversine_km_arrays(ps[rows, 0:1], ps[rows, 1:2], ps[cand, 0], ps[cand, 1])
            cand = _top_k(dist, cand, rows, id_rank, nearest)
        if by_utility is not None:
            cand = _rank_by_utility(ps, ds, costs, id_rank, rows, cand, *by_utility)
        out.update(zip(ids[rows].tolist(), ids[cand].tolist()))
    return out


def closeby(rides: list[Ride], k: int) -> dict[int, list[int]]:
    """Exact k nearest rides by haversine distance between pickups."""
    n = len(rides)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return _search(rides, k)


def haversine_topk(
    rides: list[Ride],
    k: int,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    nominal_speed_mps: float = DEFAULT_NOMINAL_SPEED_MPS,
) -> dict[int, list[int]]:
    """Exhaustive top-k by haversine matching utility per ride."""
    if not rides:
        raise ValueError("need n >= 1 rides, got n=0")
    return _search(rides, None, (min(k, len(rides) - 1), max_delay_s, nominal_speed_mps))


def closeby_haversine(
    rides: list[Ride],
    k: int,
    m_candidates: int = DEFAULT_M_CANDIDATES,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    nominal_speed_mps: float = DEFAULT_NOMINAL_SPEED_MPS,
) -> dict[int, list[int]]:
    """Two-stage hybrid: m nearest pickups first, then top-k by haversine
    utility. A one-ride pool has no candidates: its ride maps to []."""
    if m_candidates < k:
        raise ValueError(f"m_candidates ({m_candidates}) must be >= k ({k})")
    n = len(rides)
    if m_candidates < 1 or n < 1:
        raise ValueError(f"need m_candidates >= 1 and n >= 1, got m_candidates={m_candidates}, n={n}")
    nearest = min(m_candidates, n - 1)
    if nearest == n - 1:  # stage 1 would keep every other ride: HAVERSINE
        return _search(rides, None, (min(k, nearest), max_delay_s, nominal_speed_mps))
    return _search(rides, nearest, (k, max_delay_s, nominal_speed_mps))
