"""Ride -> vector pipeline.

A route becomes a set of directed (space cell, time bucket) edges weighted by
traversal cost; the data-side vector carries edge costs, the query-side vector
carries ones, so their inner product is exactly the summed cost of the shared
edges. Feature hashing drops the (huge, sparse) edge space to a fixed power-of-
two dimension, and the asymmetric transforms reduce inner-product search to
cosine similarity search.
"""

from __future__ import annotations

import math
from functools import lru_cache
from hashlib import blake2b
from typing import NamedTuple

import numpy as np

from .geo import CellId, GeoPoint, TimeBucket, geohash_encode
from .roadnet import Route


class DegenerateInputError(ValueError):
    """Input has no usable signal (all-zero vectors, zero norm, ...)."""


class SpaceTimeEdge(NamedTuple):
    from_cell: CellId
    from_bucket: TimeBucket
    to_cell: CellId
    to_bucket: TimeBucket


# Sparse vectors are {dimension key -> magnitude} maps; dense vectors are
# fixed-length float64 arrays.
SpaceTimeEdgeSet = dict[SpaceTimeEdge, float]
SparseVector = dict


# Search defaults: the geohash precision of a space cell, the length of a
# time bucket, the data norm cap U and the number m of norm terms of the
# asymmetric transform.
DEFAULT_SPACE_PRECISION = 7
DEFAULT_TIME_INTERVAL_S = 1200.0
DEFAULT_MAX_NORM = 0.75
DEFAULT_NORM_TERMS = 2


# Bound of the geohash cell cache, keyed by (lat, lon, precision): a float
# tuple hashes in C, where a GeoPoint key would run its dataclass __hash__.
_CELL_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=_CELL_CACHE_SIZE)
def _cell_of(lat: float, lon: float, precision: int) -> str:
    return geohash_encode(GeoPoint(lat, lon), precision)


def st_edge_set(
    route: Route,
    request_time: float,
    space_precision: int = DEFAULT_SPACE_PRECISION,
    time_interval_s: float = DEFAULT_TIME_INTERVAL_S,
) -> SpaceTimeEdgeSet:
    """Space-time discretized edge set of a route served without delay.

    Each route point maps to (geohash cell, bucket of its no-delay arrival
    time); consecutive duplicate nodes collapse, each surviving transition
    becomes a directed edge costing the segment durations traversed between
    the two nodes, and revisited edges accumulate cost.
    """
    points = route.points
    if not points:
        raise ValueError("route must contain at least one point")
    if time_interval_s <= 0:
        raise ValueError(f"interval must be positive, got {time_interval_s}")
    # one pass: arrival times are the running sum from request_time, and a
    # point's bucket is floor(t / interval), counted from t = 0
    floor = math.floor
    # SpaceTimeEdge's own __new__ is a Python call; tuple's builds the same
    new_edge = tuple.__new__
    p = points[0]
    cell = _cell_of(p.lat, p.lon, space_precision)
    bucket = floor(request_time / time_interval_s)
    t = request_time
    accum = 0.0
    edges: SpaceTimeEdgeSet = {}
    for p, d in zip(points[1:], route.segment_durations):
        t += d
        accum += d
        to_cell = _cell_of(p.lat, p.lon, space_precision)
        to_bucket = floor(t / time_interval_s)
        if to_cell == cell and to_bucket == bucket:
            continue
        if accum > 0.0:
            edge = new_edge(SpaceTimeEdge, (cell, bucket, to_cell, to_bucket))
            edges[edge] = edges.get(edge, 0.0) + accum
        cell, bucket, accum = to_cell, to_bucket, 0.0
    return edges


def preprocessing_vector(s: SpaceTimeEdgeSet) -> SparseVector:
    """Data-side vector: one entry per edge, magnitude = edge cost."""
    return dict(s)


def query_vector(s: SpaceTimeEdgeSet) -> SparseVector:
    """Query-side vector: one entry per edge, magnitude 1."""
    return {e: 1.0 for e in s}


def sparse_inner(a: SparseVector, b: SparseVector) -> float:
    if len(b) < len(a):
        a, b = b, a
    return math.fsum(v * b[k] for k, v in a.items() if k in b)


def _key_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode()
    return repr(key).encode()


# Bound of the process-wide (index, sign) slot cache. _slot takes either
# the exact bytes a key hashes or an exactly typed SpaceTimeEdge (see
# _slot_of), which skips the edge's repr on a hit. Keys that compare equal
# but hash different bytes (a SpaceTimeEdge and the plain tuple of its
# fields, True and 1) never share an entry: bytes never equal an edge, and
# two exactly typed edges are equal only if their reprs are.
_SLOT_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_SLOT_CACHE_SIZE)
def _slot(key, d: int, skey: bytes) -> tuple[int, float]:
    h = int.from_bytes(blake2b(_key_bytes(key), digest_size=8, key=skey).digest(), "big")
    return (h >> 1) % d, 1.0 - 2.0 * (h & 1)


def _slot_of(key, d: int, skey: bytes) -> tuple[int, float]:
    """A key's (index, sign), cached by the edge for a SpaceTimeEdge of two
    str cells and two int buckets, by its bytes for every other key."""
    if (
        type(key) is SpaceTimeEdge
        and type(key[0]) is str
        and type(key[1]) is int
        and type(key[2]) is str
        and type(key[3]) is int
    ):
        return _slot(key, d, skey)
    return _slot(_key_bytes(key), d, skey)


def feature_hash(v: SparseVector, d: int, seed: int = 0, memo: dict | None = None) -> np.ndarray:
    """Signed feature hashing into d dimensions (d a power of two).

    Each key is mapped by a seeded hash to an (index, sign) pair and
    magnitudes accumulate, so inner products are unbiased over seeds.
    memo, a dict from key to (index, sign), lets calls with the same d and
    seed skip each key's slot lookup after its first. Its keys must not mix
    types whose values compare equal: a SpaceTimeEdge equals the plain tuple
    of its fields, but the two hash by their different reprs.
    """
    if d < 2 or d & (d - 1):
        raise ValueError(f"d must be a power of two >= 2, got {d}")
    out = np.zeros(d)
    skey = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    slots = {} if memo is None else memo
    for key, mag in v.items():
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _slot_of(key, d, skey)
        out[slot[0]] += slot[1] * mag
    return out


def normalize_dataset(vectors, max_norm: float = DEFAULT_MAX_NORM):
    """Scale the whole dataset by one factor so the largest l2 norm == max_norm.

    A single positive factor preserves the inner-product ranking against any
    fixed query. Returns (scaled (n, d) array, scale factor).
    """
    mat = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    top = norms.max() if len(norms) else 0.0
    if top == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero dataset")
    scale = max_norm / top
    return mat * scale, scale


def unit_normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x)
    if n == 0.0:
        raise DegenerateInputError("cannot unit-normalize a zero vector")
    return x / n


def transform_Q(x: np.ndarray, norm_terms: int = DEFAULT_NORM_TERMS) -> np.ndarray:
    """Query-side MIPS transform: append zeros (expects a unit-norm input)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.any(x):
        raise DegenerateInputError("zero vector cannot be unit-normalized")
    return np.concatenate([x, np.zeros(norm_terms)])


def transform_P_batch(mat: np.ndarray, norm_terms: int = DEFAULT_NORM_TERMS) -> np.ndarray:
    """Data-side MIPS transform of each row: append 1/2 - ||x||^(2^i) for
    i = 1..norm_terms. Every row norm must be < 1 (norm reduction first)."""
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms >= 1.0):
        raise ValueError("all data vector norms must be < 1 (norm reduction first)")
    tails = [0.5 - norms ** (2 ** i) for i in range(1, norm_terms + 1)]
    return np.hstack([mat, np.stack(tails, axis=1)])
