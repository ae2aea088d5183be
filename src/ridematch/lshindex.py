"""Cross-polytope LSH over transformed ride vectors.

A hash function pseudo-rotates a vector (three sign-flip/Hadamard rounds) and
returns the nearest signed basis vector among the first `cp_dim` rotated
coordinates: 2*argmax|y| + (1 if that coordinate is negative). Only those
rows of the rotation are ever read, so they are built once per index (three
Hadamard transforms over a block of unit vectors) and hashing is one matrix
product, a projection onto them. A projected coordinate with |y| < 1e-12
counts as exactly 0, which hashes to the + side with margin 0. Per table,
`hash_bits` function outputs are mixed into one 64-bit bucket key with seeded
odd multipliers plus a per-table salt, which makes multi-probe a matter of
O(1) key deltas.
Retrieved candidates are re-scored by exact inner product, so only the
candidate set is approximate, never the scores.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .represent import (
    DEFAULT_MAX_NORM,
    DEFAULT_NORM_TERMS,
    DEFAULT_SPACE_PRECISION,
    DEFAULT_TIME_INTERVAL_S,
    DegenerateInputError,
    feature_hash,
    normalize_dataset,
    preprocessing_vector,
    query_vector,
    st_edge_set,
    transform_P_batch,
    transform_Q,
    unit_normalize,
)

_U64 = np.uint64


def _child_seed(seed: int, label: str) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return int.from_bytes(blake2b(label.encode(), digest_size=8, key=key).digest(), "big")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _fwht_rows(x: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform along axis 1, in place."""
    n, d = x.shape
    h = 1
    while h < d:
        y = x.reshape(n, d // (2 * h), 2, h)
        a = y[:, :, 0, :].copy()
        b = y[:, :, 1, :]
        y[:, :, 0, :] = a + b
        y[:, :, 1, :] = a - b
        h *= 2


def _top2_abs(y: np.ndarray):
    """Per row of y: hash codes of the largest and second-largest |entry|.

    Returns (code1, code2, margin) where code = 2*index + (entry < 0) and
    margin = |top| - |second|. Ties go to the lowest index.
    """
    n = y.shape[0]
    a = np.abs(y)
    rows = np.arange(n)
    j1 = a.argmax(axis=1)
    v1 = y[rows, j1]
    a[rows, j1] = -np.inf
    j2 = a.argmax(axis=1)
    v2 = y[rows, j2]
    code1 = 2 * j1.astype(np.int64) + (v1 < 0)
    code2 = 2 * j2.astype(np.int64) + (v2 < 0)
    margin = np.abs(v1) - np.abs(v2)
    return code1, code2, margin


# A projected coordinate with |y| below this is exactly 0: the + side code,
# margin 0. Query entries are multiples of 1/sqrt(m), so a true projection is
# often exactly 0, and floating-point sums leave noise of either sign there.
_ZERO_TOL = 1e-12


def _projection(signs: np.ndarray, dim_in: int, cp_dim: int) -> np.ndarray:
    """The first cp_dim rows of every function's rotation, unscaled.

    signs: (n_fns, 3, d) of +-1. Function f rotates x to
    y = c*H*S2*H*S1*H*S0*x with c = d**-1.5, and H is symmetric, so its
    row j is c*S0*H*S1*H*S2*H*e_j. Returns the (dim_in, n_fns*cp_dim) matrix
    whose column f*cp_dim + j is that row without c, cut to the first dim_in
    coordinates because the padding coordinates multiply zeros. Its entries
    are integers.
    """
    n_fns, _, d = signs.shape
    rows = np.zeros((n_fns, cp_dim, d))
    diag = np.arange(cp_dim)
    rows[:, diag, diag] = 1.0
    flat = rows.reshape(-1, d)
    for r in (2, 1, 0):
        _fwht_rows(flat)
        rows *= signs[:, r, None, :]
    return flat[:, :dim_in].T


def _signs(seed: int, n_fns: int, d: int) -> np.ndarray:
    """The (n_fns, 3, d) +-1 rotation signs of the first n_fns functions of
    the hash family under seed; fewer functions are a prefix of more."""
    rng = np.random.default_rng((seed, 0x51))
    return rng.integers(0, 2, size=(n_fns, 3, d)).astype(np.float64) * 2.0 - 1.0


def _project_codes(mat: np.ndarray, proj: np.ndarray, cp_dim: int, scale: float):
    """Per row and function: (code, runner-up code, margin), each (n, n_fns).

    proj holds cp_dim projection columns per function (see _projection).
    The argmax is restricted to those cp_dim rotated coordinates: cp_dim
    tunes per-function granularity (2*cp_dim outcomes); full dimension is the
    classic cross-polytope hash, cp_dim=1 degenerates to a hyperplane sign
    bit. The runner-up code and margin drive multi-probe.
    """
    n = mat.shape[0]
    y = mat @ proj
    y *= scale
    y[np.abs(y) < _ZERO_TOL] = 0.0
    if cp_dim == 1:
        codes = (y < 0).astype(np.int64)
        return codes, 1 - codes, np.abs(y)
    c1, c2, margin = _top2_abs(y.reshape(-1, cp_dim))
    return c1.reshape(n, -1), c2.reshape(n, -1), margin.reshape(n, -1)


def suggest_params(n: int, k: int, failure_prob: float, rho_estimate: float) -> tuple[int, int]:
    """(tables, hash_bits) from the amplification analysis, clamped to sane ranges."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob must be in (0, 1), got {failure_prob}")
    if not 0.0 < rho_estimate < 1.0:
        raise ValueError(f"rho_estimate must be in (0, 1), got {rho_estimate}")
    hash_bits = min(20, max(4, math.ceil(math.log2(n))))
    tables = min(512, max(8, math.ceil(n**rho_estimate * math.log(k / failure_prob))))
    return tables, hash_bits


@dataclass
class LshConfig:
    tables: int = 50
    hash_bits: int = 10
    probes: int = 4
    dim: int = 128
    cp_dim: int = 1
    norm_terms: int = DEFAULT_NORM_TERMS
    max_norm: float = DEFAULT_MAX_NORM
    seed: int = 0
    k: int = 10


@dataclass
class MatchSearchSummary:
    n_rides: int
    degenerate_ids: list[int]
    candidates_per_query: np.ndarray
    raw_retrieved_per_query: np.ndarray

    @property
    def mean_candidates(self) -> float:
        a = self.candidates_per_query
        return float(a.mean()) if len(a) else 0.0


class LshIndex:
    """L amplified hash tables over stored data vectors, with exact re-scoring.

    Immutable after construction. The rows are stored in (ride id, given
    position) order, so sorting candidates by entry puts a ride's routes
    side by side. All tables share one flat store: every table's bucket
    keys, each salted by its table, in one sorted array, and each bucket's
    start and length in one array of entries. So one searchsorted probes
    every table, rather than per-bucket dicts.
    """

    _QUERY_CHUNK = 1024
    # Projected values per hashing block (16 MB of float64). It bounds the
    # (rows x functions*cp_dim) product and the top-2 temporaries, and the
    # block of rotation rows built at construction.
    _HASH_BLOCK = 2**21

    def __init__(
        self,
        ids,
        matrix,
        tables: int,
        hash_bits: int,
        seed: int = 0,
        cp_dim: int | None = None,
    ):
        """Hash every row of matrix into `tables` tables of `hash_bits` functions.

        The projection `proj` is a (dim, tables*hash_bits*cp_dim) float64
        matrix: 8*dim*tables*hash_bits*cp_dim bytes, 520 KB for dim 130 and
        500 functions at cp_dim=1, 133 MB at the full cp_dim of 256.
        """
        if len(ids) == 0:
            raise DegenerateInputError("cannot build an index over no vectors")
        if tables < 1 or hash_bits < 1:
            raise ValueError("tables and hash_bits must be >= 1")
        ids = np.asarray(ids, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix) != len(ids):
            raise ValueError(f"need one id per row, got {len(ids)} ids for {len(matrix)} rows")
        by_ride = np.argsort(ids, kind="stable")
        self.ids = ids[by_ride]
        self.matrix = np.ascontiguousarray(matrix[by_ride])
        if np.any(np.linalg.norm(self.matrix, axis=1) == 0.0):
            raise ValueError("cannot index zero vectors")
        self.tables = tables
        self.hash_bits = hash_bits
        self.seed = seed
        self.dim_in = self.matrix.shape[1]
        self.d_padded = _next_pow2(self.dim_in)
        self.cp_dim = self.d_padded if cp_dim is None else cp_dim
        if not 1 <= self.cp_dim <= self.d_padded:
            raise ValueError(f"cp_dim must be in [1, {self.d_padded}], got {cp_dim}")

        n_fns = tables * hash_bits
        signs = _signs(seed, n_fns, self.d_padded)
        rng = np.random.default_rng((seed, 0x52))
        self.mults = rng.integers(1, 2**63, size=(tables, hash_bits), dtype=np.uint64) | _U64(1)
        self.scale = self.d_padded**-1.5
        self.proj = np.empty((self.dim_in, n_fns * self.cp_dim))
        for f0, f1 in self._fn_blocks(self.d_padded):
            cols = slice(f0 * self.cp_dim, f1 * self.cp_dim)
            self.proj[:, cols] = _projection(signs[f0:f1], self.dim_in, self.cp_dim)

        codes, _, _ = self._hash_all(self.matrix, want_probes=False)
        n = len(self.ids)
        # One sorted array of every table's buckets. A bucket key is the
        # mixed codes plus its table's salt, so one searchsorted probes all
        # tables; salts are redrawn until no two tables share a salted key,
        # and a probe hits only a bucket of its own table (_bucket_table).
        # Bucket b holds the entries _entries[_bucket_starts[b]:][:_bucket_lens[b]].
        mixed = (codes.astype(np.uint64) * self.mults).sum(axis=2, dtype=np.uint64).T
        salt_rng = np.random.default_rng((seed, 0x53))
        while True:
            self._salts = _draw_salts(salt_rng, tables)
            flat = (mixed + self._salts[:, None]).ravel()  # at tbl * n + entry
            order = np.argsort(flat, kind="stable")
            skeys = flat[order]
            first = _first_of_runs(skeys)
            table_of = order // n
            if not np.any(~first[1:] & (table_of[1:] != table_of[:-1])):
                break
        starts = np.flatnonzero(first)
        self._bucket_keys = skeys[starts]
        self._bucket_table = table_of[starts]
        self._bucket_starts = starts
        self._bucket_lens = np.diff(np.append(starts, tables * n))
        self._entries = order % n

    def _fn_blocks(self, n_rows: int):
        """(first, end) function ranges of at most _HASH_BLOCK values over n_rows rows."""
        n_fns = self.tables * self.hash_bits
        step = max(1, self._HASH_BLOCK // (n_rows * self.cp_dim))
        return [(f0, min(f0 + step, n_fns)) for f0 in range(0, n_fns, step)]

    def _hash_all(self, mat, want_probes: bool):
        """Hash every row under every (table, function); (n, L, t) arrays."""
        n = mat.shape[0]
        n_fns = self.tables * self.hash_bits
        codes = np.empty((n, n_fns), dtype=np.int32)
        alts = np.empty((n, n_fns), dtype=np.int32) if want_probes else None
        margins = np.empty((n, n_fns), dtype=np.float32) if want_probes else None
        for f0, f1 in self._fn_blocks(n):
            cols = slice(f0 * self.cp_dim, f1 * self.cp_dim)
            c1, c2, mg = _project_codes(mat, self.proj[:, cols], self.cp_dim, self.scale)
            codes[:, f0:f1] = c1
            if want_probes:
                alts[:, f0:f1] = c2
                margins[:, f0:f1] = mg
        shape = (n, self.tables, self.hash_bits)
        return (
            codes.reshape(shape),
            alts.reshape(shape) if want_probes else None,
            margins.reshape(shape) if want_probes else None,
        )

    @staticmethod
    def _probe_keys(base, deltas, margins, probes: int):
        """(n, probes) probe keys plus validity mask, best-first by margin sum.

        Probe 0 is the base bucket; later probes substitute runner-up codes
        for a subset of the functions, in ascending order of the subset's
        margin sum. Ties go to the smaller bitmask over the functions' ranks
        in a stable margin sort, so {0} < {1} < {0, 1} < {2}. The order is
        exact: a closed form covers probes <= 4, a per-row subset heap
        handles larger counts. Probes past the 2**t - 1 subsets are invalid,
        with key 0.
        """
        n, t = margins.shape
        if probes <= 1:
            return base[:, None].copy(), np.ones((n, 1), dtype=bool)
        if probes <= 4:
            # ranks 0-2 have margins m0 <= m1 <= m2, all >= 0, so the flips
            # come in the order {0}, {1}, then {0, 1} if m0 + m1 <= m2 else {2}
            ranked = np.argsort(margins, axis=1, kind="stable")[:, :3]
            ranked += np.arange(0, n * t, t)[:, None]  # flat positions
            d = deltas.take(ranked)
            flips = base[:, None] + d  # {0}, {1}, {2}
            if t == 2:
                flips = np.append(flips, flips[:, :1] + d[:, 1:], axis=1)
            elif t >= 3:
                m = margins.take(ranked)
                pair = np.add(m[:, 0], m[:, 1], dtype=np.float64) <= m[:, 2]
                flips[pair, 2] = flips[pair, 0] + d[pair, 1]
            got = min(probes - 1, flips.shape[1])
            keys = np.zeros((n, probes), dtype=np.uint64)
            keys[:, 0] = base
            keys[:, 1 : got + 1] = flips[:, :got]
            valid = np.zeros((n, probes), dtype=bool)
            valid[:, : got + 1] = True
            return keys, valid
        keys = np.zeros((n, probes), dtype=np.uint64)
        valid = np.zeros((n, probes), dtype=bool)
        for r in range(n):
            order = np.argsort(margins[r], kind="stable")
            m = margins[r, order].astype(np.float64).tolist()
            keys[r, 0] = base[r]
            valid[r, 0] = True
            got = 1
            # best-first over flip subsets (ranks ascending), each made once
            # from its parent by extend-with-next or replace-last; both raise
            # the (sum, bitmask) key, so pops come in exactly that order
            heap = [(m[0], 1, (0,))]
            while heap and got < probes:
                _, _, subset = heapq.heappop(heap)
                # an array sum wraps mod 2**64 silently, as the closed form does
                keys[r, got] = np.append(deltas[r, order[list(subset)]], base[r]).sum(dtype=np.uint64)
                valid[r, got] = True
                got += 1
                last = subset[-1]
                if last + 1 < t:
                    for nxt in (subset + (last + 1,), subset[:-1] + (last + 1,)):
                        heapq.heappush(heap, (math.fsum(m[i] for i in nxt), sum(1 << i for i in nxt), nxt))
        return keys, valid

    def query_batch(self, qmat, k: int, probes_per_table: int = 1, exclude_ids=None):
        """Top-k (ride id, exact inner product) per query row, descending.

        Returns (results, distinct_candidates_per_query, raw_retrieved_per_query).
        """
        if k < 1 or probes_per_table < 1:
            raise ValueError("k and probes_per_table must be >= 1")
        qmat = np.atleast_2d(np.asarray(qmat, dtype=np.float64))
        nq = qmat.shape[0]
        results: list[list[tuple[int, float]]] = []
        counts = np.empty(nq, dtype=np.int64)
        raws = np.empty(nq, dtype=np.int64)
        for lo in range(0, nq, self._QUERY_CHUNK):
            hi = min(lo + self._QUERY_CHUNK, nq)
            excl = None if exclude_ids is None else np.asarray(exclude_ids, dtype=np.int64)[lo:hi]
            res, cnt, raw = self._query_chunk(qmat[lo:hi], k, probes_per_table, excl)
            results.extend(res)
            counts[lo:hi] = cnt
            raws[lo:hi] = raw
        return results, counts, raws

    def _candidates(self, qmat, probes):
        """Every (query row, entry) retrieved, repeats included.

        The probe keys of every (query, table) row come from one _probe_keys
        call, and one searchsorted into the salted bucket keys probes every
        table. Returns (query rows, entries, raw retrieved count per query).
        """
        nq = qmat.shape[0]
        codes, alts, margins = self._hash_all(qmat, want_probes=True)
        v = codes.astype(np.uint64) * self.mults
        deltas = alts.astype(np.uint64) * self.mults - v
        rows = nq * self.tables
        pkeys, pvalid = self._probe_keys(
            (v.sum(axis=2, dtype=np.uint64) + self._salts).reshape(rows),
            deltas.reshape(rows, self.hash_bits),
            margins.reshape(rows, self.hash_bits),
            probes,
        )
        pkeys = pkeys.reshape(nq, self.tables, -1)
        bucket, hit = self._find_buckets(pkeys)
        hit &= pvalid.reshape(pkeys.shape)
        hits = hit.ravel().nonzero()[0]
        hit_q = hits // pkeys[0].size  # (table, probe) cells per query
        bucket = bucket.take(hits)
        lens = self._bucket_lens[bucket]
        entries = self._entries[_concat_ranges(self._bucket_starts[bucket], lens)]
        q = np.repeat(hit_q, lens)
        return q, entries, np.bincount(q, minlength=nq)

    def _find_buckets(self, pkeys):
        """Per salted probe key, shape (..., tables, probes): its bucket and
        whether it hits, i.e. is a bucket of the probe's own table. A key past
        the last bucket is a miss, and so is a bucket of another table."""
        bucket = np.minimum(self._bucket_keys.searchsorted(pkeys), len(self._bucket_keys) - 1)
        hit = self._bucket_keys[bucket] == pkeys
        hit &= self._bucket_table[bucket] == np.arange(self.tables)[:, None]
        return bucket, hit

    def _query_chunk(self, qmat, k, probes, exclude_ids):
        nq, n = qmat.shape[0], len(self.ids)
        qidx, entry, raw_counts = self._candidates(qmat, probes)
        # distinct (query, entry) pairs, sorted by (query, ride id, entry),
        # less each query's excluded ride; arrays are freed as soon as they
        # are read, since they hold every retrieved pair
        qidx *= n
        qidx += entry
        del entry
        qidx.sort()
        pair = qidx[_first_of_runs(qidx)]
        del qidx
        qidx, entry = np.divmod(pair, n)
        del pair
        rids = self.ids[entry]
        if exclude_ids is not None:
            keep = rids != exclude_ids[qidx]
            qidx, entry, rids = qidx[keep], entry[keep], rids[keep]
            del keep
        bounds = np.searchsorted(qidx, np.arange(nq + 1))
        # scores against each query's own row (only data rows are gathered,
        # one query's candidates at a time)
        scores = np.empty(len(entry))
        for row, s, e in zip(qmat, bounds[:-1].tolist(), bounds[1:].tolist()):
            np.einsum("ij,j->i", self.matrix.take(entry[s:e], axis=0), row, out=scores[s:e])
        del entry
        # each (query, ride)'s best route, over the whole chunk at once
        first = _first_of_runs(rids)
        first[1:] |= qidx[1:] != qidx[:-1]
        del qidx
        starts = first.nonzero()[0]
        best, top = np.maximum.reduceat(scores, starts), rids[starts]
        del scores, rids, first
        # per query: the rides at or above the k-th score, then descending
        # score, where the stable sort keeps the ride id order on ties
        results = []
        ride_bounds = np.searchsorted(starts, bounds).tolist()
        for s, e in zip(ride_bounds[:-1], ride_bounds[1:]):
            sc, ids = best[s:e], top[s:e]
            if e - s > k:
                keep = sc >= np.partition(sc, -k)[-k]
                sc, ids = sc[keep], ids[keep]
            order = np.argsort(-sc, kind="stable")[:k]
            results.append(list(zip(ids[order].tolist(), sc[order].tolist())))
        return results, bounds[1:] - bounds[:-1], raw_counts


def _draw_salts(rng, tables: int) -> np.ndarray:
    """One uniform 64-bit bucket key salt per table."""
    return rng.integers(0, 2**64, size=tables, dtype=np.uint64)


def _concat_ranges(starts, lens):
    """The ranges [start, start + len) end to end, as one int64 array."""
    ends = np.cumsum(lens)
    out = np.repeat(starts - (ends - lens), lens)
    out += np.arange(len(out))
    return out


def _first_of_runs(keys):
    """Mask of the entries that start a run of equal keys in a sorted array."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def query(
    index: LshIndex,
    q: np.ndarray,
    k: int,
    probes_per_table: int = 1,
    exclude_id: int | None = None,
) -> list[tuple[int, float]]:
    """Top-k (ride id, score) for one query vector, descending score."""
    q = np.asarray(q, dtype=np.float64)
    if not np.any(q):
        raise ValueError("cannot query with a zero vector")
    excl = None if exclude_id is None else np.array([exclude_id], dtype=np.int64)
    results, _, _ = index.query_batch(q[None, :], k, probes_per_table, exclude_ids=excl)
    return results[0]


def find_potential_matches(
    rides,
    cfg: LshConfig | None = None,
    space_precision: int = DEFAULT_SPACE_PRECISION,
    time_interval_s: float = DEFAULT_TIME_INTERVAL_S,
) -> tuple[dict[int, list[tuple[int, float]]], MatchSearchSummary]:
    """End-to-end search: top-k potential co-riders for every ride.

    Pipeline: space-time edge sets -> data/query sparse vectors -> feature
    hashing (each distinct edge key hashed once per call) -> global data-norm
    scaling -> asymmetric transforms -> index build -> per-ride multi-probe
    query. Rides whose route collapses to an empty edge set (or hashes to a
    zero query) get an empty match list and are flagged in the summary.
    """
    rides = list(rides)
    cfg = cfg or LshConfig()
    fh_seed = _child_seed(cfg.seed, "feature-hash")
    # every key is a SpaceTimeEdge, and a ride's data and query rows share keys
    fh_memo: dict = {}
    index_seed = _child_seed(cfg.seed, "index")

    entry_ids: list[int] = []
    sparse_rows = []
    query_sparse: dict[int, dict] = {}
    degenerate: list[int] = []
    for ride in rides:
        sets = [
            st_edge_set(rt, ride.request_time, space_precision, time_interval_s)
            for rt in ride.routes
        ]
        if not sets[0]:
            degenerate.append(ride.id)
            continue
        query_sparse[ride.id] = query_vector(sets[0])
        for s in sets:
            if s:
                entry_ids.append(ride.id)
                sparse_rows.append(preprocessing_vector(s))

    matches: dict[int, list[tuple[int, float]]] = {r.id: [] for r in rides}
    if not sparse_rows:
        empty = np.zeros(0, dtype=np.int64)
        return matches, MatchSearchSummary(len(rides), sorted(degenerate), empty, empty)

    data = np.stack([feature_hash(v, cfg.dim, fh_seed, fh_memo) for v in sparse_rows])
    data, _scale = normalize_dataset(data, cfg.max_norm)
    pmat = transform_P_batch(data, cfg.norm_terms)
    index = LshIndex(entry_ids, pmat, cfg.tables, cfg.hash_bits, index_seed, cp_dim=cfg.cp_dim)

    query_order = [r.id for r in rides if r.id in query_sparse]
    qrows = []
    for rid in query_order:
        qv = feature_hash(query_sparse[rid], cfg.dim, fh_seed, fh_memo)
        try:
            qrows.append(unit_normalize(qv))
        except DegenerateInputError:
            degenerate.append(rid)
            qrows.append(None)
    live = [i for i, qv in enumerate(qrows) if qv is not None]
    counts = np.zeros(len(live), dtype=np.int64)
    raws = np.zeros(len(live), dtype=np.int64)
    if live:
        qmat = np.stack([transform_Q(qrows[i], cfg.norm_terms) for i in live])
        excl = np.array([query_order[i] for i in live], dtype=np.int64)
        results, counts, raws = index.query_batch(qmat, cfg.k, cfg.probes, exclude_ids=excl)
        for i, res in zip(live, results):
            matches[query_order[i]] = res
    summary = MatchSearchSummary(
        n_rides=len(rides),
        degenerate_ids=sorted(degenerate),
        candidates_per_query=counts,
        raw_retrieved_per_query=raws,
    )
    return matches, summary
