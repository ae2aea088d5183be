"""Cross-polytope LSH over transformed ride vectors.

A hash function pseudo-rotates a vector (three sign-flip/Hadamard rounds) and
returns the nearest signed basis vector among the first `cp_dim` rotated
coordinates: 2*argmax|y| + (1 if that coordinate is negative). Only those
rows of the rotation are ever read, so they are built once per hash family
(three Hadamard transforms over a block of unit vectors; see _rotation) and
hashing is one matrix product, a projection onto them. A projected
coordinate with |y| < 1e-12 counts as exactly 0, which hashes to the + side
with margin 0. Per table, `hash_bits` function outputs are mixed into one
64-bit bucket key with seeded odd multipliers plus a per-table salt, which
makes multi-probe a matter of O(1) key deltas.
An index given request times and `max_delay_s` also keys each bucket by its
slab, floor(t / max_delay_s), with a per-slab salt. A query probes its own
slab and the two beside it, the only slabs a ride within max_delay_s can
sit in, and drops every entry with |dt| > max_delay_s before ranking: the
same `<=` rule as utility._evaluate, under which such a pair has zero
utility.
Retrieved candidates are re-scored by exact inner product, so only the
candidate set is approximate, never the scores.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b

import numpy as np

from .baselines import DEFAULT_MAX_DELAY_S
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


# Projected values per hashing block (16 MB of float64). It bounds the
# (rows x functions*cp_dim) product and the top-2 temporaries, and the block
# of rotation rows built by _rotation.
_HASH_BLOCK = 2**21

# Probe keys per query chunk of LshIndex.query_batch. A query has tables *
# probes keys, three times that given request times (one per probed slab),
# and every array of a chunk grows with them: the hash codes, the keys and
# their buckets, and the entries retrieved. It bounds a chunk's working set
# whatever the index's tables and the caller's probes.
_PROBE_KEYS = 2**16


def _fn_blocks(n_fns: int, n_rows: int, cp_dim: int):
    """(first, end) function ranges of at most _HASH_BLOCK values over n_rows rows."""
    step = max(1, _HASH_BLOCK // (n_rows * cp_dim))
    return [(f0, min(f0 + step, n_fns)) for f0 in range(0, n_fns, step)]


@lru_cache(maxsize=1)
def _rotation(seed: int, n_fns: int, d: int, dim_in: int, cp_dim: int) -> np.ndarray:
    """The read-only (dim_in, n_fns*cp_dim) projection of the first n_fns
    functions under seed over a padded dimension d (see _projection).

    It depends on nothing else, so the last one built is kept and every
    index of the same hash family shares it; at most one outlives its
    indexes.
    """
    signs = _signs(seed, n_fns, d)
    proj = np.empty((dim_in, n_fns * cp_dim))
    for f0, f1 in _fn_blocks(n_fns, d, cp_dim):
        proj[:, f0 * cp_dim : f1 * cp_dim] = _projection(signs[f0:f1], dim_in, cp_dim)
    proj.flags.writeable = False
    return proj


def _project_codes(mat: np.ndarray, proj: np.ndarray, cp_dim: int, scale: float, want_probes: bool = True):
    """Per row and function: (code, runner-up code, margin), each (n, n_fns);
    the last two are None unless want_probes.

    proj holds cp_dim projection columns per function (see _projection).
    The argmax is restricted to those cp_dim rotated coordinates: cp_dim
    tunes per-function granularity (2*cp_dim outcomes); full dimension is the
    classic cross-polytope hash, cp_dim=1 degenerates to a hyperplane sign
    bit. The runner-up code and margin drive multi-probe.
    """
    n = mat.shape[0]
    y = mat @ proj
    y *= scale
    if cp_dim == 1:
        # |y| < _ZERO_TOL counts as 0, the + side, so the code is one comparison
        codes = (y <= -_ZERO_TOL).view(np.uint8)
        if not want_probes:
            return codes, None, None
        margins = np.abs(y, out=y)
        margins[margins < _ZERO_TOL] = 0.0
        return codes, codes ^ 1, margins
    y[np.abs(y) < _ZERO_TOL] = 0.0
    c1, c2, margin = _top2_abs(y.reshape(-1, cp_dim))
    return c1.reshape(n, -1), c2.reshape(n, -1), margin.reshape(n, -1)


def _mix(codes: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """(n, tables) mixed bucket keys, sum of codes * mults mod 2**64, of
    (n, tables, hash_bits) unsigned codes; einsum casts the codes to uint64
    a buffer at a time, so no (n, tables, hash_bits) uint64 array is made."""
    return np.einsum("nlt,lt->nl", codes, mults)


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
    keys, each salted by its table (and, given request times, by its slab),
    in one sorted array, and each bucket's start and length in one array of
    entries. So one searchsorted probes every table and slab, rather than
    per-bucket dicts.

    Memory: query_batch works in chunks of at most _PROBE_KEYS (2**16) probe
    keys, tables * probes per query and three times that given request
    times (273 queries at 20 tables, 4 probes and request times), so its
    working set does not grow with the batch. Traced peaks (tracemalloc,
    66-wide unit rows, 20 tables of 8 bits, cp_dim 1): 2.6 MB to build over
    1200 rows, 11 MB for 1024 queries without request times (about 440k
    raw candidates). Over 4000 rows with 292 tables of 12 bits and request
    times, 1024 queries peak at 3 MB and the build at 118 MB, most of it the
    sort of the (tables * rows) salted keys.
    """

    def __init__(
        self,
        ids,
        matrix,
        tables: int,
        hash_bits: int,
        seed: int = 0,
        cp_dim: int | None = None,
        request_times=None,
        max_delay_s: float | None = None,
    ):
        """Hash every row of matrix into `tables` tables of `hash_bits` functions.

        Given request_times (one per row) and max_delay_s, every bucket is
        also keyed by its rows' slab, floor(t / max_delay_s), and queries
        must then pass their own request times. Without them the index has
        one slab and no time filter: the index for an infinite max_delay_s.

        The projection `proj` is a read-only (dim, tables*hash_bits*cp_dim)
        float64 matrix: 8*dim*tables*hash_bits*cp_dim bytes, 520 KB for dim
        130 and 500 functions at cp_dim=1, 133 MB at the full cp_dim of 256.
        Indexes with the same seed, functions, dim and cp_dim share one, and
        the last one built stays cached after its indexes are gone.
        """
        if len(ids) == 0:
            raise DegenerateInputError("cannot build an index over no vectors")
        if tables < 1 or hash_bits < 1:
            raise ValueError("tables and hash_bits must be >= 1")
        ids = np.asarray(ids, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix) != len(ids):
            raise ValueError(f"need one id per row, got {len(ids)} ids for {len(matrix)} rows")
        if (request_times is None) != (max_delay_s is None):
            raise ValueError("request_times and max_delay_s go together: give both or neither")
        if not np.isfinite(matrix).all():
            raise ValueError("cannot index non-finite vectors (NaN or inf)")
        by_ride = np.argsort(ids, kind="stable")
        self.ids = ids[by_ride]
        self.matrix = np.ascontiguousarray(matrix[by_ride])
        self.max_delay_s = None
        self._times = None
        slab = np.zeros(len(ids), dtype=np.int64)
        if request_times is not None:
            if not (math.isfinite(max_delay_s) and max_delay_s > 0):
                raise ValueError(f"max_delay_s must be positive and finite, got {max_delay_s}")
            times = np.asarray(request_times, dtype=np.float64)
            if times.shape != ids.shape:
                raise ValueError(f"need one request time per row, got {times.size} for {len(ids)} rows")
            self.max_delay_s = float(max_delay_s)
            self._times = times[by_ride]
            slab = self._slab_of(self._times)
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

        rng = np.random.default_rng((seed, 0x52))
        self.mults = rng.integers(1, 2**63, size=(tables, hash_bits), dtype=np.uint64) | _U64(1)
        self.scale = self.d_padded**-1.5
        self.proj = _rotation(seed, tables * hash_bits, self.d_padded, self.dim_in, self.cp_dim)

        codes, _, _ = self._hash_all(self.matrix, want_probes=False)
        mixed = _mix(codes, self.mults).T
        del codes
        n = len(self.ids)
        # One sorted array of every (table, slab)'s buckets. A bucket key is
        # the mixed codes plus its table's salt plus its slab's salt, so one
        # searchsorted probes all tables and slabs; salts are redrawn until no
        # two (table, slab) pairs share a salted key, and a probe hits only a
        # bucket of its own table and slab (_bucket_table, _bucket_slab).
        # Bucket b holds the entries _entries[_bucket_starts[b]:][:_bucket_lens[b]].
        # _slabs holds the slabs present, ascending, and slab indices point
        # into it. Without request times there is one slab, 0, with salt 0.
        self._slabs, entry_slab = np.unique(slab, return_inverse=True)
        salt_rng = np.random.default_rng((seed, 0x53))
        while True:
            self._salts = _draw_salts(salt_rng, tables)
            if self._times is None:
                self._slab_salts = np.zeros(1, dtype=np.uint64)
            else:
                self._slab_salts = _draw_salts(salt_rng, len(self._slabs))
            flat = (mixed + self._salts[:, None] + self._slab_salts[entry_slab]).ravel()  # at tbl * n + entry
            order = np.argsort(flat, kind="stable")
            skeys = flat[order]
            first = _first_of_runs(skeys)
            table_of = order // n
            slab_of = entry_slab[order % n]
            group = table_of * len(self._slabs) + slab_of
            if not np.any(~first[1:] & (group[1:] != group[:-1])):
                break
        starts = np.flatnonzero(first)
        self._bucket_keys = skeys[starts]
        self._bucket_table = table_of[starts]
        self._bucket_slab = slab_of[starts]
        self._bucket_starts = starts
        self._bucket_lens = np.diff(np.append(starts, tables * n))
        self._entries = order % n

    def _slab_of(self, times):
        """Each time's slab, floor(t / max_delay_s); times must be finite."""
        if not np.all(np.isfinite(times)):
            raise ValueError("request times must be finite")
        return np.floor(times / self.max_delay_s).astype(np.int64)

    def _hash_all(self, mat, want_probes: bool):
        """Hash every row under every (table, function); (n, L, t) arrays.

        Codes take the smallest unsigned type that holds the 2*cp_dim
        outcomes (uint8 up to cp_dim 128) and margins float32; the runner-up
        codes and margins are None unless want_probes."""
        n = mat.shape[0]
        n_fns = self.tables * self.hash_bits
        codes = np.empty((n, n_fns), dtype=np.min_scalar_type(2 * self.cp_dim - 1))
        alts = np.empty_like(codes) if want_probes else None
        margins = np.empty((n, n_fns), dtype=np.float32) if want_probes else None
        for f0, f1 in _fn_blocks(n_fns, n, self.cp_dim):
            cols = slice(f0 * self.cp_dim, f1 * self.cp_dim)
            c1, c2, mg = _project_codes(mat, self.proj[:, cols], self.cp_dim, self.scale, want_probes)
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

    def query_batch(self, qmat, k: int, probes_per_table: int = 1, exclude_ids=None, query_times=None):
        """Top-k (ride id, exact inner product) per query row, descending.

        An index built with request times needs query_times, one per row,
        and ranks only the rows within max_delay_s of the query's time; an
        index built without them takes none.

        Returns (results, distinct_candidates_per_query, raw_retrieved_per_query).
        The distinct candidates are those ranked, in the window and without
        the excluded ride; the raw count is every entry retrieved, repeats and
        rows outside the window included.
        """
        if k < 1 or probes_per_table < 1:
            raise ValueError("k and probes_per_table must be >= 1")
        qmat = np.atleast_2d(np.asarray(qmat, dtype=np.float64))
        if qmat.ndim != 2 or qmat.shape[1] != self.dim_in:
            raise ValueError(f"need query rows of width {self.dim_in}, got shape {qmat.shape}")
        if not np.isfinite(qmat).all():
            raise ValueError("cannot query with non-finite vectors (NaN or inf)")
        nq = qmat.shape[0]
        if (query_times is None) != (self._times is None):
            need = "needs query_times" if query_times is None else "was built without request times"
            raise ValueError(f"this index {need}")
        if query_times is not None:
            query_times = np.asarray(query_times, dtype=np.float64).reshape(-1)
            if len(query_times) != nq:
                raise ValueError(f"need one query time per query row, got {len(query_times)} for {nq}")
        if exclude_ids is not None:
            exclude_ids = np.asarray(exclude_ids, dtype=np.int64)
            if exclude_ids.shape != (nq,):
                got = f"{exclude_ids.size} in shape {exclude_ids.shape}"
                raise ValueError(f"need one exclude id per query row, got {got} for {nq}")
        results: list[list[tuple[int, float]]] = []
        counts = np.empty(nq, dtype=np.int64)
        raws = np.empty(nq, dtype=np.int64)
        step = self._chunk_queries(probes_per_table)
        for lo in range(0, nq, step):
            hi = min(lo + step, nq)
            excl = None if exclude_ids is None else exclude_ids[lo:hi]
            qt = None if query_times is None else query_times[lo:hi]
            res, cnt, raw = self._query_chunk(qmat[lo:hi], k, probes_per_table, excl, qt)
            results.extend(res)
            counts[lo:hi] = cnt
            raws[lo:hi] = raw
        return results, counts, raws

    def _chunk_queries(self, probes: int) -> int:
        """Queries per chunk of query_batch: as many as have _PROBE_KEYS
        probe keys, at least one."""
        slabs = 1 if self._times is None else 3
        return max(1, _PROBE_KEYS // (self.tables * probes * slabs))

    def _candidates(self, qmat, probes, qtimes):
        """Every (query row, entry) retrieved within the window, repeats included.

        The probe keys of every (query, table) row come from one _probe_keys
        call. Given query times, each is salted for every slab the index holds
        among the query's own and the two beside it, and every (query, entry)
        with |dt| > max_delay_s is dropped. One searchsorted into the salted
        bucket keys probes every table and slab. Returns (query rows, entries,
        raw retrieved count per query), the raw count before the window filter.
        """
        nq = qmat.shape[0]
        codes, alts, margins = self._hash_all(qmat, want_probes=True)
        base = _mix(codes, self.mults)
        base += self._salts
        # a runner-up's key delta, (alt - code) * mult, wraps mod 2**64 as the mix does
        deltas = alts.astype(np.uint64)
        del alts
        deltas -= codes
        del codes
        deltas *= self.mults
        rows = nq * self.tables
        pkeys, pvalid = self._probe_keys(
            base.reshape(rows), deltas.reshape(rows, self.hash_bits), margins.reshape(rows, self.hash_bits), probes
        )
        del base, deltas, margins
        pkeys = pkeys.reshape(nq, self.tables, -1)
        pvalid = pvalid.reshape(pkeys.shape)
        row_q = slab = None
        if qtimes is not None:
            # one row per (query, held slab): the query's keys plus the slab's salt
            row_q, slab = self._probe_slabs(qtimes)
            pkeys = pkeys[row_q] + self._slab_salts[slab][:, None, None]
            pvalid = pvalid[row_q]
        cells = self.tables * pkeys.shape[2]  # (table, probe) cells per row; there may be no rows
        bucket, hit = self._find_buckets(pkeys, slab)
        del pkeys, slab
        hit &= pvalid
        del pvalid
        hits = hit.ravel().nonzero()[0]
        del hit
        hit_q = hits // cells
        if row_q is not None:
            hit_q = row_q[hit_q]
        bucket = bucket.take(hits)
        del hits
        lens = self._bucket_lens[bucket]
        entries = self._entries[_concat_ranges(self._bucket_starts[bucket], lens)]
        del bucket
        q = np.repeat(hit_q, lens)
        del hit_q, lens
        raw = np.bincount(q, minlength=nq)
        if qtimes is not None:
            # the rule of utility._evaluate: a pair is shareable iff |dt| <= max_delay_s
            keep = np.abs(qtimes[q] - self._times[entries]) <= self.max_delay_s
            q, entries = q[keep], entries[keep]
        return q, entries, raw

    def _probe_slabs(self, qtimes):
        """(query row, slab index) of every slab the index holds among each
        query's own slab and the two beside it, by query then slab. A row
        within max_delay_s of the query lies in one of those three slabs."""
        near = self._slab_of(qtimes)[:, None] + np.arange(-1, 2)
        pos = np.minimum(self._slabs.searchsorted(near), len(self._slabs) - 1)
        row_q, col = (self._slabs[pos] == near).nonzero()
        return row_q, pos[row_q, col]

    def _find_buckets(self, pkeys, slab=None):
        """Per salted probe key, shape (rows, tables, probes): its bucket and
        whether it hits, i.e. is a bucket of the probe's own table and, given
        each row's slab index, of that slab. A key past the last bucket is a
        miss, and so is a bucket of another table or slab. An index without
        request times has one slab and takes no slab."""
        bucket = np.minimum(self._bucket_keys.searchsorted(pkeys), len(self._bucket_keys) - 1)
        hit = self._bucket_keys[bucket] == pkeys
        hit &= self._bucket_table[bucket] == np.arange(self.tables)[:, None]
        if slab is not None:
            hit &= self._bucket_slab[bucket] == slab[:, None, None]
        return bucket, hit

    def _query_chunk(self, qmat, k, probes, exclude_ids, qtimes):
        nq, n = qmat.shape[0], len(self.ids)
        qidx, entry, raw_counts = self._candidates(qmat, probes, qtimes)
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
    request_time: float | None = None,
) -> list[tuple[int, float]]:
    """Top-k (ride id, score) for one query vector, descending score.

    request_time is required by an index built with request times, and
    refused by one built without."""
    q = np.asarray(q, dtype=np.float64)
    if not np.any(q):
        raise ValueError("cannot query with a zero vector")
    excl = None if exclude_id is None else np.array([exclude_id], dtype=np.int64)
    qt = None if request_time is None else np.array([request_time], dtype=np.float64)
    results, _, _ = index.query_batch(q[None, :], k, probes_per_table, exclude_ids=excl, query_times=qt)
    return results[0]


def find_potential_matches(
    rides,
    cfg: LshConfig | None = None,
    space_precision: int = DEFAULT_SPACE_PRECISION,
    time_interval_s: float = DEFAULT_TIME_INTERVAL_S,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
) -> tuple[dict[int, list[tuple[int, float]]], MatchSearchSummary]:
    """End-to-end search: top-k potential co-riders for every ride.

    Pipeline: space-time edge sets -> data/query sparse vectors -> feature
    hashing (each distinct edge key hashed once per call) -> global data-norm
    scaling -> asymmetric transforms (every query row unit-normalized in one
    pass) -> index build, keyed by request-time slab -> per-ride multi-probe
    query, ranking only the rides whose request time is within max_delay_s
    of its own (every ride if max_delay_s is infinite, which needs no
    slabs). Rides whose route collapses to an empty edge set (or hashes to a
    zero query) get an empty match list and are flagged in the summary.
    """
    rides = list(rides)
    cfg = cfg or LshConfig()
    fh_seed = _child_seed(cfg.seed, "feature-hash")
    # every key is a SpaceTimeEdge, and a ride's data and query rows share keys
    fh_memo: dict = {}
    index_seed = _child_seed(cfg.seed, "index")

    entry_ids: list[int] = []
    entry_times: list[float] = []
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
                entry_times.append(ride.request_time)
                sparse_rows.append(preprocessing_vector(s))

    matches: dict[int, list[tuple[int, float]]] = {r.id: [] for r in rides}
    if not sparse_rows:
        empty = np.zeros(0, dtype=np.int64)
        return matches, MatchSearchSummary(sorted(degenerate), empty, empty)

    data = np.stack([feature_hash(v, cfg.dim, fh_seed, fh_memo) for v in sparse_rows])
    data, _scale = normalize_dataset(data, cfg.max_norm)
    pmat = transform_P_batch(data, cfg.norm_terms)
    # an infinite delay (no time limit, as in utility._evaluate) keeps every
    # pair, so the index needs no slabs
    timed = max_delay_s != math.inf
    index = LshIndex(
        entry_ids, pmat, cfg.tables, cfg.hash_bits, index_seed, cp_dim=cfg.cp_dim,
        request_times=entry_times if timed else None, max_delay_s=max_delay_s if timed else None,
    )

    query_order = [r for r in rides if r.id in query_sparse]
    qraw = np.stack([feature_hash(query_sparse[r.id], cfg.dim, fh_seed, fh_memo) for r in query_order])
    # the rows of unit_normalize then transform_Q, bit for bit: query
    # magnitudes are 1.0, so every entry is an integer and each squared norm
    # is exact in any summation order
    norms = np.sqrt(np.square(qraw).sum(axis=1))
    live = norms > 0.0
    degenerate += [r.id for r, ok in zip(query_order, live.tolist()) if not ok]
    live_rides = [r for r, ok in zip(query_order, live.tolist()) if ok]
    counts = raws = np.zeros(0, dtype=np.int64)
    if live_rides:
        qmat = np.zeros((len(live_rides), cfg.dim + cfg.norm_terms))
        np.divide(qraw[live], norms[live, None], out=qmat[:, : cfg.dim])
        excl = np.array([r.id for r in live_rides], dtype=np.int64)
        qtimes = np.array([r.request_time for r in live_rides], dtype=np.float64) if timed else None
        results, counts, raws = index.query_batch(qmat, cfg.k, cfg.probes, exclude_ids=excl, query_times=qtimes)
        for ride, res in zip(live_rides, results):
            matches[ride.id] = res
    summary = MatchSearchSummary(
        degenerate_ids=sorted(degenerate),
        candidates_per_query=counts,
        raw_retrieved_per_query=raws,
    )
    return matches, summary
