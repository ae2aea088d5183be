"""An index built without request times keeps the single-slab store and
retrieval of the index before slab keys, bit for bit.

`SingleSlabIndex` is a frozen copy of that index's bucket store and
retrieval: one salt per table, no slab salt, no time filter. Hashing is
shared with LshIndex, since slab keys did not change it. The pool is the
`search` benchmark's: 1200 morning rides on the 21x21 city, 64-wide vectors,
20 tables of 8 bits, cp_dim 1 and 4 probes.
"""

import numpy as np
import pytest

from ridematch import represent
from ridematch.lshindex import LshIndex, _concat_ranges, _draw_salts, _first_of_runs, query
from ridematch.trips import synth_commute

DIM, PRECISION, INTERVAL_S, FEATURE_SEED = 64, 7, 1200.0, 101
TABLES, HASH_BITS, PROBES, K, INDEX_SEED = 20, 8, 4, 10, 202


class SingleSlabIndex(LshIndex):
    """The bucket store, retrieval and ranking of the index before slab keys."""

    def __init__(self, ids, matrix, tables, hash_bits, seed=0, cp_dim=None):
        super().__init__(ids, matrix, tables, hash_bits, seed, cp_dim)
        codes, _, _ = self._hash_all(self.matrix, want_probes=False)
        n = len(self.ids)
        mixed = (codes.astype(np.uint64) * self.mults).sum(axis=2, dtype=np.uint64).T
        salt_rng = np.random.default_rng((seed, 0x53))
        while True:
            self._salts = _draw_salts(salt_rng, tables)
            flat = (mixed + self._salts[:, None]).ravel()
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

    def query_batch(self, qmat, k, probes_per_table=1, exclude_ids=None, query_times=None):
        assert query_times is None
        qmat = np.atleast_2d(np.asarray(qmat, dtype=np.float64))
        nq = qmat.shape[0]
        results, counts, raws = [], np.empty(nq, dtype=np.int64), np.empty(nq, dtype=np.int64)
        for lo in range(0, nq, self._QUERY_CHUNK):
            hi = min(lo + self._QUERY_CHUNK, nq)
            excl = None if exclude_ids is None else np.asarray(exclude_ids, dtype=np.int64)[lo:hi]
            res, counts[lo:hi], raws[lo:hi] = self._single_slab_chunk(qmat[lo:hi], k, probes_per_table, excl)
            results.extend(res)
        return results, counts, raws

    def _single_slab_candidates(self, qmat, probes):
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
        bucket = np.minimum(self._bucket_keys.searchsorted(pkeys), len(self._bucket_keys) - 1)
        hit = self._bucket_keys[bucket] == pkeys
        hit &= self._bucket_table[bucket] == np.arange(self.tables)[:, None]
        hit &= pvalid.reshape(pkeys.shape)
        hits = hit.ravel().nonzero()[0]
        hit_q = hits // pkeys[0].size
        bucket = bucket.take(hits)
        lens = self._bucket_lens[bucket]
        entries = self._entries[_concat_ranges(self._bucket_starts[bucket], lens)]
        q = np.repeat(hit_q, lens)
        return q, entries, np.bincount(q, minlength=nq)

    def _single_slab_chunk(self, qmat, k, probes, exclude_ids):
        nq, n = qmat.shape[0], len(self.ids)
        qidx, entry, raw_counts = self._single_slab_candidates(qmat, probes)
        qidx = qidx * n + entry
        qidx.sort()
        qidx, entry = np.divmod(qidx[_first_of_runs(qidx)], n)
        rids = self.ids[entry]
        if exclude_ids is not None:
            keep = rids != exclude_ids[qidx]
            qidx, entry, rids = qidx[keep], entry[keep], rids[keep]
        bounds = np.searchsorted(qidx, np.arange(nq + 1))
        scores = np.empty(len(entry))
        for row, s, e in zip(qmat, bounds[:-1].tolist(), bounds[1:].tolist()):
            np.einsum("ij,j->i", self.matrix.take(entry[s:e], axis=0), row, out=scores[s:e])
        first = _first_of_runs(rids)
        first[1:] |= qidx[1:] != qidx[:-1]
        starts = first.nonzero()[0]
        best, top = np.maximum.reduceat(scores, starts), rids[starts]
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


def _vectors(rides, query_side):
    rows = []
    for ride in rides:
        edges = represent.st_edge_set(ride.routes[0], ride.request_time, PRECISION, INTERVAL_S)
        sparse = represent.query_vector(edges) if query_side else represent.preprocessing_vector(edges)
        rows.append(represent.feature_hash(sparse, DIM, FEATURE_SEED))
    return np.stack(rows)


@pytest.fixture(scope="module")
def search_pool(city21):
    pool = synth_commute(city21, 1200, seed=2024).rides
    arrivals = synth_commute(city21, 60, seed=2025).rides
    data, _ = represent.normalize_dataset(_vectors(pool, False), 0.75)
    pmat = represent.transform_P_batch(data, 2)
    ids = np.array([r.id for r in pool])
    queries = []
    for rows in (_vectors(pool, True), _vectors(arrivals, True)):
        assert np.all(np.any(rows, axis=1))
        queries.append(np.stack([represent.transform_Q(represent.unit_normalize(q), 2) for q in rows]))
    return ids, pmat, queries[0], queries[1]


def test_store_is_bit_identical(search_pool):
    ids, pmat, _, _ = search_pool
    new = LshIndex(ids, pmat, TABLES, HASH_BITS, seed=INDEX_SEED, cp_dim=1)
    old = SingleSlabIndex(ids, pmat, TABLES, HASH_BITS, seed=INDEX_SEED, cp_dim=1)
    for name in ("_salts", "_bucket_keys", "_bucket_table", "_bucket_starts", "_bucket_lens", "_entries"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    assert new._slabs.tolist() == [0] and new._slab_salts.tolist() == [0]
    assert not new._bucket_slab.any()


def test_query_batch_and_query_are_bit_identical(search_pool):
    ids, pmat, pool_queries, arrivals = search_pool
    new = LshIndex(ids, pmat, TABLES, HASH_BITS, seed=INDEX_SEED, cp_dim=1)
    old = SingleSlabIndex(ids, pmat, TABLES, HASH_BITS, seed=INDEX_SEED, cp_dim=1)
    # the pool's own rows, over LshIndex._QUERY_CHUNK, so in two chunks
    assert len(pool_queries) > LshIndex._QUERY_CHUNK
    got = new.query_batch(pool_queries, K, PROBES, exclude_ids=ids)
    want = old.query_batch(pool_queries, K, PROBES, exclude_ids=ids)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    for q in arrivals:
        assert query(new, q, K, PROBES) == query(old, q, K, PROBES)
