import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ridematch.represent import (
    DegenerateInputError,
    feature_hash,
    query_vector,
    st_edge_set,
    transform_Q,
    unit_normalize,
)
from ridematch.lshindex import (
    LshConfig,
    LshIndex,
    _child_seed,
    _project_codes,
    _projection,
    _rotation,
    _signs,
    _top2_abs,
    find_potential_matches,
    query,
    suggest_params,
)
from ridematch.roadnet import Route
from ridematch.trips import synth_commute
from ridematch.utility import pairwise_utilities


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _reference_candidates(idx, qmat, probes):
    """Retrieval as one dict from (table, salted bucket key) to entries, keys
    mixed with Python integers, probe keys from one _probe_keys call per table.

    Returns (query rows, entry positions, raw retrieved count per query).
    """
    nq = qmat.shape[0]
    codes, _, _ = idx._hash_all(idx.matrix, want_probes=False)
    qcodes, qalts, qmargins = idx._hash_all(qmat, want_probes=True)
    buckets: dict[tuple[int, int], list[int]] = {}
    qidx, pos, raw = [], [], np.zeros(nq, dtype=np.int64)
    for tbl in range(idx.tables):
        mults, salt = [int(m) for m in idx.mults[tbl]], int(idx._salts[tbl])

        def mix(row):
            return (sum(int(c) * m for c, m in zip(row, mults)) + salt) % 2**64

        for p in range(len(idx.ids)):
            buckets.setdefault((tbl, mix(codes[p, tbl])), []).append(p)
        base = np.array([mix(qcodes[q, tbl]) for q in range(nq)], dtype=np.uint64)
        deltas = np.array([[(int(a) - int(c)) * m % 2**64
                            for a, c, m in zip(qalts[q, tbl], qcodes[q, tbl], mults)] for q in range(nq)],
                          dtype=np.uint64)
        keys, valid = LshIndex._probe_keys(base, deltas, qmargins[:, tbl, :], probes)
        for q in range(nq):
            for key in keys[q][valid[q]].tolist():
                hits = buckets.get((tbl, key), [])
                raw[q] += len(hits)
                qidx += [q] * len(hits)
                pos += hits
    return np.array(qidx, dtype=np.int64), np.array(pos, dtype=np.int64), raw


def _reference_query_batch(idx, qmat, k, probes, exclude_ids=None):
    """query_batch as a per-query dict/sorted loop over its own retrieval."""
    nq = qmat.shape[0]
    qidx, pos, raw = _reference_candidates(idx, qmat, probes)
    if exclude_ids is not None:
        keep = idx.ids[pos] != exclude_ids[qidx]
        pos, qidx = pos[keep], qidx[keep]
    combo = np.unique(qidx * len(idx.ids) + pos)
    qidx, pos = combo // len(idx.ids), combo % len(idx.ids)
    distinct = np.bincount(qidx, minlength=nq)
    scores = np.einsum("ij,ij->i", idx.matrix[pos], qmat[qidx])
    bounds = np.searchsorted(qidx, np.arange(nq + 1))
    results = []
    for qi in range(nq):
        s, e = bounds[qi], bounds[qi + 1]
        cids, cscores = idx.ids[pos[s:e]], scores[s:e]
        best: dict[int, float] = {}
        for j in np.lexsort((-cscores, cids)):
            best.setdefault(int(cids[j]), float(cscores[j]))  # best route per ride id
        results.append(sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k])
    return results, distinct, raw


def _assert_same_query_batch(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


class TestCpHash:
    # _project_codes under the identity rotation: codes of y's own coordinates
    def test_identity_seam_positive_axis(self):
        e0 = np.zeros((1, 8))
        e0[0, 0] = 1.0
        assert _project_codes(e0, np.eye(8), 8, 1.0)[0][0, 0] == 0

    def test_identity_seam_negative_axis(self):
        e0 = np.zeros((1, 8))
        e0[0, 0] = -1.0
        assert _project_codes(e0, np.eye(8), 8, 1.0)[0][0, 0] == 1

    def test_identity_seam_other_axis(self):
        x = np.zeros((1, 8))
        x[0, 3] = -2.0
        assert _project_codes(x, np.eye(8), 8, 1.0)[0][0, 0] == 7  # 2*3 + 1

    def test_tie_breaks_to_lowest_index(self):
        assert _project_codes(np.ones((1, 4)), np.eye(4), 4, 1.0)[0][0, 0] == 0
        # |1| == |-1|: index 0 (positive) wins, index 1 (negative) is runner-up
        code, alt, margin = _project_codes(np.array([[1.0, -1.0, 0.5]]), np.eye(3), 3, 1.0)
        assert (code[0, 0], alt[0, 0], margin[0, 0]) == (0, 3, 0.0)

    def test_runner_up_code_and_margin(self, rng):
        y = rng.normal(size=(200, 17))
        code, alt, margin = (a[:, 0] for a in _project_codes(y, np.eye(17), 17, 1.0))
        rank = np.argsort(-np.abs(y), axis=1, kind="stable")
        rows = np.arange(len(y))
        for got, j in ((code, rank[:, 0]), (alt, rank[:, 1])):
            assert np.array_equal(got, 2 * j + (y[rows, j] < 0))
        expected = np.abs(y[rows, rank[:, 0]]) - np.abs(y[rows, rank[:, 1]])
        assert np.array_equal(margin, expected)
        assert np.all(margin >= 0)

    def test_antipodal_codes_differ(self, rng):
        for seed in range(50):
            x = rng.normal(size=12)
            idx = LshIndex(np.arange(2), np.stack([x, -x]), tables=1, hash_bits=1, seed=seed)
            codes, _, _ = idx._hash_all(idx.matrix, want_probes=False)
            assert codes[0, 0, 0] != codes[1, 0, 0]

    def test_rotation_orthogonal(self, rng):
        # function f's block of proj * scale is the first dim columns of its
        # rotation, transposed: orthonormal rows, and x -> x @ block keeps norms
        for dim, seed in ((48, 11), (64, 0), (128, 5)):
            x = rng.normal(size=(10, dim))
            idx = LshIndex(np.arange(10), x, tables=2, hash_bits=2, seed=seed)
            w = idx.proj * idx.scale
            for f in range(idx.tables * idx.hash_bits):
                block = w[:, f * idx.cp_dim : (f + 1) * idx.cp_dim]
                assert np.max(np.abs(block @ block.T - np.eye(dim))) < 1e-12
                norms = np.linalg.norm(x @ block, axis=1)
                assert np.allclose(norms, np.linalg.norm(x, axis=1), atol=1e-10)

    def test_top2_tie_goes_to_lowest_index(self):
        c1, c2, m = _top2_abs(np.array([[1.0, -1.0, 0.5]]))
        assert c1[0] == 0  # index 0, positive
        assert c2[0] == 3  # index 1, negative
        assert m[0] == 0.0

    def test_range(self, rng):
        idx = LshIndex(np.arange(100), rng.normal(size=(100, 10)), tables=3, hash_bits=2, seed=2, cp_dim=4)
        codes, alts, _ = idx._hash_all(idx.matrix, want_probes=True)
        for c in (codes, alts):
            assert c.min() >= 0 and c.max() < 8

    def test_invalid_cp_dim(self):
        for cp_dim in (0, 9):
            with pytest.raises(ValueError):
                LshIndex(np.arange(1), np.ones((1, 8)), tables=1, hash_bits=1, seed=0, cp_dim=cp_dim)


class TestProjectionHash:
    """Hashing reads the first cp_dim rows of the rotation as one projection."""

    @staticmethod
    def _zero_on(proj, f, perturb):
        # proj holds integers, so W[b,f]*e_a - W[a,f]*e_b projects to exactly
        # 0 on column f; perturb adds a negative |y| far below 1e-12.
        a, b = np.flatnonzero(proj[:, f])[:2]
        x = np.zeros(proj.shape[0])
        x[a], x[b] = proj[b, f], -proj[a, f]
        x[a] -= perturb * np.sign(proj[a, f])
        return x

    @pytest.mark.parametrize("perturb", [0.0, 1e-13])
    def test_zero_rule_through_index(self, rng, perturb):
        idx = LshIndex(np.arange(20), _unit_rows(rng, 20, 12), tables=3, hash_bits=4, seed=5, cp_dim=1)
        for f in range(idx.tables * idx.hash_bits):
            x = self._zero_on(idx.proj, f, perturb)
            codes, alts, margins = idx._hash_all(x[None, :], want_probes=True)
            tbl, bit = divmod(f, idx.hash_bits)
            assert (codes[0, tbl, bit], alts[0, tbl, bit], margins[0, tbl, bit]) == (0, 1, 0.0)

    @pytest.mark.parametrize("perturb", [0.0, 1e-13])
    def test_zero_rule_through_hash_batch(self, rng, perturb):
        # one hash function, hashed as a batch of one row, over seeds 0-9
        for seed in range(10):
            idx = LshIndex(np.arange(20), _unit_rows(rng, 20, 12), tables=1, hash_bits=1, seed=seed, cp_dim=1)
            x = self._zero_on(idx.proj, 0, perturb)
            codes, alts, margins = idx._hash_all(x[None, :], want_probes=True)
            assert (codes[0, 0, 0], alts[0, 0, 0], margins[0, 0, 0]) == (0, 1, 0.0)

    @pytest.mark.parametrize("cp_dim", [1, 2, 8, None])
    def test_codes_are_argmax_of_rotation(self, rng, cp_dim):
        # reference: function f's dense rotation d**-1.5 * H*S2*H*S1*H*S0,
        # which shares no code with the index's fast transform
        x = rng.normal(size=(300, 40))
        d = 64
        hadamard = scipy.linalg.hadamard(d).astype(np.float64)
        rows = np.arange(len(x))
        for seed in range(5):
            idx = LshIndex(np.arange(300), x, tables=2, hash_bits=3, seed=seed, cp_dim=cp_dim)
            codes, alts, margins = _project_codes(x, idx.proj, idx.cp_dim, idx.scale)
            for f in range(idx.tables * idx.hash_bits):
                s0, s1, s2 = _signs(seed, f + 1, d)[f]
                rot = d**-1.5 * hadamard @ (s2[:, None] * hadamard) @ (s1[:, None] * hadamard) * s0
                y = x @ rot[: idx.cp_dim, :40].T
                rank = np.argsort(-np.abs(y), axis=1, kind="stable")
                assert np.array_equal(codes[:, f], 2 * rank[:, 0] + (y[rows, rank[:, 0]] < 0))
                if idx.cp_dim > 1:
                    assert np.array_equal(alts[:, f], 2 * rank[:, 1] + (y[rows, rank[:, 1]] < 0))
                    top2 = np.abs(y[rows, rank[:, 0]]) - np.abs(y[rows, rank[:, 1]])
                    assert np.allclose(margins[:, f], top2, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [12, 66, 130])
    @pytest.mark.parametrize("cp_dim", [1, 2, 8, None])
    def test_fewer_functions_are_a_prefix(self, rng, dim, cp_dim):
        x = rng.normal(size=(200, dim))
        for seed in (0, 7, 2**40 + 3):
            one = LshIndex(np.arange(200), x, tables=1, hash_bits=1, seed=seed, cp_dim=cp_dim)
            idx = LshIndex(np.arange(200), x, tables=3, hash_bits=4, seed=seed, cp_dim=cp_dim)
            assert np.array_equal(one.proj, idx.proj[:, : idx.cp_dim])
            got = one._hash_all(x, want_probes=True)
            want = idx._hash_all(x, want_probes=True)
            for g, w in zip(got, want):
                assert np.array_equal(g[:, 0, 0], w[:, 0, 0])

    def test_rotation_is_shared_read_only_and_rebuilt_per_family(self, rng):
        # the cache holds one projection; after an index of another seed,
        # cp_dim, function count or dim, each still equals a fresh build
        x = rng.normal(size=(20, 40))

        def fresh(idx):
            return _projection(_signs(idx.seed, idx.tables * idx.hash_bits, idx.d_padded), idx.dim_in, idx.cp_dim)

        kw = dict(tables=2, hash_bits=3, seed=1, cp_dim=2)
        base = LshIndex(np.arange(20), x, **kw)
        assert LshIndex(np.arange(20), x, **kw).proj is base.proj
        for mat, change in ((x, {"seed": 2}), (x, {"cp_dim": 4}), (x, {"tables": 3}), (x[:, :36], {}), (x[:, :30], {})):
            other = LshIndex(np.arange(20), mat, **{**kw, **change})
            assert np.array_equal(other.proj, fresh(other))
            assert np.array_equal(base.proj, fresh(base))
            assert not other.proj.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            base.proj[0, 0] = 0.0
        assert _rotation.cache_info().maxsize == 1

    def test_hashing_memory_bounded(self, rng):
        x = _unit_rows(rng, 1024, 66)
        idx = LshIndex(np.arange(1024), x, tables=16, hash_bits=10, seed=1)
        assert idx.cp_dim == 128
        tracemalloc.start()
        try:
            idx._hash_all(x, want_probes=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestSuggestParams:
    def test_large_pool_clamps(self):
        tables, bits = suggest_params(20000, 10, 0.1, 0.5)
        assert tables == 512  # ceil(141.42 * 4.605) = 652, clamped
        assert bits == 15

    def test_power_of_two_n(self):
        assert suggest_params(1024, 10, 0.1, 0.5)[1] == 10

    def test_lower_clamp(self):
        tables, _ = suggest_params(100, 1, 0.99, 0.1)
        assert tables == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggest_params(1, 10, 0.1, 0.5)
        with pytest.raises(ValueError):
            suggest_params(100, 10, 1.5, 0.5)
        with pytest.raises(ValueError):
            suggest_params(100, 10, 0.1, 1.0)
        with pytest.raises(ValueError):
            suggest_params(100, 0, 0.1, 0.5)


def _table_stores(idx):
    """Per table of the salted store: (its salted bucket keys in store order,
    bucket lengths, entries bucket by bucket)."""
    for tbl in range(idx.tables):
        b = np.flatnonzero(idx._bucket_table == tbl)
        starts, lens = idx._bucket_starts[b], idx._bucket_lens[b]
        yield idx._bucket_keys[b], lens, np.concatenate([idx._entries[s : s + m] for s, m in zip(starts, lens)])


class TestBuildIndex:
    def test_single_vector_in_all_tables(self, rng):
        v = _unit_rows(rng, 1, 10)[0]
        idx = LshIndex([7], v[None, :], tables=3, hash_bits=2, seed=0)
        total_buckets = sum(len(keys) for keys, _, _ in _table_stores(idx))
        total_entries = sum(lens.sum() for _, lens, _ in _table_stores(idx))
        assert total_buckets == 3
        assert total_entries == 3

    def test_identical_vectors_collide_everywhere(self, rng):
        v = _unit_rows(rng, 1, 12)[0]
        idx = LshIndex([0, 1], np.stack([v, v]), tables=5, hash_bits=3, seed=1)
        for keys, lens, _ in _table_stores(idx):
            assert len(keys) == 1
            assert lens.sum() == 2

    def test_buckets_tile_each_table(self, rng):
        n = 30
        idx = LshIndex(np.arange(n), _unit_rows(rng, n, 10), tables=4, hash_bits=2, seed=3)
        # the salted keys of all tables are unique, and the buckets tile _entries
        assert np.all(idx._bucket_keys[1:] > idx._bucket_keys[:-1])
        lens = idx._bucket_lens
        assert np.array_equal(idx._bucket_starts, np.cumsum(lens) - lens)
        assert lens.sum() == idx.tables * n
        codes, _, _ = idx._hash_all(idx.matrix, want_probes=False)
        for tbl, (keys, lens, entries) in enumerate(_table_stores(idx)):
            assert lens.sum() == n
            assert sorted(entries.tolist()) == list(range(n))
            # every entry sits in the bucket of its own salted key, in position order
            mults, salt = [int(m) for m in idx.mults[tbl]], int(idx._salts[tbl])
            for key, chunk in zip(keys.tolist(), np.split(entries, np.cumsum(lens)[:-1])):
                assert np.all(np.diff(chunk) > 0)
                for p in chunk.tolist():
                    assert (sum(int(c) * m for c, m in zip(codes[p, tbl], mults)) + salt) % 2**64 == key

    def test_salted_store_finds_every_table_key(self, rng):
        n = 40
        idx = LshIndex(np.arange(n), _unit_rows(rng, n, 10), tables=5, hash_bits=2, seed=7)
        keys, tables = idx._bucket_keys, idx._bucket_table
        # probe every table with every stored key: a key hits only in its own
        # table, where it finds its bucket; a key of another table never hits
        probe = np.broadcast_to(keys, (1, idx.tables, len(keys)))
        bucket, hit = idx._find_buckets(probe)
        assert np.array_equal(hit[0], tables[None, :] == np.arange(idx.tables)[:, None])
        assert np.all(bucket[0][hit[0]] == np.tile(np.arange(len(keys)), idx.tables)[hit[0].ravel()])
        # keys held by no table miss, past either end of the store too
        ends = np.array([0, 2**64 - 1], dtype=np.uint64)
        absent = np.setdiff1d(np.concatenate([keys - np.uint64(1), keys + np.uint64(1), ends]), keys)
        _, hit = idx._find_buckets(np.broadcast_to(absent, (1, idx.tables, len(absent))))
        assert not hit.any()

    def test_salts_redrawn_until_tables_keys_are_unique(self, rng, monkeypatch):
        import ridematch.lshindex as lshmod

        v = _unit_rows(rng, 1, 10)
        plain = LshIndex([0], v, tables=2, hash_bits=3, seed=4)
        codes, _, _ = plain._hash_all(v, want_probes=False)
        raw = (codes[0].astype(np.uint64) * plain.mults).sum(axis=1, dtype=np.uint64)
        real, draws = lshmod._draw_salts, []

        def colliding_first(rng_, tables):
            draws.append(tables)
            if len(draws) == 1:  # table 1's salted key equals table 0's
                return np.array([0, (int(raw[0]) - int(raw[1])) % 2**64], dtype=np.uint64)
            return real(rng_, tables)

        monkeypatch.setattr(lshmod, "_draw_salts", colliding_first)
        idx = LshIndex([0], v, tables=2, hash_bits=3, seed=4)
        assert len(draws) == 2
        assert len(set(idx._bucket_keys.tolist())) == 2
        assert idx.query_batch(v, 1, 1)[0] == [[(0, pytest.approx(1.0))]]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            LshIndex([], np.zeros((0, 8)), tables=2, hash_bits=2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            LshIndex([0], np.zeros((1, 8)), tables=2, hash_bits=2)

    @pytest.mark.parametrize("n_ids", [2, 4])
    def test_one_id_per_row_required(self, n_ids):
        with pytest.raises(ValueError, match=f"got {n_ids} ids for 3 rows"):
            LshIndex(np.arange(n_ids), np.eye(3), tables=2, hash_bits=2)

    def test_deterministic(self, rng):
        rows = _unit_rows(rng, 20, 10)
        a = LshIndex(np.arange(20), rows, tables=4, hash_bits=3, seed=9)
        b = LshIndex(np.arange(20), rows, tables=4, hash_bits=3, seed=9)
        for (k1, _, p1), (k2, _, p2) in zip(_table_stores(a), _table_stores(b)):
            assert np.array_equal(k1, k2)
            assert np.array_equal(p1, p2)


class TestQuery:
    def test_stored_vector_found_first(self, rng):
        rows = _unit_rows(rng, 50, 18)
        idx = LshIndex(np.arange(len(rows)), rows, tables=12, hash_bits=3, seed=4)
        res = query(idx, rows[17], k=5, exclude_id=999)
        assert res[0][0] == 17
        assert res[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_self_exclusion(self, rng):
        rows = _unit_rows(rng, 30, 14)
        idx = LshIndex(np.arange(len(rows)), rows, tables=10, hash_bits=2, seed=4)
        res = query(idx, rows[3], k=5, exclude_id=3)
        assert all(rid != 3 for rid, _ in res)

    def test_empty_result_when_only_self(self, rng):
        v = _unit_rows(rng, 1, 10)[0]
        idx = LshIndex([0], v[None, :], tables=4, hash_bits=2, seed=0)
        assert query(idx, v, k=3, exclude_id=0) == []

    def test_scores_are_exact_inner_products(self, rng):
        rows = _unit_rows(rng, 60, 16)
        idx = LshIndex(np.arange(len(rows)), rows, tables=10, hash_bits=2, seed=2)
        q = _unit_rows(rng, 1, 16)[0]
        for rid, score in query(idx, q, k=20, probes_per_table=2):
            assert score == pytest.approx(float(rows[rid] @ q), abs=1e-12)

    def test_results_sorted_desc_then_id(self, rng):
        rows = _unit_rows(rng, 80, 12)
        idx = LshIndex(np.arange(len(rows)), rows, tables=8, hash_bits=2, seed=5)
        res = query(idx, _unit_rows(rng, 1, 12)[0], k=30, probes_per_table=2)
        for (ra, sa), (rb, sb) in zip(res, res[1:]):
            assert sa > sb or (sa == sb and ra < rb)

    def test_multiprobe_supersets_candidates(self, rng):
        rows = _unit_rows(rng, 100, 16)
        idx = LshIndex(np.arange(len(rows)), rows, tables=6, hash_bits=4, seed=6)
        qs = _unit_rows(rng, 20, 16)
        _, c1, _ = idx.query_batch(qs, k=100, probes_per_table=1)
        _, c4, _ = idx.query_batch(qs, k=100, probes_per_table=4)
        assert np.all(c4 >= c1)

    def test_probe_heap_path_matches_closed_form_prefix(self, rng):
        # probes=4 uses the closed form; probes=5+ the heap. The first 4
        # probe keys must coincide.
        rows = _unit_rows(rng, 40, 12)
        idx = LshIndex(np.arange(len(rows)), rows, tables=3, hash_bits=5, seed=8)
        base = np.array([123456789], dtype=np.uint64)
        deltas = rng.integers(1, 2**60, size=(1, 5)).astype(np.uint64)
        margins = rng.uniform(0.0, 1.0, size=(1, 5)).astype(np.float32)
        k4, v4 = idx._probe_keys(base, deltas, margins, 4)
        k8, v8 = idx._probe_keys(base, deltas, margins, 8)
        assert np.array_equal(k4[0], k8[0, :4])
        assert v4.all() and v8.all()

    def test_zero_query_rejected(self, rng):
        rows = _unit_rows(rng, 5, 8)
        idx = LshIndex(np.arange(len(rows)), rows, tables=2, hash_bits=2, seed=0)
        with pytest.raises(ValueError):
            query(idx, np.zeros(8), k=2)

    def test_exclude_ids_need_one_per_query_row(self, rng):
        rows = _unit_rows(rng, 20, 8)
        idx = LshIndex(np.arange(20), rows, tables=2, hash_bits=2, seed=0)
        for excl, got in ((np.arange(7), 7), (np.arange(2), 2), (np.arange(5)[:, None], 5)):
            with pytest.raises(ValueError, match=rf"one exclude id per query row.* got {got} .* for 5$"):
                idx.query_batch(rows[:5], k=3, exclude_ids=excl)

    def test_batch_matches_single(self, rng):
        rows = _unit_rows(rng, 60, 16)
        idx = LshIndex(np.arange(len(rows)), rows, tables=8, hash_bits=3, seed=3)
        qs = _unit_rows(rng, 10, 16)
        batch, _, _ = idx.query_batch(qs, k=5, probes_per_table=2)
        for i in range(10):
            assert batch[i] == query(idx, qs[i], k=5, probes_per_table=2)


def _brute_force_probe_keys(base, deltas, margins, probes):
    """Every flip subset of every row, sorted by (margin sum, bitmask over ranks)."""
    n, t = margins.shape
    keys = np.zeros((n, probes), dtype=np.uint64)
    valid = np.zeros((n, probes), dtype=bool)
    for r in range(n):
        fns = np.argsort(margins[r], kind="stable")  # rank -> function
        m = [float(margins[r, f]) for f in fns]
        subsets = [[i for i in range(t) if mask >> i & 1] for mask in range(1, 2**t)]
        subsets.sort(key=lambda ranks: (math.fsum(m[i] for i in ranks), sum(1 << i for i in ranks)))
        keys[r, 0], valid[r, 0] = base[r], True
        for p, ranks in enumerate(subsets[: probes - 1], start=1):
            keys[r, p] = (int(base[r]) + sum(int(deltas[r, fns[i]]) for i in ranks)) % 2**64
            valid[r, p] = True
    return keys, valid


class TestProbeOrder:
    """Both multi-probe paths follow one order: brute-force subset enumeration."""

    @settings(max_examples=400, deadline=None)
    @given(
        t=st.integers(1, 8),
        n=st.integers(1, 6),
        probes=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_brute_force(self, t, n, probes, data):
        # the sampled margins tie exactly, also a pair's sum with a single
        # margin (0.25 + 0.5 == 0.75)
        margin = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 2.0, width=32)
        u64 = st.integers(0, 2**64 - 1)
        margins = np.array(data.draw(st.lists(st.lists(margin, min_size=t, max_size=t), min_size=n,
                                              max_size=n)), dtype=np.float32)
        deltas = np.array(data.draw(st.lists(st.lists(u64, min_size=t, max_size=t), min_size=n,
                                             max_size=n)), dtype=np.uint64)
        base = np.array(data.draw(st.lists(u64, min_size=n, max_size=n)), dtype=np.uint64)
        keys, valid = LshIndex._probe_keys(base, deltas, margins, probes)
        want_keys, want_valid = _brute_force_probe_keys(base, deltas, margins, probes)
        assert np.array_equal(valid, want_valid)
        assert np.array_equal(keys, want_keys)

    def test_zero_margin_tie(self):
        # {1} and {0, 1} both sum to 0.5: the smaller bitmask, {1}, comes first
        margins = np.array([[0.0, 0.5, 0.7, 0.9, 1.0]], dtype=np.float32)
        deltas = (np.uint64(1) << np.arange(5, dtype=np.uint64))[None, :]
        base = np.zeros(1, dtype=np.uint64)
        k4, _ = LshIndex._probe_keys(base, deltas, margins, 4)
        k5, _ = LshIndex._probe_keys(base, deltas, margins, 5)
        assert k4[0].tolist() == [0, 0b1, 0b10, 0b11]
        assert k5[0].tolist() == [0, 0b1, 0b10, 0b11, 0b100]


@st.composite
def _pool_and_queries(draw):
    """(dim, ride ids, entry ids, entry rows, query rows). Rows are halved
    small-integer vectors, so every inner product and every tie is exact."""
    dim = draw(st.integers(2, 9))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    pool = draw(st.lists(vec, min_size=1, max_size=5))  # shared rows give equal scores
    ride_ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    ids, rows = [], []
    for rid in ride_ids:
        for _ in range(draw(st.integers(1, 3))):  # routes of the ride
            ids.append(rid)
            rows.append(draw(st.sampled_from(pool)))
    queries = draw(st.lists(st.one_of(st.sampled_from(pool), vec), min_size=1, max_size=6))
    return dim, ride_ids, ids, np.array(rows, dtype=float) / 2, np.array(queries, dtype=float) / 2


@st.composite
def _index_and_queries(draw):
    dim, ride_ids, ids, rows, queries = draw(_pool_and_queries())
    exclude = draw(st.none() | st.lists(st.sampled_from(ride_ids + [999]), min_size=len(queries),
                                        max_size=len(queries)))
    tables = draw(st.integers(1, 4))
    hash_bits = draw(st.integers(1, 3))
    cp_dim = draw(st.integers(1, 2 ** (dim - 1).bit_length()))  # up to the padded width
    seed = draw(st.integers(0, 2**32))
    idx = LshIndex(ids, rows, tables, hash_bits, seed, cp_dim)
    excl = None if exclude is None else np.array(exclude, dtype=np.int64)
    return idx, queries, excl


class TestRanking:
    """query_batch ranks like the per-query reference loop, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(data=_index_and_queries(), k=st.integers(1, 30), probes=st.integers(1, 6))
    def test_matches_reference(self, data, k, probes):
        idx, qmat, excl = data
        got = idx.query_batch(qmat, k, probes, exclude_ids=excl)
        _assert_same_query_batch(got, _reference_query_batch(idx, qmat, k, probes, excl))

    def test_more_queries_than_one_chunk(self, rng):
        ids = np.repeat(np.arange(300), 2)
        rows = _unit_rows(rng, 600, 10)
        rows[1::4] = rows[0::4]  # both routes of every other ride tie
        idx = LshIndex(ids, rows, tables=6, hash_bits=3, seed=2)
        nq = LshIndex._QUERY_CHUNK + 77
        qmat = _unit_rows(rng, nq, 10)
        excl = rng.integers(0, 300, size=nq)
        got = idx.query_batch(qmat, 12, 3, exclude_ids=excl)
        _assert_same_query_batch(got, _reference_query_batch(idx, qmat, 12, 3, excl))

    def test_ties_at_the_kth_score_go_to_the_lowest_ride_ids(self, rng):
        # 40 rides share one row, so they tie exactly at the k-th score; ride
        # 90 scores higher, rides 0-9 lower, and every tied ride has a second,
        # lower route. Entry positions are shuffled so that they do not follow
        # ride ids. cp_dim=1 with 2**hash_bits probes retrieves every entry.
        tied = np.arange(40, 80)
        ids = np.concatenate([[90], np.arange(10), tied, tied])
        rows = np.empty((len(ids), 6))
        rows[0] = [1.0, 0, 0, 0, 0, 0]
        rows[1:11] = [-0.5, 0.5, 0.5, 0.5, 0.5, 0]
        rows[11:51] = [0.6, 0.8, 0, 0, 0, 0]
        rows[51:] = [0.0, 0, 0.8, 0.6, 0, 0]
        perm = rng.permutation(len(ids))
        idx = LshIndex(ids[perm], rows[perm], tables=2, hash_bits=2, seed=3, cp_dim=1)
        # the index stores the rows in (ride id, given position) order
        by_ride = np.argsort(ids[perm], kind="stable")
        assert np.array_equal(idx.ids, ids[perm][by_ride])
        assert np.array_equal(idx.matrix, rows[perm][by_ride])
        qmat = np.array([[1.0, 0, 0, 0, 0, 0], [0.6, 0.8, 0, 0, 0, 0]])
        k = 5
        results, distinct, _ = idx.query_batch(qmat, k, probes_per_table=4)
        assert np.array_equal(distinct, [len(ids), len(ids)])
        assert [rid for rid, _ in results[0]] == [90, 40, 41, 42, 43]
        assert [rid for rid, _ in results[1]] == [40, 41, 42, 43, 44]
        assert len({s for _, s in results[0][1:]}) == 1
        for i, q in enumerate(qmat):
            assert query(idx, q, k, probes_per_table=4) == results[i]
        excl = np.array([40, 41])
        _assert_same_query_batch(
            idx.query_batch(qmat, k, 4, exclude_ids=excl), _reference_query_batch(idx, qmat, k, 4, excl)
        )

    def test_ranking_memory_bounded(self, rng):
        # One query's candidate rows are gathered at a time, so the peak is
        # the chunk's pair arrays (about 440k raw pairs here), not
        # (pairs x dim) row blocks.
        idx = LshIndex(np.arange(1200), _unit_rows(rng, 1200, 66), tables=20, hash_bits=8, seed=3, cp_dim=1)
        qmat = _unit_rows(rng, 1024, 66)
        tracemalloc.start()
        try:
            _, _, raw = idx.query_batch(qmat, 10, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.sum() > 400_000
        assert peak < 24 * 2**20


class TestFullProbe:
    """With cp_dim=1 a function has two codes, so 2**hash_bits probes per
    table reach every bucket and query_batch is the exact top-k."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=_pool_and_queries(),
        tables=st.integers(1, 3),
        hash_bits=st.integers(1, 4),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    def test_every_bucket_probed_gives_exact_top_k(self, data, tables, hash_bits, k, seed):
        _, _, ids, rows, queries = data
        idx = LshIndex(ids, rows, tables, hash_bits, seed, cp_dim=1)
        results, distinct, _ = idx.query_batch(queries, k, probes_per_table=2**hash_bits)
        assert np.array_equal(distinct, np.full(len(queries), len(ids)))
        for q, got in zip(queries, results):
            best: dict[int, float] = {}
            for rid, row in zip(ids, rows):
                best[rid] = max(best.get(rid, -math.inf), float(row @ q))
            want = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            assert [rid for rid, _ in got] == [rid for rid, _ in want]
            assert np.allclose([s for _, s in got], [s for _, s in want], rtol=0.0, atol=1e-12)


class TestFindPotentialMatches:
    def test_two_identical_rides_match_each_other(self, city21):
        w = synth_commute(city21, 2, seed=12)
        a, b = w.rides
        import dataclasses

        b = dataclasses.replace(b, pickup=a.pickup, dropoff=a.dropoff,
                                request_time=a.request_time, routes=a.routes,
                                cost=a.cost, pickup_node=a.pickup_node,
                                dropoff_node=a.dropoff_node)
        matches, summary = find_potential_matches([a, b], LshConfig(tables=10, hash_bits=4, dim=32, seed=1))
        assert [rid for rid, _ in matches[a.id]] == [b.id]
        assert [rid for rid, _ in matches[b.id]] == [a.id]
        assert summary.degenerate_ids == []

    def test_deterministic(self, city21):
        w = synth_commute(city21, 60, seed=13)
        cfg = LshConfig(tables=8, hash_bits=6, dim=32, seed=21)
        m1, _ = find_potential_matches(w.rides, cfg)
        m2, _ = find_potential_matches(w.rides, cfg)
        assert m1 == m2

    def test_k_limit(self, city21):
        w = synth_commute(city21, 80, seed=14)
        matches, _ = find_potential_matches(w.rides, LshConfig(tables=10, hash_bits=4, dim=32, k=4, seed=2))
        assert all(len(v) <= 4 for v in matches.values())

    def test_feature_hash_memo_is_bit_identical(self, city21, monkeypatch):
        import ridematch.lshindex as lshmod
        from ridematch.represent import feature_hash

        calls = []

        def recording(v, d, seed=0, memo=None):
            out = feature_hash(v, d, seed, memo)
            calls.append((v, d, seed, memo, out))
            return out

        monkeypatch.setattr(lshmod, "feature_hash", recording)
        w = synth_commute(city21, 40, seed=16)
        lshmod.find_potential_matches(w.rides, LshConfig(tables=4, hash_bits=4, dim=32, seed=5))
        assert len(calls) == 80  # a data row and a query row per ride
        memo = calls[0][3]
        assert all(c[3] is memo for c in calls)
        assert set(memo) == set().union(*(c[0] for c in calls))
        for v, d, seed, _, out in calls:
            assert out.tobytes() == feature_hash(v, d, seed).tobytes()

    def test_query_rows_are_the_unit_normalized_rows(self, city21):
        # every query row equals transform_Q(unit_normalize(...)) of its own
        # ride bit for bit; a ride whose two query entries cancel in one slot
        # is flagged instead, while its data row (30 s against 45 s) is not zero
        # 80 rides in 16 dimensions: some rows' x / norm differs from
        # x * (1 / norm) in the last bit
        w = synth_commute(city21, 80, seed=17, alternates=2)
        assert any(len(r.routes) == 2 for r in w.rides)
        cfg = LshConfig(tables=4, hash_bits=4, dim=16, seed=5)
        fh_seed = _child_seed(cfg.seed, "feature-hash")
        ride0 = w.rides[0]
        spots = [r.pickup for r in w.rides] + [r.dropoff for r in w.rides]
        for a, b, c in zip(spots, spots[1:], spots[2:]):
            route = Route(points=[a, b, c], segment_durations=[30.0, 45.0], total_duration=75.0)
            edges = st_edge_set(route, ride0.request_time)
            if len(edges) == 2 and not np.any(feature_hash(query_vector(edges), cfg.dim, fh_seed)):
                break
        else:
            pytest.fail("no cancelling route among the pool's endpoints")
        zero = dataclasses.replace(ride0, id=888, routes=[route], cost=75.0)
        rides = w.rides + [zero]
        with mock.patch.object(LshIndex, "query_batch", autospec=True, side_effect=LshIndex.query_batch) as spy:
            matches, summary = find_potential_matches(rides, cfg)
        (_, qmat, _, _), kw = spy.call_args
        excl = kw["exclude_ids"].tolist()
        assert excl == [r.id for r in w.rides]
        assert summary.degenerate_ids == [888] and matches[888] == []
        for row, ride in zip(qmat, w.rides):
            v = query_vector(st_edge_set(ride.routes[0], ride.request_time))
            want = transform_Q(unit_normalize(feature_hash(v, cfg.dim, fh_seed)), cfg.norm_terms)
            assert row.tobytes() == want.tobytes()

    def test_degenerate_ride_flagged(self, city21):
        import dataclasses

        from ridematch.roadnet import Route

        w = synth_commute(city21, 20, seed=15)
        # a ride whose route sits inside one cell and one bucket
        p = w.rides[0].pickup
        tiny = Route(points=[p, p], segment_durations=[1.0], total_duration=1.0, nodes=[0, 0])
        degen = dataclasses.replace(w.rides[0], id=777, routes=[tiny], cost=1.0)
        matches, summary = find_potential_matches(
            w.rides + [degen], LshConfig(tables=6, hash_bits=4, dim=32, seed=3)
        )
        assert 777 in summary.degenerate_ids
        assert matches[777] == []


def _entry_slabs(idx):
    """Per stored entry (of table 0), the slab number of the bucket holding it."""
    slabs = np.empty(len(idx.ids), dtype=np.int64)
    for b in np.flatnonzero(idx._bucket_table == 0):
        start, size = idx._bucket_starts[b], idx._bucket_lens[b]
        slabs[idx._entries[start : start + size]] = idx._slabs[idx._bucket_slab[b]]
    return slabs


class TestSlabKeys:
    """Given request times and max_delay_s, buckets are keyed by slab,
    floor(t / max_delay_s), and a query ranks only rides with |dt| <= max_delay_s."""

    def test_times_and_delay_go_together(self, rng):
        rows = _unit_rows(rng, 3, 8)
        with pytest.raises(ValueError, match="both or neither"):
            LshIndex([0, 1, 2], rows, 2, 2, request_times=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="both or neither"):
            LshIndex([0, 1, 2], rows, 2, 2, max_delay_s=600.0)
        with pytest.raises(ValueError, match="one request time per row"):
            LshIndex([0, 1, 2], rows, 2, 2, request_times=[0.0, 1.0], max_delay_s=600.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="max_delay_s"):
                LshIndex([0, 1, 2], rows, 2, 2, request_times=[0.0, 1.0, 2.0], max_delay_s=bad)
        with pytest.raises(ValueError, match="finite"):
            LshIndex([0, 1, 2], rows, 2, 2, request_times=[0.0, math.nan, 2.0], max_delay_s=600.0)

    def test_query_times_required_by_a_keyed_index_only(self, rng):
        rows = _unit_rows(rng, 3, 8)
        keyed = LshIndex([0, 1, 2], rows, 2, 2, request_times=[0.0, 1.0, 2.0], max_delay_s=600.0)
        plain = LshIndex([0, 1, 2], rows, 2, 2)
        with pytest.raises(ValueError, match="needs query_times"):
            keyed.query_batch(rows, 2)
        with pytest.raises(ValueError, match="without request times"):
            plain.query_batch(rows, 2, query_times=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="one query time per query row"):
            keyed.query_batch(rows, 2, query_times=[0.0])
        with pytest.raises(ValueError, match="finite"):
            query(keyed, rows[0], 2, request_time=math.inf)
        assert query(keyed, rows[0], 1, request_time=0.5)[0][0] == 0

    @pytest.mark.parametrize("delay", [600.0, 7.0, 0.75])
    def test_slab_is_floor_on_edges_and_below_zero(self, rng, delay):
        # j * delay is exact for these delays, so an edge is slab j
        edges = [j * delay for j in range(-3, 4)]
        below = [-1e-9, -0.5 * delay, np.nextafter(-delay, 0.0), np.nextafter(-delay, -np.inf)]
        times = np.array(edges + below)
        idx = LshIndex(np.arange(len(times)), _unit_rows(rng, len(times), 8), 3, 2,
                       request_times=times, max_delay_s=delay)
        slabs = _entry_slabs(idx)
        assert np.array_equal(slabs, np.floor(times / delay).astype(np.int64))
        assert slabs[: len(edges)].tolist() == list(range(-3, 4))
        assert slabs[len(edges):].tolist() == [-1, -1, -1, -2]
        assert idx._slabs.tolist() == sorted(set(slabs.tolist()))

    @pytest.mark.parametrize(
        "times",
        [
            (0.0, 600.0),
            (0.0, np.nextafter(600.0, np.inf)),
            (-600.0, 0.0),  # both on slab edges, one below zero
            (-np.nextafter(600.0, np.inf), 0.0),  # slabs -2 and 0
            (-1200.0, -600.0),
            (1800.0, 2400.0),
            (-150.0, 450.0),  # slabs -1 and 0, exactly the delay apart
            (-150.0, np.nextafter(450.0, np.inf)),
            (250.0, 350.0),
        ],
    )
    def test_window_boundary_agrees_with_the_utility(self, city21, times):
        # two rides on one route, so the pair saves a whole ride iff its
        # request times pass utility._evaluate's time_ok; every bucket is
        # probed, so the hashes decide nothing
        delay = 600.0
        ride = synth_commute(city21, 1, seed=31).rides[0]
        a, b = (dataclasses.replace(ride, id=i, request_time=t) for i, t in enumerate(times))
        time_ok = abs(a.request_time - b.request_time) <= delay
        utility = pairwise_utilities(city21, [a, b], np.array([[0, 1]]), delay)[0]
        assert (utility > 0) == time_ok
        cfg = LshConfig(tables=2, hash_bits=3, probes=8, dim=32, cp_dim=1, seed=4)
        matches, summary = find_potential_matches([a, b], cfg, max_delay_s=delay)
        assert [rid for rid, _ in matches[0]] == ([1] if time_ok else [])
        assert [rid for rid, _ in matches[1]] == ([0] if time_ok else [])
        assert summary.candidates_per_query.tolist() == ([1, 1] if time_ok else [0, 0])

    def test_salts_redrawn_until_table_slab_keys_are_unique(self, rng, monkeypatch):
        import ridematch.lshindex as lshmod

        v = np.repeat(_unit_rows(rng, 1, 10), 2, axis=0)
        real, draws = lshmod._draw_salts, []

        def colliding_first(rng_, size):
            draws.append(size)
            if len(draws) == 2:  # slab 1's salt equals slab 0's: one key in both
                return np.zeros(size, dtype=np.uint64)
            return real(rng_, size)

        monkeypatch.setattr(lshmod, "_draw_salts", colliding_first)
        idx = LshIndex([0, 1], v, 1, 3, seed=4, request_times=[500.0, 700.0], max_delay_s=600.0)
        assert draws == [1, 2, 1, 2]  # table salts, then slab salts, then both again
        assert len(idx._bucket_keys) == 2 and idx._bucket_slab.tolist() in ([0, 1], [1, 0])
        # both rows tie, so the lower ride id comes first in both lists
        both = [(0, pytest.approx(1.0)), (1, pytest.approx(1.0))]
        assert idx.query_batch(v, 2, 1, query_times=[500.0, 700.0])[0] == [both, both]

    def test_only_held_slabs_are_probed(self, rng):
        # slabs 0 and 5 are held; a query in slab 1 probes slab 0 only, one in
        # slab 3 probes nothing
        rows = _unit_rows(rng, 4, 8)
        idx = LshIndex(np.arange(4), rows, 2, 2, request_times=[0.0, 10.0, 3000.0, 3010.0], max_delay_s=600.0)
        row_q, slab = idx._probe_slabs(np.array([700.0, 1900.0, 3300.0]))
        assert row_q.tolist() == [0, 2] and idx._slabs[slab].tolist() == [0, 5]
        _, distinct, raw = idx.query_batch(rows[:3], 4, 4, query_times=[700.0, 1900.0, 3300.0])
        assert distinct[1] == raw[1] == 0


_POOLS: dict = {}


def _slab_pool(city, seed, pulsed):
    """40 rides with two routes each: pulsed request times (one pulse per
    1200 s, +-150 s) or uniform over two hours, which fill every slab."""
    key = (seed, pulsed)
    if key not in _POOLS:
        pulse = 1200.0 if pulsed else None
        _POOLS[key] = synth_commute(city, 40, seed=seed, alternates=2, pulse_s=pulse).rides
    return _POOLS[key]


def _windowed_reference(idx, qmat, k, probes, exclude_ids, time_of, delay):
    """Top-k per query from the candidates of an index built without times:
    those with |dt| <= delay kept, the best route per ride, descending score
    with ties to the lowest ride id. Returns (results, distinct per query)."""
    plain = LshIndex(idx.ids, idx.matrix, idx.tables, idx.hash_bits, idx.seed, idx.cp_dim)
    qidx, pos, _ = plain._candidates(qmat, probes, None)
    qt = np.array([time_of[rid] for rid in exclude_ids.tolist()])
    et = np.array([time_of[rid] for rid in idx.ids.tolist()])
    keep = (np.abs(qt[qidx] - et[pos]) <= delay) & (idx.ids[pos] != exclude_ids[qidx])
    results, distinct = [], []
    for q in range(len(qmat)):
        entries = np.unique(pos[keep & (qidx == q)])
        distinct.append(len(entries))
        scores = np.einsum("ij,j->i", idx.matrix.take(entries, axis=0), qmat[q])
        best: dict[int, float] = {}
        for rid, score in zip(idx.ids[entries].tolist(), scores.tolist()):
            best[rid] = max(best.get(rid, -math.inf), score)
        results.append(sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k])
    return results, np.array(distinct)


class TestWindowedSearch:
    """find_potential_matches with slab keys equals the unkeyed index's
    candidates cut to the window, ranked by the pinned tie rule."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        pulsed=st.booleans(),
        shift=st.sampled_from([0.0, -3600.0]),
        grid=st.sampled_from([None, 150.0]),
        delay=st.sampled_from([300.0, 600.0, 900.0, math.inf]),
        probes=st.sampled_from([1, 4, 6]),
        cp_dim=st.sampled_from([1, 4]),
        tables=st.integers(1, 6),
        hash_bits=st.integers(1, 6),
        k=st.integers(1, 12),
        lsh_seed=st.integers(0, 2**16),
    )
    def test_equals_the_windowed_unkeyed_candidates(
        self, city21, seed, pulsed, shift, grid, delay, probes, cp_dim, tables, hash_bits, k, lsh_seed
    ):
        rides = []
        for r in _slab_pool(city21, seed, pulsed):
            t = r.request_time + shift
            # on a grid, many pairs sit exactly the delay apart and on slab edges
            rides.append(dataclasses.replace(r, request_time=t if grid is None else grid * round(t / grid)))
        time_of = {r.id: r.request_time for r in rides}
        cfg = LshConfig(tables=tables, hash_bits=hash_bits, probes=probes, dim=32, cp_dim=cp_dim, k=k,
                        seed=lsh_seed)
        with mock.patch.object(LshIndex, "query_batch", autospec=True,
                               side_effect=LshIndex.query_batch) as spy:
            matches, summary = find_potential_matches(rides, cfg, max_delay_s=delay)
        (idx, qmat, _, _), kw = spy.call_args
        excl = kw["exclude_ids"]
        if delay == math.inf:  # no time limit: the index has no slabs
            assert kw["query_times"] is None and idx._times is None
        else:
            assert kw["query_times"].tolist() == [time_of[rid] for rid in excl.tolist()]
        want, distinct = _windowed_reference(idx, qmat, k, probes, excl, time_of, delay)
        assert [matches[rid] for rid in excl.tolist()] == want
        assert np.array_equal(summary.candidates_per_query, distinct)
        assert np.all(summary.raw_retrieved_per_query >= summary.candidates_per_query)
