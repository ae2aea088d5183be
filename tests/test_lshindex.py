import numpy as np
import pytest

from ridematch.represent import DegenerateInputError
from ridematch.lshindex import (
    CpHashFunction,
    LshConfig,
    LshIndex,
    build_index,
    cp_hash,
    find_potential_matches,
    query,
    suggest_params,
)
from ridematch.trips import synth_commute


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestCpHash:
    def test_identity_seam_positive_axis(self):
        h = CpHashFunction.identity(8)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert cp_hash(h, e0) == 0

    def test_identity_seam_negative_axis(self):
        h = CpHashFunction.identity(8)
        e0 = np.zeros(8)
        e0[0] = -1.0
        assert cp_hash(h, e0) == 1

    def test_identity_seam_other_axis(self):
        h = CpHashFunction.identity(8)
        x = np.zeros(8)
        x[3] = -2.0
        assert cp_hash(h, x) == 7  # 2*3 + 1

    def test_tie_breaks_to_lowest_index(self):
        h = CpHashFunction.identity(4)
        assert cp_hash(h, np.ones(4)) == 0
        # |1| == |-1|: index 0 (positive) wins, index 1 (negative) is runner-up
        code, alt, margin = CpHashFunction.identity(3).hash_batch(np.array([[1.0, -1.0, 0.5]]))
        assert (code[0], alt[0], margin[0]) == (0, 3, 0.0)

    def test_runner_up_code_and_margin(self, rng):
        y = rng.normal(size=(200, 17))
        code, alt, margin = CpHashFunction.identity(17).hash_batch(y)
        rank = np.argsort(-np.abs(y), axis=1, kind="stable")
        rows = np.arange(len(y))
        for got, j in ((code, rank[:, 0]), (alt, rank[:, 1])):
            assert np.array_equal(got, 2 * j + (y[rows, j] < 0))
        expected = np.abs(y[rows, rank[:, 0]]) - np.abs(y[rows, rank[:, 1]])
        assert np.array_equal(margin, expected)
        assert np.all(margin >= 0)

    def test_antipodal_codes_differ(self, rng):
        for seed in range(50):
            h = CpHashFunction(12, seed=seed)
            x = rng.normal(size=12)
            assert cp_hash(h, x) != cp_hash(h, -x)

    def test_deterministic_under_seed(self, rng):
        x = rng.normal(size=20)
        assert cp_hash(CpHashFunction(20, seed=3), x) == cp_hash(CpHashFunction(20, seed=3), x)

    def test_rotation_orthogonal(self, rng):
        for dim, seed in ((48, 11), (64, 0), (128, 5)):
            h = CpHashFunction(dim, seed=seed)
            m = h.rotate(np.eye(h.d_padded))
            gram = m @ m.T
            assert np.max(np.abs(gram - np.eye(h.d_padded))) < 1e-12
            x = rng.normal(size=(10, dim))
            norms = np.linalg.norm(h.rotate(x), axis=1)
            assert np.allclose(norms, np.linalg.norm(x, axis=1), atol=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cp_hash(CpHashFunction(8, seed=0), np.zeros(8))

    def test_range(self, rng):
        h = CpHashFunction(10, seed=2, cp_dim=4)
        for _ in range(100):
            code = cp_hash(h, rng.normal(size=10))
            assert 0 <= code < 8

    def test_invalid_cp_dim(self):
        with pytest.raises(ValueError):
            CpHashFunction(8, seed=0, cp_dim=0)
        with pytest.raises(ValueError):
            CpHashFunction(8, seed=0, cp_dim=9)


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


class TestBuildIndex:
    def test_single_vector_in_all_tables(self, rng):
        v = _unit_rows(rng, 1, 10)[0]
        idx = build_index([(7, v)], tables=3, hash_bits=2, seed=0)
        total_buckets = sum(len(store[0]) for store in idx._stores)
        total_entries = sum(store[2].size for store in idx._stores)
        assert total_buckets == 3
        assert total_entries == 3

    def test_identical_vectors_collide_everywhere(self, rng):
        v = _unit_rows(rng, 1, 12)[0]
        idx = build_index([(0, v), (1, v.copy())], tables=5, hash_bits=3, seed=1)
        for uniq, offsets, _ in idx._stores:
            assert len(uniq) == 1
            assert offsets[-1] == 2

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_index([], tables=2, hash_bits=2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            build_index([(0, np.zeros(8))], tables=2, hash_bits=2)

    def test_deterministic(self, rng):
        vs = [(i, v) for i, v in enumerate(_unit_rows(rng, 20, 10))]
        a = build_index(vs, tables=4, hash_bits=3, seed=9)
        b = build_index(vs, tables=4, hash_bits=3, seed=9)
        for (u1, o1, p1), (u2, o2, p2) in zip(a._stores, b._stores):
            assert np.array_equal(u1, u2)
            assert np.array_equal(p1, p2)


class TestQuery:
    def test_stored_vector_found_first(self, rng):
        rows = _unit_rows(rng, 50, 18)
        idx = build_index(list(enumerate(rows)), tables=12, hash_bits=3, seed=4)
        res = query(idx, rows[17], k=5, exclude_id=999)
        assert res[0][0] == 17
        assert res[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_self_exclusion(self, rng):
        rows = _unit_rows(rng, 30, 14)
        idx = build_index(list(enumerate(rows)), tables=10, hash_bits=2, seed=4)
        res = query(idx, rows[3], k=5, exclude_id=3)
        assert all(rid != 3 for rid, _ in res)

    def test_empty_result_when_only_self(self, rng):
        v = _unit_rows(rng, 1, 10)[0]
        idx = build_index([(0, v)], tables=4, hash_bits=2, seed=0)
        assert query(idx, v, k=3, exclude_id=0) == []

    def test_scores_are_exact_inner_products(self, rng):
        rows = _unit_rows(rng, 60, 16)
        idx = build_index(list(enumerate(rows)), tables=10, hash_bits=2, seed=2)
        q = _unit_rows(rng, 1, 16)[0]
        for rid, score in query(idx, q, k=20, probes_per_table=2):
            assert score == pytest.approx(float(rows[rid] @ q), abs=1e-12)

    def test_results_sorted_desc_then_id(self, rng):
        rows = _unit_rows(rng, 80, 12)
        idx = build_index(list(enumerate(rows)), tables=8, hash_bits=2, seed=5)
        res = query(idx, _unit_rows(rng, 1, 12)[0], k=30, probes_per_table=2)
        for (ra, sa), (rb, sb) in zip(res, res[1:]):
            assert sa > sb or (sa == sb and ra < rb)

    def test_multiprobe_supersets_candidates(self, rng):
        rows = _unit_rows(rng, 100, 16)
        idx = build_index(list(enumerate(rows)), tables=6, hash_bits=4, seed=6)
        qs = _unit_rows(rng, 20, 16)
        _, c1, _ = idx.query_batch(qs, k=100, probes_per_table=1)
        _, c4, _ = idx.query_batch(qs, k=100, probes_per_table=4)
        assert np.all(c4 >= c1)

    def test_probe_heap_path_matches_closed_form_prefix(self, rng):
        # probes=4 uses the closed form; probes=5+ the heap. The first 4
        # probe keys must coincide.
        rows = _unit_rows(rng, 40, 12)
        idx = build_index(list(enumerate(rows)), tables=3, hash_bits=5, seed=8)
        base = np.array([123456789], dtype=np.uint64)
        deltas = rng.integers(1, 2**60, size=(1, 5)).astype(np.uint64)
        margins = rng.uniform(0.0, 1.0, size=(1, 5)).astype(np.float32)
        k4, v4 = idx._probe_keys(base, deltas, margins, 4)
        k8, v8 = idx._probe_keys(base, deltas, margins, 8)
        assert np.array_equal(k4[0], k8[0, :4])
        assert v4.all() and v8.all()

    def test_zero_query_rejected(self, rng):
        rows = _unit_rows(rng, 5, 8)
        idx = build_index(list(enumerate(rows)), tables=2, hash_bits=2, seed=0)
        with pytest.raises(ValueError):
            query(idx, np.zeros(8), k=2)

    def test_batch_matches_single(self, rng):
        rows = _unit_rows(rng, 60, 16)
        idx = build_index(list(enumerate(rows)), tables=8, hash_bits=3, seed=3)
        qs = _unit_rows(rng, 10, 16)
        batch, _, _ = idx.query_batch(qs, k=5, probes_per_table=2)
        for i in range(10):
            assert batch[i] == query(idx, qs[i], k=5, probes_per_table=2)


class TestCollisionProbability:
    def test_monotone_in_angle(self):
        """Single-hash collision rate is non-increasing in angle; 0 at pi."""
        d = 16
        u = np.zeros(d)
        u[0] = 1.0
        angles = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
        n_fns = 400
        rates = []
        for theta in angles:
            v = np.cos(theta) * u
            v[1] = np.sin(theta)
            hits = 0
            for seed in range(n_fns):
                h = CpHashFunction(d, seed=seed)
                pair = h.hash_batch(np.stack([u, v]))[0]
                hits += pair[0] == pair[1]
            rates.append(hits / n_fns)
        assert rates[0] == 1.0
        se = 1.0 / np.sqrt(n_fns)
        violations = [b - a for a, b in zip(rates, rates[1:]) if b > a]
        assert len(violations) <= 1
        assert all(v <= se for v in violations)
        # antipodal: exactly zero
        hits = 0
        for seed in range(n_fns):
            h = CpHashFunction(d, seed=seed)
            pair = h.hash_batch(np.stack([u, -u]))[0]
            hits += pair[0] == pair[1]
        assert hits == 0


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
