import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridematch import baselines
from ridematch.baselines import closeby, closeby_haversine, haversine_topk
from ridematch.geo import GeoPoint, haversine_km
from ridematch.trips import synth_commute


def hav_utility_reference(a, b, max_delay_s=600.0, speed=8.0):
    """Independent straight-line 4-ordering utility (km), readable loop form."""
    c_a = haversine_km(a.pickup, a.dropoff)
    c_b = haversine_km(b.pickup, b.dropoff)
    ss = haversine_km(a.pickup, b.pickup)
    orderings = [
        ss + haversine_km(b.pickup, a.dropoff) + haversine_km(a.dropoff, b.dropoff),
        ss + c_b + haversine_km(b.dropoff, a.dropoff),
        ss + haversine_km(a.pickup, b.dropoff) + haversine_km(b.dropoff, a.dropoff),
        ss + c_a + haversine_km(a.dropoff, b.dropoff),
    ]
    util = max(0.0, c_a + c_b - min(orderings))
    if ss * 1000.0 / speed > max_delay_s:
        return 0.0
    return util


class TestCloseby:
    def test_two_rides_mutual(self, city21):
        w = synth_commute(city21, 2, seed=20)
        out = closeby(w.rides, 1)
        a, b = w.rides
        assert out[a.id] == [b.id]
        assert out[b.id] == [a.id]

    def test_colocated_ties_by_id(self, city21):
        w = synth_commute(city21, 6, seed=21)
        base = w.rides[0]
        clones = [dataclasses.replace(r, pickup=base.pickup) for r in w.rides]
        out = closeby(clones, 3)
        for r in clones:
            expect = sorted(x.id for x in clones if x.id != r.id)[:3]
            assert out[r.id] == expect

    def test_matches_brute_force(self, city21):
        w = synth_commute(city21, 200, seed=22)
        out = closeby(w.rides, 7)
        for q in w.rides[::17]:
            dists = sorted(
                (haversine_km(q.pickup, r.pickup), r.id) for r in w.rides if r.id != q.id
            )
            assert out[q.id] == [rid for _, rid in dists[:7]]

    def test_k_bounds(self, city21):
        w = synth_commute(city21, 5, seed=23)
        with pytest.raises(ValueError):
            closeby(w.rides, 5)
        with pytest.raises(ValueError):
            closeby(w.rides, 0)


class TestHaversineTopk:
    def test_identical_rides_utility_is_ride_length(self, city21):
        w = synth_commute(city21, 2, seed=24)
        a = w.rides[0]
        b = dataclasses.replace(a, id=a.id + 1)
        assert hav_utility_reference(a, b) == pytest.approx(
            haversine_km(a.pickup, a.dropoff), abs=1e-12
        )
        out = haversine_topk([a, b], 1)
        assert out[a.id] == [b.id]

    def test_opposite_directions_zero(self, city21):
        w = synth_commute(city21, 2, seed=25)
        a = w.rides[0]
        rev = dataclasses.replace(a, id=a.id + 1, pickup=a.dropoff, dropoff=a.pickup)
        # reversed twin: shared distance cancels out, utility collapses
        assert hav_utility_reference(a, rev) <= haversine_km(a.pickup, a.dropoff) * 0.5 + 1e-9

    def test_matches_reference_reimplementation(self, city21):
        w = synth_commute(city21, 100, seed=26)
        out = haversine_topk(w.rides, 5)
        for q in w.rides[::11]:
            scored = sorted(
                ((-hav_utility_reference(q, r), r.id) for r in w.rides if r.id != q.id),
            )
            assert out[q.id] == [rid for _, rid in scored[:5]]


class TestClosebyHaversine:
    def test_default_candidate_budget(self):
        from ridematch.baselines import DEFAULT_M_CANDIDATES

        assert DEFAULT_M_CANDIDATES == 1000

    def test_stage1_containment(self, city21):
        w = synth_commute(city21, 150, seed=27)
        m = 40
        stage1 = closeby(w.rides, m)
        out = closeby_haversine(w.rides, 8, m_candidates=m)
        for rid, cands in out.items():
            assert set(cands) <= set(stage1[rid])

    def test_saturation_equals_exhaustive(self, city21):
        w = synth_commute(city21, 60, seed=28)
        full = haversine_topk(w.rides, 6)
        saturated = closeby_haversine(w.rides, 6, m_candidates=1000)
        assert full == saturated

    def test_matches_two_stage_reference(self, city21):
        w = synth_commute(city21, 300, seed=29)
        out = closeby_haversine(w.rides, 5, m_candidates=25)
        stage1 = closeby(w.rides, 25)
        for q in w.rides[::41]:
            cands = stage1[q.id]
            by_id = {r.id: r for r in w.rides}
            scored = sorted(
                ((-hav_utility_reference(q, by_id[c]), c) for c in cands),
            )
            assert out[q.id] == [rid for _, rid in scored[:5]]

    def test_full_budget_skips_stage1_and_equals_haversine_topk(self, city21, monkeypatch):
        # a 60 s delay bound zeroes most utilities, so ride ids break most
        # ties; ids are in no relation to positions
        base = synth_commute(city21, 90, seed=37).rides
        ids = np.random.default_rng(8).permutation(len(base)) * 5 + 2
        rides = [dataclasses.replace(r, id=int(i)) for r, i in zip(base, ids)]
        zero = sum(hav_utility_reference(a, b, 60.0) == 0.0 for a in rides for b in rides if a is not b)
        assert zero > 0.9 * len(rides) * (len(rides) - 1)
        want = haversine_topk(rides, 10, max_delay_s=60.0)
        assert want[rides[0].id] == utility_reference_at(rides[0], rides[1:], 10, 60.0)
        calls = []
        top_k = baselines._top_k
        monkeypatch.setattr(baselines, "_top_k", lambda keys, *rest: calls.append(len(keys)) or top_k(keys, *rest))
        for m in (len(rides) - 1, len(rides) + 40):
            calls.clear()
            assert closeby_haversine(rides, 10, m_candidates=m, max_delay_s=60.0) == want
            assert calls == [len(rides)]  # one ranking per block: stage 2 only

    def test_m_smaller_than_k_rejected(self, city21):
        w = synth_commute(city21, 20, seed=30)
        with pytest.raises(ValueError):
            closeby_haversine(w.rides, 10, m_candidates=5)
        with pytest.raises(ValueError):
            closeby_haversine(w.rides, 0, m_candidates=0)
        with pytest.raises(ValueError):
            closeby_haversine([], 1)

    def test_one_ride_pool_has_no_candidates(self, city21):
        ride = synth_commute(city21, 5, seed=31).rides[0]
        assert closeby_haversine([ride], 5) == {ride.id: []}
        assert haversine_topk([ride], 5) == {ride.id: []}
        with pytest.raises(ValueError):
            closeby([ride], 1)


@pytest.mark.parametrize("run", [
    lambda rides: closeby(rides, 1),
    lambda rides: haversine_topk(rides, 1),
    lambda rides: closeby_haversine(rides, 1),
])
def test_empty_pool_rejected(run):
    with pytest.raises(ValueError, match="n=0"):
        run([])


def test_all_baselines_deterministic(city21):
    w = synth_commute(city21, 50, seed=36)
    assert closeby(w.rides, 5) == closeby(w.rides, 5)
    assert haversine_topk(w.rides, 5) == haversine_topk(w.rides, 5)
    assert closeby_haversine(w.rides, 5, 20) == closeby_haversine(w.rides, 5, 20)


def closeby_reference(rides, q, k):
    return [rid for _, rid in sorted((haversine_km(q.pickup, r.pickup), r.id) for r in rides if r.id != q.id)[:k]]


def utility_reference(q, cands, k):
    return utility_reference_at(q, cands, k, 600.0)


def utility_reference_at(q, cands, k, max_delay_s):
    return [rid for _, rid in sorted((-hav_utility_reference(q, r, max_delay_s), r.id) for r in cands)[:k]]


def _lexsort_top_k(keys, cand, rows, ids, k):
    """_top_k as one full lexsort of every row by (key, ride id)."""
    cand = np.broadcast_to(cand, keys.shape)
    keys = keys.copy()
    keys[cand == rows[:, None]] = np.inf
    order = np.lexsort((ids[cand], keys), axis=-1)[:, :k]
    return np.take_along_axis(cand, order, axis=-1)


@st.composite
def _ranking_blocks(draw):
    """(keys, cand, rows, ids, k): keys from a few values, so that hundreds
    may tie at the k-th one; cand is either every position (the ride itself
    among them) or per row distinct positions other than the ride."""
    n = draw(st.integers(2, 400))
    ids = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True)))
    rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))))
    values = draw(st.lists(st.sampled_from([0.0, -1.5, 1.0, 2.0, 7.25]), min_size=1, max_size=3))
    if draw(st.booleans()):
        cand = np.arange(n)[None, :]
        width, others = n, n - 1
    else:
        width = others = draw(st.integers(1, n - 1))
        seed = draw(st.integers(0, 2**32))
        rng = np.random.default_rng(seed)
        cand = np.stack([rng.permutation(np.delete(np.arange(n), r))[:width] for r in rows])
    keys = np.array(draw(st.lists(st.sampled_from(values), min_size=len(rows) * width,
                                  max_size=len(rows) * width))).reshape(len(rows), width)
    return keys, cand, rows, ids, draw(st.integers(0, others))


@settings(max_examples=300, deadline=None)
@given(block=_ranking_blocks())
def test_top_k_matches_full_lexsort(block):
    keys, cand, rows, ids, k = block
    id_rank = baselines._id_rank(ids)
    want = _lexsort_top_k(keys, cand, rows, ids, k)
    got = baselines._top_k(keys.copy(), cand, rows, id_rank, k)
    assert np.array_equal(got, want)


def test_top_k_hundreds_tied_at_the_kth_key():
    # 500 candidates all tie at 0 except three below it; the seven lowest
    # ids among the tied fill the top 10
    n = 501
    ids = np.random.default_rng(9).permutation(n) * 3 - 700
    keys = np.zeros((1, n))
    keys[0, [5, 250, 499]] = -1.0
    id_rank = baselines._id_rank(ids)
    rows = np.array([17])
    got = baselines._top_k(keys.copy(), np.arange(n)[None, :], rows, id_rank, 10)
    tied = sorted((i for i in range(n) if i not in (5, 250, 499, 17)), key=lambda i: ids[i])
    assert got[0].tolist() == sorted([5, 250, 499], key=lambda i: ids[i]) + tied[:7]


class TestBlocks:
    """Rankings do not depend on where the row blocks fall."""

    @pytest.fixture(scope="class")
    def tied_pool(self, city21):
        # clones in groups of three (equal pickups and dropoffs, so every key
        # ties exactly within a group), with ids in no relation to positions
        base = synth_commute(city21, 12, seed=32).rides
        ids = np.random.default_rng(5).permutation(3 * len(base)) * 7 + 3
        return [dataclasses.replace(base[i // 3], id=int(rid)) for i, rid in enumerate(ids)]

    @pytest.mark.parametrize("rows_per_block", [1, 4, 7])
    def test_blocks_match_per_row_references(self, tied_pool, rows_per_block, monkeypatch):
        rides = tied_pool
        n = len(rides)
        monkeypatch.setattr(baselines, "_BLOCK", rows_per_block * n + n // 2)
        block_rows = []
        top_k = baselines._top_k
        monkeypatch.setattr(baselines, "_top_k", lambda keys, *rest: block_rows.append(len(keys)) or top_k(keys, *rest))
        near = closeby(rides, 5)
        full, rest = divmod(n, rows_per_block)
        assert block_rows == [rows_per_block] * full + [rest] * (rest > 0)
        by_id = {r.id: r for r in rides}
        exhaustive = {k: haversine_topk(rides, k) for k in (4, n - 1, n + 3)}
        hybrid = closeby_haversine(rides, 4, m_candidates=9)
        for q in rides:
            others = [r for r in rides if r.id != q.id]
            assert near[q.id] == closeby_reference(rides, q, 5)
            for k, out in exhaustive.items():
                assert out[q.id] == utility_reference(q, others, k)
            stage1 = [by_id[c] for c in closeby_reference(rides, q, 9)]
            assert hybrid[q.id] == utility_reference(q, stage1, 4)
        assert exhaustive[n - 1] == exhaustive[n + 3] == closeby_haversine(rides, n - 1, m_candidates=n + 3)


@pytest.mark.parametrize(
    "run",
    [
        lambda rides: closeby(rides, 10),
        lambda rides: haversine_topk(rides, 10),
        lambda rides: closeby_haversine(rides, 10),
    ],
    ids=["closeby", "haversine_topk", "closeby_haversine"],
)
def test_memory_bounded(city21, run):
    # 3000 rides, the CLI's default optimal_cap. The baselines read only id,
    # pickup and dropoff, so clones of one routed ride with random points
    # stand in for a routed pool.
    n = 3000
    base = synth_commute(city21, 5, seed=33).rides[0]
    rng = np.random.default_rng(6)
    lat = 40.72 + rng.random((n, 2)) * 0.09
    lon = -74.0 + rng.random((n, 2)) * 0.12
    rides = [
        dataclasses.replace(base, id=i, pickup=GeoPoint(lat[i, 0], lon[i, 0]), dropoff=GeoPoint(lat[i, 1], lon[i, 1]))
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        out = run(rides)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == n and all(len(v) == 10 for v in out.values())
    assert peak < 48 * 2**20
