import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_oracle import oracle_pair

import ridematch.utility as utility
from ridematch.roadnet import RoadNetwork, RoutingLedger
from ridematch.trips import Ride
from ridematch.utility import brute_force_topk, brute_force_topk_all, pairwise_utilities


def random_pairs(rides, seed, m):
    rng = np.random.default_rng(seed)
    return np.array([(rng.integers(len(rides)), rng.integers(len(rides))) for _ in range(m)])


class TestCombinedCost:
    def test_identical_ride(self, city21, small_workload):
        r = small_workload.rides[0]
        u = pairwise_utilities(city21, [r], np.array([[0, 0]]))[0]
        assert abs(u - r.cost) < 1e-9

    def test_small_delay_makes_infeasible(self, city21, small_workload):
        rides = small_workload.rides
        # find a pair with far-apart pickups
        far = max(
            ((a, b) for a in rides[:10] for b in rides[:40]),
            key=lambda p: city21.distance_matrix([p[0].pickup_node])[0, p[1].pickup_node],
        )
        assert pairwise_utilities(city21, list(far), np.array([[0, 1]]), max_delay_s=1.0)[0] == 0.0

    def test_matches_independent_oracle(self, city21, small_workload):
        rides = small_workload.rides
        pairs = random_pairs(rides, 5, 300)
        got = pairwise_utilities(city21, rides, pairs)
        for (i, j), u in zip(pairs, got):
            assert u == oracle_pair(city21, rides[i], rides[j], 600.0)

    def test_matches_oracle_on_small_grid(self):
        from ridematch.roadnet import build_grid_network
        from ridematch.trips import synth_commute

        net = build_grid_network(5, 5, 500.0, speed_jitter_seed=7)
        rides = synth_commute(net, 30, seed=8).rides
        pairs = np.array([(i, j) for i in range(10) for j in range(10, 25)])
        got = pairwise_utilities(net, rides, pairs)
        for (i, j), u in zip(pairs, got):
            assert u == oracle_pair(net, rides[i], rides[j], 600.0)

    def test_charges_six_calls(self, city21, small_workload):
        ledger = RoutingLedger()
        pairwise_utilities(city21, small_workload.rides[:2], np.array([[0, 1]]), ledger=ledger)
        assert ledger.call_count == 6


class TestMatchingUtility:
    def test_symmetry_exact(self, city21, small_workload):
        rides = small_workload.rides
        pairs = np.stack([np.arange(40), np.arange(50, 90)], axis=1)
        assert np.array_equal(
            pairwise_utilities(city21, rides, pairs), pairwise_utilities(city21, rides, pairs[:, ::-1])
        )

    def test_nonnegative(self, city21, small_workload):
        rides = small_workload.rides
        assert np.all(pairwise_utilities(city21, rides, random_pairs(rides, 1, 200)) >= 0.0)

    def test_monotone_in_max_delay(self, city21, small_workload):
        rides = small_workload.rides
        pairs = np.stack([np.arange(30), np.arange(60, 90)], axis=1)
        u_small = pairwise_utilities(city21, rides, pairs, max_delay_s=120.0)
        u_big = pairwise_utilities(city21, rides, pairs, max_delay_s=1200.0)
        assert np.all(u_big[u_small > 0] > 0)

    def test_bounded_by_shorter_ride(self, city21, small_workload):
        rides = small_workload.rides
        pairs = random_pairs(rides, 2, 300)
        costs = np.array([r.cost for r in rides])
        u = pairwise_utilities(city21, rides, pairs)
        assert np.all(u <= np.minimum(costs[pairs[:, 0]], costs[pairs[:, 1]]) + 1e-6)

    def test_invalid_delay(self, city21, small_workload):
        rides = small_workload.rides[:3]
        pairs = np.array([[0, 1]])
        evaluators = [
            lambda d: pairwise_utilities(city21, rides, pairs, max_delay_s=d),
            lambda d: brute_force_topk(rides, rides[0], 2, city21, max_delay_s=d),
            lambda d: brute_force_topk_all(rides, 2, city21, max_delay_s=d),
        ]
        for evaluate in evaluators:
            for bad in (0, 0.0, -1.0, -math.inf, math.nan):
                with pytest.raises(ValueError, match="max_delay_s must be positive"):
                    evaluate(bad)
            evaluate(math.inf)  # no time limit is allowed


class TestBruteForceTopk:
    def test_pool_of_one(self, city21, small_workload):
        a, b = small_workload.rides[:2]
        out = brute_force_topk([a, b], a, 5, city21)
        assert len(out) == 1
        assert out[0][0] == b.id

    def test_duplicate_ranks_first(self, city21, small_workload):
        q = small_workload.rides[0]
        dup = dataclasses.replace(q, id=99999)
        pool = small_workload.rides[:50] + [dup]
        out = brute_force_topk(pool, q, 3, city21)
        assert out[0][0] == 99999
        assert out[0][1] == pytest.approx(q.cost, abs=1e-9)

    def test_matches_independent_loop(self, city21, small_workload):
        rides = small_workload.rides[:50]
        q = rides[7]
        got = brute_force_topk(rides, q, 10, city21)
        pairs = []
        for r in rides:
            if r.id == q.id:
                continue
            pairs.append((r.id, oracle_pair(city21, q, r, 600.0)))
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        assert got == pairs[:10]

    def test_topk_all_agrees_with_single(self, city21, small_workload, monkeypatch):
        rides = small_workload.rides[:40]
        # clones tie exactly with their originals; shuffled ids make the
        # id tie rule differ from pool order
        pool = rides + rides[:3] * 2
        ids = np.random.default_rng(3).permutation(len(pool)) + 500
        pool = [dataclasses.replace(r, id=int(i)) for r, i in zip(pool, ids)]
        n = len(pool)
        # blocks of all rows, of 3 rows (the last one short) and of 1 row
        for block in (utility._BLOCK, 3 * n + 1, 1):
            monkeypatch.setattr(utility, "_BLOCK", block)
            for k in (5, n - 1, n + 3):
                all_out = brute_force_topk_all(pool, k, city21)
                assert list(all_out) == [r.id for r in pool]
                for q in pool:
                    assert all_out[q.id] == brute_force_topk(pool, q, k, city21)
        assert brute_force_topk_all(pool[:1], 5, city21) == {pool[0].id: []}


class TestPairwiseUtilities:
    def test_matches_scalar_and_charges(self, city21, small_workload):
        rides = small_workload.rides[:30]
        pairs = np.array([[i, j] for i in range(10) for j in range(10, 20)])
        ledger = RoutingLedger()
        weights = pairwise_utilities(city21, rides, pairs, ledger=ledger)
        assert ledger.call_count == 6 * len(pairs)
        for (i, j), w in zip(pairs, weights):
            assert w == oracle_pair(city21, rides[i], rides[j], 600.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_symmetric_and_bounded_by_the_shorter_ride(self, city21, data):
        # rides between random nodes, each costing its shortest duration
        node = st.integers(0, city21.n_nodes - 1)
        specs = data.draw(st.lists(st.tuples(node, node, st.floats(0.0, 3600.0)), min_size=2, max_size=12))
        dist = city21.distance_matrix([s for s, _, _ in specs])
        rides = [
            Ride(i, city21.node_point(s), city21.node_point(t), rt, [], float(dist[i, t]), s, t)
            for i, (s, t, rt) in enumerate(specs)
        ]
        index = st.integers(0, len(rides) - 1)
        pairs = np.array(data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=30)), dtype=np.int64)
        max_delay_s = data.draw(st.floats(1.0, 3600.0))
        u = pairwise_utilities(city21, rides, pairs, max_delay_s)
        assert np.array_equal(u, pairwise_utilities(city21, rides, pairs[:, ::-1], max_delay_s))
        costs = np.array([r.cost for r in rides])
        assert np.all(u >= 0.0)
        assert np.all(u <= np.minimum(costs[pairs[:, 0]], costs[pairs[:, 1]]) + 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_masked_orderings_on_one_way_networks(self, data):
        # a few nodes joined by one-way edges of whole seconds, so some cross
        # legs are unreachable (inf) and some pickup legs equal a drawn delay
        n = data.draw(st.integers(2, 6))
        node = st.integers(0, n - 1)
        arcs = data.draw(
            st.dictionaries(st.tuples(node, node).filter(lambda e: e[0] != e[1]), st.integers(1, 400), max_size=12)
        )
        net = RoadNetwork(
            [40.0 + 0.01 * i for i in range(n)], [-74.0] * n,
            [u for u, _ in arcs], [v for _, v in arcs], [float(w) for w in arcs.values()], [1.0] * len(arcs),
        )
        dist = net.distance_matrix(np.arange(n))
        trips = [(s, t) for s in range(n) for t in range(n) if np.isfinite(dist[s, t])]
        specs = data.draw(st.lists(st.tuples(st.sampled_from(trips), st.integers(0, 900)), min_size=2, max_size=8))
        rides = [
            Ride(i, net.node_point(s), net.node_point(t), float(rt), [], float(dist[s, t]), s, t)
            for i, ((s, t), rt) in enumerate(specs)
        ]
        legs = sorted({float(x) for x in dist.ravel() if 0 < x < np.inf})
        max_delay_s = data.draw(st.one_of(st.sampled_from(legs + [math.inf]), st.floats(0.5, 900.0)))
        index = st.integers(0, len(rides) - 1)
        pairs = np.array(data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20)), dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = pairwise_utilities(net, rides, pairs, max_delay_s)
        expected = np.array([oracle_pair(net, rides[i], rides[j], max_delay_s) for i, j in pairs])
        assert u.tobytes() == expected.tobytes()
