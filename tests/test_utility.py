import dataclasses
import math

import numpy as np
import pytest

import ridematch.utility as utility
from ridematch.roadnet import RoutingLedger
from ridematch.utility import (
    ORDERING_LABELS,
    brute_force_topk,
    brute_force_topk_all,
    combined_cost,
    matching_utility,
    pairwise_utilities,
)


def oracle_pair(net, a, b, max_delay_s):
    """Independent 4-ordering evaluation straight from the definitions."""
    d = net.distance_matrix(np.arange(net.n_nodes))
    a_s, a_t, b_s, b_t = a.pickup_node, a.dropoff_node, b.pickup_node, b.dropoff_node
    orderings = {
        "ssTT": d[a_s, b_s] + d[b_s, a_t] + d[a_t, b_t],
        "ssT'T": d[a_s, b_s] + b.cost + d[b_t, a_t],
        "s'sT'T": d[b_s, a_s] + d[a_s, b_t] + d[b_t, a_t],
        "s'sTT'": d[b_s, a_s] + a.cost + d[a_t, b_t],
    }
    allowed = {}
    for label, cost in orderings.items():
        delay = d[a_s, b_s] if label.startswith("ss") else d[b_s, a_s]
        if delay <= max_delay_s and math.isfinite(cost):
            allowed[label] = cost
    if not allowed:
        return math.inf, None, False, 0.0
    best_label = min(allowed, key=lambda k: (allowed[k], ORDERING_LABELS.index(k)))
    combined = allowed[best_label]
    feasible = abs(a.request_time - b.request_time) <= max_delay_s
    utility = max(0.0, a.cost + b.cost - combined) if feasible else 0.0
    return combined, best_label if math.isfinite(combined) else None, feasible, utility


class TestCombinedCost:
    def test_identical_ride(self, city21, small_workload):
        r = small_workload.rides[0]
        ev = combined_cost(r, r, city21)
        assert abs(ev.combined_cost - r.cost) < 1e-9
        assert abs(ev.utility - r.cost) < 1e-9
        assert ev.feasible

    def test_small_delay_makes_infeasible(self, city21, small_workload):
        rides = small_workload.rides
        # find a pair with far-apart pickups
        far = max(
            ((a, b) for a in rides[:10] for b in rides[:40]),
            key=lambda p: city21.distance_matrix([p[0].pickup_node])[0, p[1].pickup_node],
        )
        ev = combined_cost(far[0], far[1], city21, max_delay_s=1.0)
        assert not ev.feasible
        assert ev.utility == 0.0

    def test_matches_independent_oracle(self, city21, small_workload):
        rides = small_workload.rides
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = rides[rng.integers(len(rides))], rides[rng.integers(len(rides))]
            ev = combined_cost(a, b, city21)
            combined, label, feasible, utility = oracle_pair(city21, a, b, 600.0)
            assert ev.combined_cost == pytest.approx(combined, abs=1e-9)
            assert ev.best_ordering == label
            assert ev.feasible == feasible
            assert ev.utility == pytest.approx(utility, abs=1e-9)

    def test_matches_oracle_on_small_grid(self):
        from ridematch.roadnet import build_grid_network
        from ridematch.trips import synth_commute

        net = build_grid_network(5, 5, 500.0, speed_jitter_seed=7)
        rides = synth_commute(net, 30, seed=8).rides
        for a in rides[:10]:
            for b in rides[10:25]:
                ev = combined_cost(a, b, net)
                combined, label, feasible, utility = oracle_pair(net, a, b, 600.0)
                assert ev.combined_cost == pytest.approx(combined, abs=1e-9)
                assert ev.best_ordering == label
                assert ev.utility == pytest.approx(utility, abs=1e-9)

    def test_best_ordering_legs_sum_to_combined(self, city21, small_workload):
        d = city21.distance_matrix(np.arange(city21.n_nodes))
        rides = small_workload.rides
        for a, b in zip(rides[:30], rides[40:70]):
            ev = combined_cost(a, b, city21)
            if not math.isfinite(ev.combined_cost):
                continue
            legs = {
                "ssTT": [(a.pickup_node, b.pickup_node), (b.pickup_node, a.dropoff_node), (a.dropoff_node, b.dropoff_node)],
                "ssT'T": [(a.pickup_node, b.pickup_node), (b.pickup_node, b.dropoff_node), (b.dropoff_node, a.dropoff_node)],
                "s'sT'T": [(b.pickup_node, a.pickup_node), (a.pickup_node, b.dropoff_node), (b.dropoff_node, a.dropoff_node)],
                "s'sTT'": [(b.pickup_node, a.pickup_node), (a.pickup_node, a.dropoff_node), (a.dropoff_node, b.dropoff_node)],
            }[ev.best_ordering]
            assert sum(d[u, v] for u, v in legs) == pytest.approx(ev.combined_cost, abs=1e-9)

    def test_charges_six_calls(self, city21, small_workload):
        ledger = RoutingLedger()
        combined_cost(small_workload.rides[0], small_workload.rides[1], city21, ledger)
        assert ledger.call_count == 6


class TestMatchingUtility:
    def test_symmetry_exact(self, city21, small_workload):
        rides = small_workload.rides
        for a, b in zip(rides[:40], rides[50:90]):
            assert matching_utility(a, b, city21) == matching_utility(b, a, city21)

    def test_nonnegative(self, city21, small_workload):
        rides = small_workload.rides
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rides[rng.integers(len(rides))], rides[rng.integers(len(rides))]
            assert matching_utility(a, b, city21) >= 0.0

    def test_monotone_in_max_delay(self, city21, small_workload):
        rides = small_workload.rides
        for a, b in zip(rides[:30], rides[60:90]):
            u_small = matching_utility(a, b, city21, max_delay_s=120.0)
            u_big = matching_utility(a, b, city21, max_delay_s=1200.0)
            if u_small > 0:
                assert u_big > 0

    def test_bounded_by_shorter_ride(self, city21, small_workload):
        rides = small_workload.rides
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = rides[rng.integers(len(rides))], rides[rng.integers(len(rides))]
            u = matching_utility(a, b, city21)
            assert u <= min(a.cost, b.cost) + 1e-6

    def test_invalid_delay(self, city21, small_workload):
        with pytest.raises(ValueError):
            matching_utility(small_workload.rides[0], small_workload.rides[1], city21, max_delay_s=0)


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
            pairs.append((r.id, matching_utility(q, r, city21)))
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        assert [rid for rid, _ in got] == [rid for rid, _ in pairs[:10]]
        for (g, gu), (e, eu) in zip(got, pairs[:10]):
            assert gu == pytest.approx(eu, abs=1e-9)

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
            assert w == pytest.approx(matching_utility(rides[i], rides[j], city21), abs=1e-12)
