import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridematch.network as network
from ridematch.baselines import closeby
from ridematch.network import (
    ShareabilityNetwork,
    _blossom,
    _certify,
    build_network,
    greedy_matching,
    max_weight_matching,
    optimal_utility,
)
from ridematch.roadnet import RoutingLedger
from ridematch.trips import synth_commute
from ridematch.utility import matching_utility


def brute_force_matching(nodes, edges):
    """Exponential enumeration over all matchings; exact for small graphs."""
    best = 0.0
    edges = list(edges)

    def rec(i, used, total):
        nonlocal best
        best = max(best, total)
        for j in range(i, len(edges)):
            u, v, w = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, total + w)

    rec(0, set(), 0.0)
    return best


def networkx_matching_total(nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_weighted_edges_from(edges)
    return sum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))


@st.composite
def tied_graphs(draw):
    """Graphs of 2-10 rides with weights from {1, 2, 3}, so tied optima are common."""
    n = draw(st.integers(2, 10))
    ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    slots = list(itertools.combinations(range(n), 2))
    ws = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=len(slots), max_size=len(slots)))
    edges = [(ids[i], ids[j], w) for (i, j), w in zip(slots, ws) if w > 0.0]
    return ids, edges


class TestBuildNetwork:
    def test_empty_proposals(self, city21, small_workload):
        g = build_network(small_workload.rides, {r.id: [] for r in small_workload.rides}, city21)
        assert g.edges == []
        assert g.evaluated_pairs == 0

    def test_bidirectional_proposal_single_edge(self, city21, small_workload):
        a, b = small_workload.rides[:2]
        rides = small_workload.rides
        proposals = {a.id: [b.id], b.id: [a.id]}
        g = build_network(rides, proposals, city21)
        assert g.evaluated_pairs == 1
        assert len(g.edges) <= 1

    def test_accepts_scored_tuples(self, city21, small_workload):
        a, b = small_workload.rides[:2]
        g1 = build_network(small_workload.rides, {a.id: [(b.id, 0.5)]}, city21)
        g2 = build_network(small_workload.rides, {a.id: [b.id]}, city21)
        assert g1.edges == g2.edges

    def test_weights_are_exact_utilities(self, city21, small_workload):
        rides = small_workload.rides
        proposals = closeby(rides, 4)
        g = build_network(rides, proposals, city21)
        by_id = {r.id: r for r in rides}
        for u, v, w in g.edges[:40]:
            assert w == pytest.approx(matching_utility(by_id[u], by_id[v], city21), abs=1e-12)
            assert w > 0

    def test_ledger_counts_nodes_plus_six_edges(self, city21):
        ledger = RoutingLedger()
        w = synth_commute(city21, 80, seed=31, ledger=ledger)
        assert ledger.call_count == 80
        proposals = closeby(w.rides, 5)
        g = build_network(w.rides, proposals, city21, ledger=ledger)
        assert ledger.call_count == 80 + 6 * g.evaluated_pairs

    def test_unknown_ride_rejected(self, city21, small_workload):
        with pytest.raises(ValueError):
            build_network(small_workload.rides, {small_workload.rides[0].id: [10**9]}, city21)


class TestMaxWeightMatching:
    def test_path_takes_middle_edge(self):
        g = ShareabilityNetwork(nodes=[0, 1, 2, 3], edges=[(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        res = max_weight_matching(g)
        assert res.pairs == [(1, 2)]
        assert res.total_utility == 5.0
        assert res.unmatched == [0, 3]

    def test_triangle(self):
        g = ShareabilityNetwork(nodes=[0, 1, 2], edges=[(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        res = max_weight_matching(g)
        assert res.total_utility == 3.0
        assert res.pairs == [(0, 1)]

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            edges = []
            for u, v in itertools.combinations(range(n), 2):
                if rng.uniform() < 0.5:
                    edges.append((u, v, float(rng.uniform(0.1, 10.0))))
            g = ShareabilityNetwork(nodes=list(range(n)), edges=edges)
            res = max_weight_matching(g)
            assert res.total_utility == pytest.approx(
                brute_force_matching(range(n), edges), abs=1e-9
            )

    def test_pairs_vertex_disjoint(self, city21, small_workload):
        proposals = closeby(small_workload.rides, 6)
        g = build_network(small_workload.rides, proposals, city21)
        res = max_weight_matching(g)
        flat = [x for p in res.pairs for x in p]
        assert len(flat) == len(set(flat))
        assert set(flat) | set(res.unmatched) == set(g.nodes)

    def test_greedy_is_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            edges = [
                (u, v, float(rng.uniform(0.1, 5.0)))
                for u, v in itertools.combinations(range(n), 2)
                if rng.uniform() < 0.6
            ]
            g = ShareabilityNetwork(nodes=list(range(n)), edges=edges)
            assert greedy_matching(g).total_utility <= max_weight_matching(g).total_utility + 1e-12


class TestOwnedSolver:
    @settings(max_examples=300, deadline=None)
    @given(tied_graphs())
    def test_total_equals_brute_force_and_networkx(self, graph):
        ids, edges = graph
        res = max_weight_matching(ShareabilityNetwork(nodes=ids, edges=edges))
        assert res.total_utility == pytest.approx(brute_force_matching(ids, edges), abs=1e-9)
        assert res.total_utility == pytest.approx(networkx_matching_total(ids, edges), abs=1e-9)
        weight = {(u, v): w for u, v, w in edges}
        flat = [x for p in res.pairs for x in p]
        assert len(flat) == len(set(flat))
        assert res.pairs == sorted(res.pairs)
        assert res.total_utility == float(sum(weight[p] for p in res.pairs))
        assert res.unmatched == sorted(set(ids) - set(flat))

    @settings(max_examples=300, deadline=None)
    @given(tied_graphs())
    def test_dual_certificate(self, graph):
        ids, edges = graph
        if not edges:
            return
        pos = {x: i for i, x in enumerate(ids)}
        eu = [pos[u] for u, _, _ in edges]
        ev = [pos[v] for _, v, _ in edges]
        ew = [w for _, _, w in edges]
        n = len(ids)
        matched, u, blossoms = _blossom(n, eu, ev, ew)
        _certify(eu, ev, ew, matched, u, blossoms)
        assert sum(ew[k] for k in matched) == pytest.approx(
            sum(u) + sum(z * (len(b) - 1) / 2 for b, z in blossoms), abs=1e-9
        )
        # each perturbation below breaks one condition that the checker must catch
        for k in matched[:1]:
            loose = list(u)
            loose[eu[k]] += 1.0  # all slacks stay >= 0, but matched edge k is no longer tight
            with pytest.raises(AssertionError, match="matched edge"):
                _certify(eu, ev, ew, matched, loose, blossoms)
        with pytest.raises(AssertionError, match="negative slack"):
            _certify(eu, ev, [x + 10.0 for x in ew], matched, u, blossoms)
        free = [x for x in range(n) if all(x not in (eu[k], ev[k]) for k in matched)]
        for x in free[:1]:
            raised = list(u)
            raised[x] += 1.0
            with pytest.raises(AssertionError, match="unmatched vertex"):
                _certify(eu, ev, ew, matched, raised, blossoms)
        for i in [i for i, (_, z) in enumerate(blossoms) if z > 0.0][:1]:
            negative = list(blossoms)
            negative[i] = (blossoms[i][0], -1.0)
            with pytest.raises(AssertionError, match="dual is negative"):
                _certify(eu, ev, ew, matched, u, negative)
        if matched:
            with pytest.raises(AssertionError, match="matched twice"):
                _certify(eu, ev, ew, matched + matched[:1], u, blossoms)

    @settings(max_examples=200, deadline=None)
    @given(tied_graphs(), st.randoms(use_true_random=False))
    def test_independent_of_node_and_edge_order(self, graph, rnd):
        ids, edges = graph
        want = max_weight_matching(ShareabilityNetwork(nodes=ids, edges=edges))
        nodes = list(ids)
        shuffled = [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in edges]
        rnd.shuffle(nodes)
        rnd.shuffle(shuffled)
        assert max_weight_matching(ShareabilityNetwork(nodes=nodes, edges=shuffled)) == want

    def test_components_and_isolated_nodes(self, monkeypatch):
        edges = [
            (10, 11, 3.0), (11, 12, 2.0), (10, 12, 1.0),  # triangle
            (5, 20, 1.0), (20, 30, 5.0), (30, 40, 1.0),  # path
            (1, 50, 2.0),  # single edge
        ]
        sizes = []
        solve = network._blossom

        def spy(n, eu, ev, ew):
            sizes.append(n)
            return solve(n, eu, ev, ew)

        monkeypatch.setattr(network, "_blossom", spy)
        g = ShareabilityNetwork(nodes=[99, 40, 7, 30, 20, 5, 12, 11, 10, 50, 1], edges=edges)
        res = max_weight_matching(g)
        assert res.pairs == [(1, 50), (10, 11), (20, 30)]
        assert res.total_utility == 10.0
        assert res.unmatched == [5, 7, 12, 40, 99]
        # one solve per component, by lowest ride id; isolated rides 7 and 99 get none
        assert sizes == [2, 4, 3]

    def test_duplicate_pair_keeps_larger_weight(self):
        g = ShareabilityNetwork(nodes=[1, 2, 3], edges=[(1, 2, 4.0), (2, 3, 3.0), (1, 2, 2.0)])
        res = max_weight_matching(g)
        assert (res.pairs, res.total_utility) == ([(1, 2)], 4.0)

    def test_no_edges(self):
        res = max_weight_matching(ShareabilityNetwork(nodes=[3, 1, 2], edges=[]))
        assert (res.pairs, res.total_utility, res.unmatched) == ([], 0.0, [1, 2, 3])


class TestOptimalUtility:
    def test_two_rides(self, city21):
        w = synth_commute(city21, 2, seed=32)
        a, b = w.rides
        res = optimal_utility(w.rides, city21)
        assert res.total_utility == pytest.approx(matching_utility(a, b, city21), abs=1e-12)

    def test_dominates_proposal_networks(self, city21):
        w = synth_commute(city21, 60, seed=33)
        opt = optimal_utility(w.rides, city21)
        proposals = closeby(w.rides, 5)
        g = build_network(w.rides, proposals, city21)
        assert max_weight_matching(g).total_utility <= opt.total_utility + 1e-9

    def test_matches_independent_complete_pass(self, city21):
        w = synth_commute(city21, 50, seed=34)
        rides = w.rides
        opt = optimal_utility(rides, city21)
        edges = []
        for i in range(len(rides)):
            for j in range(i + 1, len(rides)):
                u = matching_utility(rides[i], rides[j], city21)
                if u > 0:
                    edges.append((rides[i].id, rides[j].id, u))
        ref = max_weight_matching(ShareabilityNetwork(nodes=[r.id for r in rides], edges=edges))
        assert opt.total_utility == pytest.approx(ref.total_utility, abs=1e-9)

    def test_cap_refused_with_guidance(self, city21, small_workload):
        with pytest.raises(ValueError, match="lower the load or raise optimal_cap"):
            optimal_utility(small_workload.rides, city21, cap=10)

    def test_ledger_accounting(self, city21):
        w = synth_commute(city21, 30, seed=35)
        ledger = RoutingLedger()
        optimal_utility(w.rides, city21, ledger=ledger)
        assert ledger.call_count == 6 * (30 * 29 // 2)
