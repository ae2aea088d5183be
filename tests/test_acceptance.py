"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The heavier data (n=1000 recall workloads, n=500 comparison runs) is built
once per module and shared.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ridematch.baselines import closeby, closeby_haversine
from ridematch.cli import ExperimentConfig, report_to_csv, report_to_json, run_experiment
from ridematch.lshindex import LshConfig, LshIndex, find_potential_matches, suggest_params
from ridematch.network import ShareabilityNetwork, build_network, max_weight_matching, optimal_utility
from ridematch.represent import (
    preprocessing_vector,
    query_vector,
    sparse_inner,
    st_edge_set,
    transform_P_batch,
    transform_Q,
    unit_normalize,
)
from ridematch.roadnet import RoadNetwork, RoutingLedger, build_city_network, build_grid_network
from ridematch.trips import synth_commute
from ridematch.utility import brute_force_topk_all

DATA = Path(__file__).parent / "data"
MAX_DELAY_S = 600.0
TIME_INTERVAL_S = 1200.0
SPACE_PRECISION = 7


def _passline(num, text):
    print(f"\nACCEPTANCE {num}: PASS  {text}")


@pytest.fixture(scope="module")
def city():
    return build_city_network(21, 21, 500.0, seed=42)


@pytest.fixture(scope="module")
def recall_curves(city):
    """Per seed: oracle top-10 and LSH matches for L in {10, 25, 50} at n=1000."""
    t0 = time.perf_counter()
    curves = {10: [], 25: [], 50: []}
    for seed in range(5):
        w = synth_commute(city, 1000, seed=seed)
        oracle = brute_force_topk_all(w.rides, 10, city, MAX_DELAY_S)
        for tables in (10, 25, 50):
            cfg = LshConfig(tables=tables, hash_bits=10, probes=4, dim=128, cp_dim=1,
                            seed=seed * 31 + 7)
            matches, _ = find_potential_matches(w.rides, cfg, SPACE_PRECISION, TIME_INTERVAL_S)
            recall = np.mean([
                len(set(x for x, _ in matches[r.id]) & set(x for x, _ in oracle[r.id])) / 10.0
                for r in w.rides
            ])
            curves[tables].append(recall)
    return curves, time.perf_counter() - t0


@pytest.fixture(scope="module")
def n500_runs(city):
    """Five seeded n=500 morning workloads with per-approach matching totals."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(5):
        w = synth_commute(city, 500, seed=seed)
        rides = w.rides
        opt = optimal_utility(rides, city, MAX_DELAY_S)
        totals = {"optimal": opt.total_utility}
        cfg = LshConfig(tables=50, hash_bits=10, probes=4, dim=128, cp_dim=1, seed=seed * 31 + 7)
        lsh_props, _ = find_potential_matches(rides, cfg, SPACE_PRECISION, TIME_INTERVAL_S)
        for name, props in (
            ("lsh", lsh_props),
            ("closeby", closeby(rides, 10)),
            ("closeby_haversine", closeby_haversine(rides, 10, 1000, MAX_DELAY_S)),
        ):
            g = build_network(rides, props, city, MAX_DELAY_S)
            totals[name] = max_weight_matching(g).total_utility
        totals["ride_cost"] = sum(r.cost for r in rides)
        runs.append(totals)
    return runs, time.perf_counter() - t0


def test_criterion_1_similarity_equivalence():
    """<prep(r), query(q)> equals the set-wise intersection cost, exactly."""
    t0 = time.perf_counter()
    base = build_grid_network(10, 10, 500.0, speed_jitter_seed=4)
    data = base.to_dict()
    for e in data["edges"]:
        e["duration_s"] = float(max(1, round(e["duration_s"])))  # integer seconds
    net = RoadNetwork.from_dict(data)
    w = synth_commute(net, 80, seed=6)
    sets = {
        r.id: st_edge_set(r.routes[0], r.request_time, SPACE_PRECISION, TIME_INTERVAL_S)
        for r in w.rides
    }
    rng = np.random.default_rng(0)
    agree = 0
    for _ in range(500):
        a, b = rng.choice(80, size=2, replace=False)
        ra, rb = w.rides[a], w.rides[b]
        lhs = sparse_inner(preprocessing_vector(sets[ra.id]), query_vector(sets[rb.id]))
        rhs = sum(cost for edge, cost in sets[ra.id].items() if edge in sets[rb.id])
        agree += lhs == rhs
    elapsed = time.perf_counter() - t0
    assert agree == 500
    assert elapsed < 10.0
    _passline(1, f"500/500 exact agreements in {elapsed:.1f}s")


def test_criterion_2_transform_identity():
    """<Q(q), P(p)> == <q, p> within 1e-12 on 10,000 random pairs."""
    rng = np.random.default_rng(1)
    n, d = 10_000, 24
    p = rng.normal(size=(n, d))
    p = p / np.linalg.norm(p, axis=1, keepdims=True) * rng.uniform(0.0, 0.75, size=(n, 1))
    q = rng.normal(size=(n, d))
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    pt = transform_P_batch(p, 2)
    qt = np.stack([transform_Q(row, 2) for row in q])
    lhs = np.einsum("ij,ij->i", qt, pt)
    rhs = np.einsum("ij,ij->i", q, p)
    worst = np.max(np.abs(lhs - rhs))
    assert worst < 1e-12
    _passline(2, f"max |<Q(q),P(p)> - <q,p>| = {worst:.2e} over 10,000 pairs")


def test_criterion_3_lsh_collision_property():
    """Collision rate non-increasing over the angle ladder; exactly 0 at pi."""
    d = 16
    u = np.zeros(d)
    u[0] = 1.0
    angles = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
    probes = []
    for theta in angles:
        v = np.zeros(d)
        v[0] = np.cos(theta)
        v[1] = np.sin(theta)
        probes.append(v)
    probes.append(-u)  # antipodal
    stack = np.stack([u] + probes)
    n_fns = 2000
    collide = np.zeros(len(probes), dtype=np.int64)
    for seed in range(n_fns):
        idx = LshIndex(np.arange(len(stack)), stack, tables=1, hash_bits=1, seed=seed)
        codes = idx._hash_all(stack, want_probes=False)[0][:, 0, 0]
        collide += codes[1:] == codes[0]
    rates = collide / n_fns
    se = 1.0 / math.sqrt(n_fns)
    ladder = rates[:-1]
    violations = [b - a for a, b in zip(ladder, ladder[1:]) if b > a]
    assert rates[0] == 1.0
    assert len(violations) <= 1
    assert all(v <= se for v in violations)
    assert rates[-1] == 0.0  # theta = pi
    _passline(3, "rates " + ", ".join(f"{r:.3f}" for r in ladder) + f"; antipodal {rates[-1]:.0%}")


def test_criterion_4_matching_exactness():
    """Blossom total equals exhaustive enumeration on 100 random graphs."""

    def brute(edges):
        best = 0.0

        def rec(i, used, total):
            nonlocal best
            best = max(best, total)
            for j in range(i, len(edges)):
                u, v, w = edges[j]
                if u not in used and v not in used:
                    rec(j + 1, used | {u, v}, total + w)

        rec(0, set(), 0.0)
        return best

    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        edges = [
            (u, v, float(rng.uniform(0.1, 10.0)))
            for u, v in itertools.combinations(range(n), 2)
            if rng.uniform() < 0.5
        ]
        g = ShareabilityNetwork(nodes=list(range(n)), edges=edges)
        got = max_weight_matching(g).total_utility
        want = brute(edges)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"
    _passline(4, "100/100 graphs match exhaustive enumeration")


def test_criterion_5_routing_call_accounting(city):
    """ledger.call_count == n + 6 * distinct evaluated pairs, exactly."""
    for proposer, label in ((lambda rides: closeby(rides, 8), "closeby"),):
        ledger = RoutingLedger()
        w = synth_commute(city, 150, seed=9, ledger=ledger)
        assert ledger.call_count == 150
        g = build_network(w.rides, proposer(w.rides), city, MAX_DELAY_S, ledger)
        assert ledger.call_count == 150 + 6 * g.evaluated_pairs
    # and through the LSH pipeline
    ledger = RoutingLedger()
    w = synth_commute(city, 120, seed=10, ledger=ledger)
    props, _ = find_potential_matches(
        w.rides, LshConfig(tables=15, hash_bits=8, dim=64, cp_dim=1, seed=3),
        SPACE_PRECISION, TIME_INTERVAL_S,
    )
    g = build_network(w.rides, props, city, MAX_DELAY_S, ledger)
    assert ledger.call_count == 120 + 6 * g.evaluated_pairs
    _passline(5, f"call_count == n + 6E held (last: {ledger.call_count} == 120 + 6*{g.evaluated_pairs})")


def test_criterion_6_recall_vs_oracle(recall_curves):
    """Mean recall@10 >= 0.6 at L=50; recall non-decreasing in L within 1 SE."""
    curves, elapsed = recall_curves
    means = {L: float(np.mean(curves[L])) for L in (10, 25, 50)}
    ses = {L: float(np.std(curves[L], ddof=1) / math.sqrt(len(curves[L]))) for L in (10, 25, 50)}
    assert means[50] >= 0.6, f"recall@10 mean {means[50]:.3f} < 0.6"
    for lo, hi in ((10, 25), (25, 50)):
        diff_se = math.hypot(ses[lo], ses[hi])
        assert means[hi] >= means[lo] - diff_se
    assert elapsed < 300.0
    _passline(
        6,
        f"recall@10 L=10/25/50: {means[10]:.3f}/{means[25]:.3f}/{means[50]:.3f} "
        f"(>=0.6 at L=50), {elapsed:.0f}s",
    )


def test_criterion_7_utility_ordering(n500_runs):
    """Mean totals: LSH >= CLOSEBY-HAVERSINE >= CLOSEBY and LSH >= 0.85 optimal."""
    runs, elapsed = n500_runs
    mean = {k: float(np.mean([r[k] for r in runs])) for k in runs[0]}
    assert mean["lsh"] >= mean["closeby_haversine"] >= mean["closeby"]
    assert mean["lsh"] >= 0.85 * mean["optimal"]
    assert elapsed < 600.0
    _passline(
        7,
        f"lsh {mean['lsh']:.0f} >= ch {mean['closeby_haversine']:.0f} >= cb {mean['closeby']:.0f}; "
        f"lsh/opt = {mean['lsh'] / mean['optimal']:.3f} (>= 0.85), {elapsed:.0f}s",
    )


def test_criterion_8_sharing_potential(n500_runs, city):
    """Optimal matching utility lands in [20%, 60%] of total ride cost."""
    runs, _ = n500_runs
    fractions = [r["optimal"] / r["ride_cost"] for r in runs]
    evening = synth_commute(city, 500, seed=11, mode="evening")
    opt = optimal_utility(evening.rides, city, MAX_DELAY_S)
    fractions.append(opt.total_utility / sum(r.cost for r in evening.rides))
    for frac in fractions:
        assert 0.20 <= frac <= 0.60
    _passline(8, "optimal/total-cost fractions: " + ", ".join(f"{f:.3f}" for f in fractions))


def test_criterion_9_candidate_sublinearity(city):
    """Mean candidates per query grows by < 4x from n=1000 to n=4000."""
    means = {}
    for n in (1000, 4000):
        tables, bits = suggest_params(n, 10, 0.1, 0.5)
        w = synth_commute(city, n, seed=0)
        cfg = LshConfig(tables=tables, hash_bits=bits, probes=4, dim=64, cp_dim=1, seed=13)
        _, summary = find_potential_matches(w.rides, cfg, SPACE_PRECISION, TIME_INTERVAL_S)
        means[n] = summary.mean_candidates
    ratio = means[4000] / means[1000]
    assert ratio < 4.0
    _passline(9, f"candidates/query {means[1000]:.0f} -> {means[4000]:.0f}, ratio {ratio:.2f} < 4")


def test_criterion_10_deterministic_reports():
    """Identical config + seed twice -> byte-identical CSV and JSON reports."""
    raw = json.loads((DATA / "fixture_config.json").read_text())
    raw["scenario"]["csv"] = str(DATA / "trips_sample.csv")
    cfg = ExperimentConfig.from_dict(raw)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    csv1, csv2 = report_to_csv(r1), report_to_csv(r2)
    json1, json2 = report_to_json(r1), report_to_json(r2)
    assert csv1.encode() == csv2.encode()
    assert json1.encode() == json2.encode()
    _passline(10, f"two runs byte-identical ({len(csv1)} CSV bytes, {len(json1)} JSON bytes)")
