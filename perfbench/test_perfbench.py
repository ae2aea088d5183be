"""Tests of the benchmark itself: each check must catch a planted error.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import run

run.import_package()

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from ridematch import roadnet, trips, utility  # noqa: E402


def _matches():
    return {0: [(1, 3.0), (2, 2.0)], 1: [(0, 3.0)], 2: [(0, 2.0), (1, 1.0)]}


def test_search_check_passes_valid_lists():
    assert checks.check_search(_matches(), [0, 1, 2], k=2) == []


@pytest.mark.parametrize(
    "plant, expect",
    [
        (lambda m: m[0].append((0, 1.0)), "itself"),
        (lambda m: m[2].reverse(), "not descending"),
        (lambda m: m[1].append((1, 0.5)) or m[1].append((2, 0.1)), "more than k"),
        (lambda m: m[1].append((0, 3.0)), "repeated"),
        (lambda m: m[1].append((9, 1.0)), "unknown"),
        (lambda m: m.pop(2), "no match list"),
    ],
)
def test_search_check_catches_planted_error(plant, expect):
    m = _matches()
    plant(m)
    errors = checks.check_search(m, [0, 1, 2], k=2)
    assert any(expect in e for e in errors), errors


def _online_case():
    rng = np.random.default_rng(0)
    pmat = rng.normal(size=(30, 8))
    qmat = rng.normal(size=(4, 8))
    ids = list(range(100, 130))
    single = []
    for q in qmat:
        top = checks.mips_topk(pmat, q, 5)
        single.append([(ids[r], float(pmat[r] @ q)) for r in top])
    return single, copy.deepcopy(single), pmat, qmat, ids


def test_online_check_passes_exact_results():
    single, batch, pmat, qmat, ids = _online_case()
    errors, recall = checks.check_online(single, batch, pmat, qmat, ids, 5)
    assert errors == [] and recall == 1.0


def test_online_check_catches_wrong_score():
    single, batch, pmat, qmat, ids = _online_case()
    rid, score = single[1][0]
    single[1][0] = (rid, score + 1e-6)
    batch[1][0] = (rid, score + 1e-6)
    errors, _ = checks.check_online(single, batch, pmat, qmat, ids, 5)
    assert any("inner product" in e for e in errors), errors


def test_online_check_catches_single_batch_mismatch():
    single, batch, pmat, qmat, ids = _online_case()
    batch[2] = batch[2][:-1]
    errors, _ = checks.check_online(single, batch, pmat, qmat, ids, 5)
    assert any("differs from query_batch" in e for e in errors), errors


def test_online_check_catches_low_recall():
    single, batch, pmat, qmat, ids = _online_case()
    single = [s[:1] for s in single]
    errors, recall = checks.check_online(single, single, pmat, qmat, ids, 5)
    assert recall == pytest.approx(0.2)
    assert any("below the floor" in e for e in errors), errors


def _row(load, approach, total, n=10, pairs=20, status="ok"):
    return {
        "load": load,
        "approach": approach,
        "status": status,
        "n_rides": n,
        "total_utility_s": total,
        "evaluated_pairs": pairs,
        "routing_calls": n + 6 * pairs,
    }


def _report():
    return {
        "meta": {"n_rides_full": 10},
        "rows": [
            _row(0.5, "lsh", 40.0, n=5, pairs=8),
            _row(0.5, "optimal", 50.0, n=5, pairs=10),
            _row(1.0, "lsh", 90.0),
            _row(1.0, "closeby", 70.0),
            _row(1.0, "optimal", 100.0, pairs=45),
        ],
    }


def test_experiment_check_passes_consistent_report():
    assert checks.check_experiment(_report(), 10, greedy_full=80.0) == []


def test_experiment_check_catches_optimal_below_approach():
    report = _report()
    report["rows"][0]["total_utility_s"] = 55.0
    errors = checks.check_experiment(report, 10, greedy_full=80.0)
    assert any("above the optimal" in e for e in errors), errors


def test_experiment_check_catches_routing_calls():
    report = _report()
    report["rows"][3]["routing_calls"] += 1
    errors = checks.check_experiment(report, 10, greedy_full=80.0)
    assert any("routing_calls" in e for e in errors), errors


def test_experiment_check_catches_dropped_rides():
    errors = checks.check_experiment(_report(), 11, greedy_full=80.0)
    assert any("n_rides_full" in e for e in errors), errors


@pytest.mark.parametrize("greedy", [120.0, 40.0])
def test_experiment_check_catches_optimal_outside_greedy_bounds(greedy):
    errors = checks.check_experiment(_report(), 10, greedy_full=greedy)
    assert any("greedy" in e for e in errors), errors


def test_failed_rows_counts_status_and_exit_code():
    report = _report()
    report["rows"][1]["status"] = "failed: ValueError"
    assert checks.failed_rows(0, report, 5) == 1
    assert checks.failed_rows(1, None, 5) == 5


def test_row_check_passes_a_whole_run():
    assert checks.check_rows(0, _report(), 5) == []


def test_row_check_catches_failed_row():
    report = _report()
    report["rows"][1]["status"] = "failed: ValueError"
    errors = checks.check_rows(0, report, 5)
    assert any("failed: ValueError" in e for e in errors), errors


def test_row_check_catches_missing_row_and_exit_code():
    report = _report()
    report["rows"].pop()
    assert any("expected 5" in e for e in checks.check_rows(0, report, 5))
    assert any("exited with code 1" in e for e in checks.check_rows(1, None, 5))


@pytest.fixture(scope="module")
def small_city():
    net = roadnet.build_city_network(8, 8, 500.0, seed=3)
    rides = trips.synth_commute(net, 60, seed=5).rides
    exact = oracle.Oracle(net)
    points = [(r.pickup.lat, r.pickup.lon, r.dropoff.lat, r.dropoff.lon, r.request_time) for r in rides]
    return net, rides, exact, exact.rides(points)


def test_oracle_agrees_with_brute_force_topk(small_city):
    net, rides, exact, table = small_city
    ids = [r.id for r in rides]
    for a in range(0, len(rides), 7):
        assert oracle.cross_check(exact, table, ids, a, utility.brute_force_topk(rides, rides[a], 10, net)) == []


def test_oracle_cross_check_catches_wrong_utility(small_city):
    net, rides, exact, table = small_city
    ids = [r.id for r in rides]
    top = utility.brute_force_topk(rides, rides[0], 10, net)
    top[0] = (top[0][0], top[0][1] + 1e-3)
    assert oracle.cross_check(exact, table, ids, 0, top)


def test_oracle_greedy_is_a_half_approximation(small_city):
    net, rides, exact, table = small_city
    from ridematch.network import optimal_utility

    best = optimal_utility(rides, net).total_utility
    greedy = exact.greedy_total(table)
    assert greedy <= best * (1 + 1e-9) <= 2 * greedy * (1 + 1e-9)


def test_quality_scores_perfect_and_empty_proposals(small_city):
    net, rides, exact, table = small_city
    ids = [r.id for r in rides]
    queries = list(range(0, len(rides), 5))
    perfect = {a: [ids[p] for p, u in zip(*exact.topk(table, a, 10)) if u > 0] for a in queries}
    assert oracle.quality(exact, table, ids, perfect, 10) == (1.0, 1.0)
    assert oracle.quality(exact, table, ids, {a: [] for a in queries}, 10) == (0.0, 0.0)


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    monkeypatch.setitem(tracing.BOUNDARIES, "roadnet.gone", (["ridematch.roadnet:no_such_function"], None))
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()


def test_tracer_self_time_excludes_children_and_restores_originals():
    original = trips.batch_route_multi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        net = roadnet.build_city_network(6, 6, 500.0, seed=1)
        tracer.run_id = "round-0"
        trips.synth_commute(net, 20, seed=2)
    finally:
        tracer.uninstall()
    assert trips.batch_route_multi is original
    metrics, silent = tracer.layer_metrics(1, ["trips.synth", "roadnet.route", "cli.main"])
    assert silent == ["cli.main"]
    synth, own = metrics["trips.synth_s"][0], metrics["trips.synth_self_s"][0]
    assert 0 < own < synth
    assert own == pytest.approx(synth - metrics["roadnet.route_s"][0])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
