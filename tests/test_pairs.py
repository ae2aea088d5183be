import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "query_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "search_rides_per_s", "unit": "rides/s", "better": "higher"},
    {"name": "recall_at_10", "unit": "fraction", "better": "higher"},
]


def _run(p50, rate, recall, correct=True):
    values = {"query_p50_ms": p50, "search_rides_per_s": rate, "recall_at_10": recall}
    return {"correct": correct, "failed": 0, "metrics": {k: {"value": v} for k, v in values.items()}}


def test_parse_seeds():
    assert pairs.parse_seeds("501-504") == [501, 502, 503, 504]
    assert pairs.parse_seeds("1,5, 9") == [1, 5, 9]
    assert pairs.parse_seeds("1-2,7") == [1, 2, 7]


def test_summary_scores_each_metric_by_its_direction():
    runs = {
        "search": {
            "parent": {"1": _run(0.4, 100.0, 0.5), "2": _run(0.5, 120.0, 0.6), "3": _run(0.3, 90.0, 0.7)},
            "change": {"1": _run(0.3, 110.0, 0.5), "2": _run(0.6, 100.0, 0.6), "3": _run(0.2, 95.0, 0.7, False)},
        }
    }
    s = pairs.summarize(runs, METRICS)["search"]
    # lower is better: seeds 1 and 3 won; higher is better: seeds 1 and 3 won
    assert s["query_p50_ms"]["change_better_pairs"] == 2
    assert s["search_rides_per_s"]["change_better_pairs"] == 2
    assert s["recall_at_10"]["change_better_pairs"] == 0
    assert s["recall_at_10"]["equal_pairs"] == 3
    assert s["query_p50_ms"]["parent"] == {"median": 0.4, "q1": pytest.approx(0.35), "q3": pytest.approx(0.45)}
    assert s["query_p50_ms"]["change"]["median"] == 0.3
    assert s["query_p50_ms"]["median_ratio"] == pytest.approx(0.75)
    assert s["failed_runs"] == {"parent": [], "change": ["3"]}


def test_summary_pairs_only_seeds_both_sides_ran():
    runs = {"experiment": {"parent": {"1": _run(1.0, 1.0, 1.0), "2": _run(2.0, 2.0, 2.0)},
                           "change": {"1": {"correct": False, "error": "boom"}, "2": _run(1.0, 3.0, 2.0)}}}
    s = pairs.summarize(runs, METRICS)["experiment"]
    assert s["query_p50_ms"]["pairs"] == 1
    assert s["query_p50_ms"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert s["failed_runs"]["change"] == ["1"]


def test_layers_set_each_sides_traced_metrics_side_by_side():
    per_layer = [{"name": "lshindex.query_batch_s"}, {"name": "lshindex.candidates_per_query"},
                 {"name": "network.matching_s"}]

    def traced(batch, cands):
        return {"metrics": {"lshindex.query_batch_s": {"value": batch},
                            "lshindex.candidates_per_query": {"value": cands}}}

    out = pairs.layers({"search": {"parent": traced(0.2, 0.0), "change": traced(0.1, 75.0)}}, per_layer)
    assert out == {"search": {
        "lshindex.query_batch_s": {"parent": 0.2, "change": 0.1, "ratio": 0.5},
        "lshindex.candidates_per_query": {"parent": 0.0, "change": 75.0, "ratio": None},
    }}
