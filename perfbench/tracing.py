"""Spans around the ridematch package's public functions, recorded from outside it.

The package imports names with `from ... import`, so a function is looked up
in the module that calls it; each boundary therefore lists every module
attribute that must be replaced. Spans (name, start, end, parent, run id,
counts) are kept in memory and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import time


def _route_counts(args, kwargs, out):
    return {"requests": len(out), "routes": sum(len(r) for r in out if r is not None)}


def _call_count(args, kwargs, out):
    return {"calls": 1}


def _query_batch_counts(args, kwargs, out):
    _, distinct, raw = out
    return {"queries": len(distinct), "distinct": int(distinct.sum()), "raw": int(raw.sum())}


def _pair_count(args, kwargs, out):
    return {"pairs": len(out)}


def _matching_counts(args, kwargs, out):
    graph = args[0] if args else kwargs["g"]
    return {"calls": 1, "edges": len(graph.edges)}


# metric stem -> (attributes to replace as "module:qualified.name", counter)
BOUNDARIES = {
    "roadnet.distance_matrix": (["ridematch.roadnet:RoadNetwork.distance_matrix"], None),
    "roadnet.route": (
        ["ridematch.roadnet:batch_route_multi", "ridematch.trips:batch_route_multi"],
        _route_counts,
    ),
    "trips.load_csv": (["ridematch.trips:load_trips_csv", "ridematch.cli:load_trips_csv"], None),
    "trips.synth": (["ridematch.trips:synth_commute", "ridematch.cli:synth_commute"], None),
    "represent.edge_set": (["ridematch.represent:st_edge_set", "ridematch.lshindex:st_edge_set"], None),
    "represent.feature_hash": (
        ["ridematch.represent:feature_hash", "ridematch.lshindex:feature_hash"],
        _call_count,
    ),
    "lshindex.build": (["ridematch.lshindex:LshIndex.__init__"], None),
    "lshindex.query_batch": (["ridematch.lshindex:LshIndex.query_batch"], _query_batch_counts),
    "lshindex.query": (["ridematch.lshindex:query"], None),
    "lshindex.find_matches": (
        ["ridematch.lshindex:find_potential_matches", "ridematch.cli:find_potential_matches"],
        None,
    ),
    "baselines.closeby": (["ridematch.baselines:closeby"], None),
    "baselines.haversine": (["ridematch.baselines:haversine_topk"], None),
    "baselines.closeby_haversine": (["ridematch.baselines:closeby_haversine"], None),
    "utility.pairwise": (
        ["ridematch.utility:pairwise_utilities", "ridematch.network:pairwise_utilities"],
        _pair_count,
    ),
    "network.build": (["ridematch.network:build_network", "ridematch.cli:build_network"], None),
    "network.matching": (
        ["ridematch.network:max_weight_matching", "ridematch.cli:max_weight_matching"],
        _matching_counts,
    ),
    "network.optimal": (["ridematch.network:optimal_utility", "ridematch.cli:optimal_utility"], None),
    "cli.run": (["ridematch.cli:run_experiment"], None),
    "cli.report": (["ridematch.cli:emit_report"], None),
    "cli.main": (["ridematch.cli:main"], None),
}


def _resolve(target: str):
    """(owner object, attribute name) for "module:qualified.name"."""
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"traced boundary {target} does not exist")
    return owner, attr


class Tracer:
    """Replaces every boundary with a span-recording wrapper while installed."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        for name, (targets, counter) in BOUNDARIES.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {
                "name": name,
                "start": time.perf_counter() - self.t0,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter() - self.t0
            if counter is not None:
                span["counts"] = counter(args, kwargs, out)
            return out

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self, traced_rounds: int, expected) -> tuple[dict, list[str]]:
        """Per-layer metrics for one set-up plus one average traced round.

        Spans recorded during set-up count in full, spans of the timed rounds
        are divided by the number of traced rounds. Returns (metrics, names of
        expected boundaries that recorded no span).
        """
        def share(span):
            return 1.0 if span["run"] == "setup" else 1.0 / traced_rounds

        total = dict.fromkeys(BOUNDARIES, 0.0)
        own = dict.fromkeys(BOUNDARIES, 0.0)
        seen = dict.fromkeys(BOUNDARIES, 0)
        counts: dict[str, float] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            w = share(span)
            total[span["name"]] += w * (span["end"] - span["start"])
            own[span["name"]] += w * self_s
            seen[span["name"]] += 1
            for key, value in span["counts"].items():
                label = f"{span['name']}.{key}"
                counts[label] = counts.get(label, 0.0) + w * value
        metrics = {}
        for name in BOUNDARIES:
            metrics[f"{name}_s"] = (total[name], "s")
            metrics[f"{name}_self_s"] = (own[name], "s")

        def ratio(a, b):
            return counts.get(a, 0.0) / counts[b] if counts.get(b) else 0.0

        metrics["roadnet.routes_per_ride"] = (ratio("roadnet.route.routes", "roadnet.route.requests"), "count")
        metrics["represent.feature_hash_calls"] = (counts.get("represent.feature_hash.calls", 0.0), "count")
        metrics["lshindex.candidates_per_query"] = (
            ratio("lshindex.query_batch.distinct", "lshindex.query_batch.queries"), "count"
        )
        metrics["lshindex.raw_per_query"] = (ratio("lshindex.query_batch.raw", "lshindex.query_batch.queries"), "count")
        metrics["lshindex.distinct_ratio"] = (
            ratio("lshindex.query_batch.distinct", "lshindex.query_batch.raw"), "fraction"
        )
        metrics["utility.pairs"] = (counts.get("utility.pairwise.pairs", 0.0), "count")
        metrics["network.matching_calls"] = (counts.get("network.matching.calls", 0.0), "count")
        optimal_edges = 0.0
        for span in self.spans:
            parent = span["parent"]
            if span["name"] == "network.matching" and parent is not None:
                if self.spans[parent]["name"] == "network.optimal":
                    optimal_edges += share(span) * span["counts"].get("edges", 0)
        metrics["network.optimal_edges"] = (optimal_edges, "count")
        metrics["trace.spans"] = (float(len(self.spans)), "count")
        silent = [name for name in expected if seen[name] == 0]
        return metrics, silent

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
