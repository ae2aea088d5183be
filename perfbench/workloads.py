"""The benchmark workloads: search (batch, then online queries) and experiment.

Each workload builds its inputs from the seed in `setup`, does one round of
its operation in `round`, and checks the program's outputs in `check`, after
the timed region. It calls the package through module attributes looked up
at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from checks import (
    check_experiment,
    check_online,
    check_rows,
    check_search,
    failed_rows,
    row_value,
)
from oracle import Oracle, cross_check, quality
from tracing import BOUNDARIES

from ridematch import cli, lshindex, represent, roadnet, trips, utility

K = 10
TABLES = 20
HASH_BITS = 8
PROBES = 4
DIM = 64
LSH_SEED = 11
FEATURE_SEED = 101
INDEX_SEED = 202
NORM_TERMS = 2
MAX_NORM = 0.75
SPACE_PRECISION = 7
TIME_INTERVAL_S = 1200.0
SPACING_M = 500.0
CITY_SEED = 42
SAMPLE = 200  # queries cross-checked against the package's brute_force_topk


@dataclass
class Round:
    """One round: its wall time, operations, and the rides it looked up.

    `latencies` holds, per ride in a fixed order, the seconds it waited for
    its matches: each arrival's own query on `search`, the whole batch on
    `experiment`.
    """

    seconds: float
    attempted: int
    failed: int
    rides: int
    search_seconds: float
    latencies: list[float] = field(default_factory=list)


def _sub_seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _points(rides):
    return [(r.pickup.lat, r.pickup.lon, r.dropoff.lat, r.dropoff.lon, r.request_time) for r in rides]


def _sample(n: int) -> list[int]:
    return sorted({int(x) for x in np.linspace(0, n - 1, min(n, SAMPLE))})


class Search:
    """Batch search over a whole pool, then single queries as rides arrive.

    The batch phase is find_potential_matches over a synthetic morning pool,
    no matching. The online phase looks arriving rides up one at a time,
    closed loop, one client, in an index built over the same pool in set-up
    with the public `represent` functions.
    """

    boundaries = (
        "roadnet.route",
        "trips.synth",
        "represent.edge_set",
        "represent.feature_hash",
        "lshindex.build",
        "lshindex.query_batch",
        "lshindex.query",
        "lshindex.find_matches",
    )

    def __init__(self, seed: int, smoke: bool):
        self.pool_seed, self.arrival_seed = _sub_seeds(seed, 2)
        # Over LshIndex._QUERY_CHUNK (1024) rides, so a batch query runs in two chunks.
        self.n = 150 if smoke else 1200
        self.n_arrivals = 20 if smoke else 200
        self.cfg = lshindex.LshConfig(
            tables=TABLES, hash_bits=HASH_BITS, probes=PROBES, dim=DIM, k=K, seed=LSH_SEED
        )

    def _data_vector(self, ride):
        edges = represent.st_edge_set(ride.routes[0], ride.request_time, SPACE_PRECISION, TIME_INTERVAL_S)
        return represent.feature_hash(represent.preprocessing_vector(edges), DIM, FEATURE_SEED)

    def _query_vector(self, ride):
        edges = represent.st_edge_set(ride.routes[0], ride.request_time, SPACE_PRECISION, TIME_INTERVAL_S)
        return represent.feature_hash(represent.query_vector(edges), DIM, FEATURE_SEED)

    def setup(self):
        self.net = roadnet.build_city_network(21, 21, SPACING_M, seed=CITY_SEED)
        self.pool = trips.synth_commute(self.net, self.n, seed=self.pool_seed).rides
        self.arrivals = trips.synth_commute(self.net, self.n_arrivals, seed=self.arrival_seed).rides
        self.raw = np.stack([self._data_vector(r) for r in self.pool])
        data, _ = represent.normalize_dataset(self.raw, MAX_NORM)
        pmat = represent.transform_P_batch(data, NORM_TERMS)
        self.ids = [r.id for r in self.pool]
        self.index = lshindex.LshIndex(self.ids, pmat, TABLES, HASH_BITS, seed=INDEX_SEED, cp_dim=1)

    def round(self) -> Round:
        start = time.perf_counter()
        self.matches, _ = lshindex.find_potential_matches(
            self.pool, self.cfg, SPACE_PRECISION, TIME_INTERVAL_S
        )
        batch = time.perf_counter() - start
        results, queries, latencies, failed = {}, {}, [], 0
        for i, ride in enumerate(self.arrivals):
            t0 = time.perf_counter()
            try:
                q = represent.transform_Q(represent.unit_normalize(self._query_vector(ride)), NORM_TERMS)
                found = lshindex.query(self.index, q, K, PROBES)
            except ValueError:
                failed += 1  # the same arrivals fail in every round
                continue
            latencies.append(time.perf_counter() - t0)
            results[i], queries[i] = found, q
        seconds = time.perf_counter() - start
        self.results, self.queries = results, queries
        return Round(seconds, self.n + self.n_arrivals, failed, self.n, batch, latencies)

    def check(self):
        errors = check_search(self.matches, self.ids, K)
        oracle = Oracle(self.net)
        table = oracle.rides(_points(self.pool))
        for a in _sample(self.n):
            exact = utility.brute_force_topk(self.pool, self.pool[a], K, self.net)
            errors += cross_check(oracle, table, self.ids, a, exact)
        proposals = {a: [c for c, _ in self.matches[rid]] for a, rid in enumerate(self.ids)}
        recall, share = quality(oracle, table, self.ids, proposals, K)
        return errors + self._check_arrivals(), {"recall_at_10": recall, "lsh_utility_fraction": share}

    def _check_arrivals(self):
        # The benchmark's own P(x) and Q(q): one global scale caps data norms
        # at MAX_NORM, then P appends 1/2 - |x|^2 and 1/2 - |x|^4, Q zeros.
        x = self.raw * (MAX_NORM / np.linalg.norm(self.raw, axis=1).max())
        sq = (x * x).sum(axis=1)
        pmat = np.hstack([x, (0.5 - sq)[:, None], (0.5 - sq * sq)[:, None]])
        done = sorted(self.results)  # arrivals whose query did not fail
        qraw = np.stack([self._query_vector(self.arrivals[i]) for i in done])
        qmat = np.hstack([qraw / np.linalg.norm(qraw, axis=1)[:, None], np.zeros((len(qraw), 2))])
        single = [self.results[i] for i in done]
        batch, _, _ = self.index.query_batch(np.stack([self.queries[i] for i in done]), K, PROBES)
        errors, _ = check_online(single, batch, pmat, qmat, self.ids, K)
        return errors


TAXI_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
WINDOW_START = "2016-06-08 07:00:00"
WINDOW_S = 7200.0
ORIGIN = (40.72, -74.0)  # south-west corner of the package's synthetic city


class Experiment:
    """One `match-bench run` on a taxi-schema CSV written by `match-bench synth`."""

    loads = (0.5, 1.0)
    approaches = ("lsh", "closeby", "haversine", "closeby_haversine", "optimal")
    boundaries = tuple(stem for stem in BOUNDARIES if stem != "lshindex.query")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n = 60 if smoke else 300
        self.city = 12 if smoke else 30
        self.csv = workdir / "trips.csv"
        self.config = workdir / "config.json"
        self.report = workdir / "report.json"
        t0 = datetime.strptime(WINDOW_START, TAXI_TIME_FORMAT).replace(tzinfo=timezone.utc).timestamp()
        self.window = [t0, t0 + WINDOW_S]
        extent = (self.city - 1) * SPACING_M / 111_320.0
        self.bbox = [
            ORIGIN[0] - 0.01,
            ORIGIN[1] - 0.01,
            ORIGIN[0] + extent + 0.01,
            ORIGIN[1] + extent / math.cos(math.radians(ORIGIN[0])) + 0.01,
        ]
        self.raw_config = {
            "seed": seed,
            "network": {
                "kind": "city",
                "rows": self.city,
                "cols": self.city,
                "spacing_m": SPACING_M,
                "seed": CITY_SEED,
                "arterial_every": 5,
            },
            "scenario": {"csv": str(self.csv), "bbox": self.bbox, "window": self.window},
            "loads": list(self.loads),
            "approaches": list(self.approaches),
            "k": K,
            "lsh": {"tables": TABLES, "hash_bits": HASH_BITS, "probes": PROBES, "dim": DIM, "seed": LSH_SEED},
            "alternates": 2,
            "timing": "wall",
        }
        self.runs: list[tuple[int, dict | None]] = []  # (exit code, report) per round

    def setup(self):
        size = ["--rows", str(self.city), "--cols", str(self.city), "--net-seed", str(CITY_SEED)]
        args = ["synth", "--mode", "morning", "--n", str(self.n), "--seed", str(self.seed)]
        args += size + ["--window-start", WINDOW_START, "--window-s", str(WINDOW_S)]
        if cli.main(args + ["--out", str(self.csv)]) != 0:
            raise RuntimeError("match-bench synth failed")
        with open(self.config, "w") as f:
            json.dump(self.raw_config, f)

    def round(self) -> Round:
        expected = len(self.loads) * len(self.approaches)
        t0 = time.perf_counter()
        code = cli.main(["run", "--config", str(self.config), "--format", "json", "--out", str(self.report)])
        seconds = time.perf_counter() - t0
        report = None
        if code == 0:
            with open(self.report) as f:
                report = json.load(f)
        self.runs.append((code, report))
        failed = failed_rows(code, report, expected)
        search_ms = row_value(report, 1.0, "lsh", "search_ms") if report else None
        if search_ms is None:
            return Round(seconds, expected, failed, 0, 0.0, [])
        n = row_value(report, 1.0, "lsh", "n_rides")
        return Round(seconds, expected, failed, n, search_ms / 1000.0, [search_ms / 1000.0] * n)

    def _written(self):
        with open(self.csv, newline="") as f:
            rows = list(csv.DictReader(f))
        points = []
        for r in rows:
            t = datetime.strptime(r["tpep_pickup_datetime"], TAXI_TIME_FORMAT)
            points.append(
                (
                    float(r["pickup_latitude"]),
                    float(r["pickup_longitude"]),
                    float(r["dropoff_latitude"]),
                    float(r["dropoff_longitude"]),
                    t.replace(tzinfo=timezone.utc).timestamp(),
                )
            )
        return points

    def check(self):
        points = self._written()
        net = roadnet.build_city_network(self.city, self.city, SPACING_M, seed=CITY_SEED)
        oracle = Oracle(net)
        table = oracle.rides(points)
        greedy = oracle.greedy_total(table)
        expected = len(self.loads) * len(self.approaches)
        reports = [report for _, report in self.runs if report is not None]
        errors = [] if reports else ["no match-bench run wrote a report"]
        for code, report in self.runs:
            errors += check_rows(code, report, expected)
        for report in reports:
            errors += check_experiment(report, len(points), greedy)
        # Recall: the LSH proposals of load 1.0, which holds every ride,
        # recomputed through the library with the experiment's own settings.
        rides = trips.load_trips_csv(
            self.csv, tuple(self.bbox), tuple(self.window), net, roadnet.RoutingLedger(), alternates=2
        ).rides
        if len(rides) != len(points):
            return errors + [f"{len(points) - len(rides)} written rides not loaded"], {}
        lsh_cfg = cli.ExperimentConfig.from_dict(self.raw_config).lsh_config()
        matches, _ = lshindex.find_potential_matches(rides, lsh_cfg, SPACE_PRECISION, TIME_INTERVAL_S)
        ids = [r.id for r in rides]
        errors += check_search(matches, ids, K)
        proposals = {a: [c for c, _ in matches[rid]] for a, rid in enumerate(ids)}
        recall, _ = quality(oracle, table, ids, proposals, K)
        fractions = []
        for report in reports:
            lsh = row_value(report, 1.0, "lsh", "total_utility_s")
            best = row_value(report, 1.0, "optimal", "total_utility_s")
            if lsh is not None and best:
                fractions.append(lsh / best)
        fraction = float(np.median(fractions)) if fractions else 0.0
        return errors, {"recall_at_10": recall, "lsh_utility_fraction": fraction}
