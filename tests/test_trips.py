import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ridematch.geo import haversine_km
from ridematch.roadnet import RoutingLedger, route
from ridematch.trips import (
    TripsFormatError,
    load_trips_csv,
    parse_taxi_datetime,
    subsample,
    synth_commute,
    write_trips_csv,
)

HEADER = "tpep_pickup_datetime,pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude\n"
BBOX = (40.70, -74.02, 40.83, -73.85)
WINDOW = (parse_taxi_datetime("2016-06-08 07:00:00"), parse_taxi_datetime("2016-06-08 09:00:00"))


def _write(tmp_path, body):
    path = tmp_path / "trips.csv"
    path.write_text(HEADER + body)
    return path


class TestLoader:
    def test_empty_file(self, tmp_path, city21):
        w = load_trips_csv(_write(tmp_path, ""), BBOX, WINDOW, city21, RoutingLedger())
        assert w.rides == []

    def test_zero_coords_dropped(self, tmp_path, city21):
        body = "2016-06-08 08:00:00,0.0,0.0,-73.99,40.74\n"
        w = load_trips_csv(_write(tmp_path, body), BBOX, WINDOW, city21, RoutingLedger())
        assert w.rides == []
        assert w.skipped["invalid_coord"] == 1

    def test_bbox_and_window_filters(self, tmp_path, city21):
        body = (
            "2016-06-08 08:00:00,-73.99,40.74,-73.95,40.78\n"     # kept
            "2016-06-08 08:00:00,-73.99,40.74,-70.00,40.78\n"     # out of bbox
            "2016-06-08 11:00:00,-73.99,40.74,-73.95,40.78\n"     # out of window
        )
        w = load_trips_csv(_write(tmp_path, body), BBOX, WINDOW, city21, RoutingLedger())
        assert len(w.rides) == 1
        assert w.skipped["out_of_bbox"] == 1
        assert w.skipped["out_of_window"] == 1

    def test_unparsable_counted(self, tmp_path, city21):
        body = "not-a-date,-73.99,40.74,-73.95,40.78\n2016-06-08 08:00:00,oops,40.74,-73.95,40.78\n"
        w = load_trips_csv(_write(tmp_path, body), BBOX, WINDOW, city21, RoutingLedger())
        assert w.rides == []
        assert w.skipped["unparsable"] == 2

    def test_missing_column_names_it(self, tmp_path, city21):
        path = tmp_path / "bad.csv"
        path.write_text("tpep_pickup_datetime,pickup_longitude,pickup_latitude,dropoff_longitude\nx,1,2,3\n")
        with pytest.raises(TripsFormatError, match="dropoff_latitude"):
            load_trips_csv(path, BBOX, WINDOW, city21, RoutingLedger())

    def test_one_routing_call_per_ride(self, tmp_path, city21):
        rows = []
        rng = np.random.default_rng(4)
        for _ in range(7):
            plat, plon = rng.uniform(40.73, 40.80), rng.uniform(-74.0, -73.91)
            dlat, dlon = rng.uniform(40.73, 40.80), rng.uniform(-74.0, -73.91)
            rows.append(f"2016-06-08 08:00:00,{plon:.6f},{plat:.6f},{dlon:.6f},{dlat:.6f}")
        ledger = RoutingLedger()
        w = load_trips_csv(_write(tmp_path, "\n".join(rows) + "\n"), BBOX, WINDOW, city21, ledger)
        assert ledger.call_count == 7
        assert len(w.rides) + w.skipped["same_node"] == 7

    def test_extra_columns_ignored(self, tmp_path, city21):
        path = tmp_path / "extra.csv"
        path.write_text(
            "vendor_id,tpep_pickup_datetime,pickup_longitude,pickup_latitude,"
            "dropoff_longitude,dropoff_latitude,fare\n"
            "2,2016-06-08 08:00:00,-73.99,40.74,-73.95,40.78,12.5\n"
        )
        w = load_trips_csv(path, BBOX, WINDOW, city21, RoutingLedger())
        assert len(w.rides) == 1


class TestSynth:
    def test_deterministic(self, city21):
        a = synth_commute(city21, 40, seed=9)
        b = synth_commute(city21, 40, seed=9)
        assert [(r.pickup, r.dropoff, r.request_time) for r in a.rides] == [
            (r.pickup, r.dropoff, r.request_time) for r in b.rides
        ]

    def test_exact_count_and_valid_routes(self, city21):
        w = synth_commute(city21, 100, seed=1)
        assert len(w.rides) == 100
        for r in w.rides:
            assert r.cost > 0
            assert r.cost == r.routes[0].total_duration
            assert r.pickup_node != r.dropoff_node

    def test_morning_evening_roles_swap(self, city21):
        m = synth_commute(city21, 80, seed=2, mode="morning")
        e = synth_commute(city21, 80, seed=2, mode="evening")

        def spread(points):
            lats = np.array([p.lat for p in points])
            lons = np.array([p.lon for p in points])
            return lats.std() + lons.std()

        # morning: pickups dispersed on corridors, dropoffs tight downtown
        assert spread([r.pickup for r in m.rides]) > spread([r.dropoff for r in m.rides])
        assert spread([r.dropoff for r in e.rides]) > spread([r.pickup for r in e.rides])

    def test_cost_matches_independent_reroute(self, city21, small_workload):
        for r in small_workload.rides[:20]:
            fresh = route(city21, r.pickup, r.dropoff)[0]
            assert abs(fresh.total_duration - r.cost) < 1e-9

    def test_request_times_within_window(self, city21):
        w = synth_commute(city21, 60, seed=5, window=(1000.0, 8200.0))
        for r in w.rides:
            assert 1000.0 <= r.request_time < 8200.0

    def test_invalid_args(self, city21):
        with pytest.raises(ValueError):
            synth_commute(city21, 0)
        with pytest.raises(ValueError):
            synth_commute(city21, 5, mode="noon")


def _python(args, timeout=60):
    """Run the interpreter on args with the package importable; a hang fails
    the test after timeout seconds instead of holding the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


class TestOneHubCity:
    """A city whose hubs are one node snaps every pickup to its dropoff's
    node; synth_commute stops after a bounded number of empty draws."""

    def test_synth_commute_raises_with_the_hub_count(self):
        code = (
            "from ridematch.roadnet import build_city_network\n"
            "from ridematch.trips import synth_commute\n"
            "net = build_city_network(5, 5, 500.0, seed=0, arterial_every=10)\n"
            "assert list(net.hubs) == [0]\n"
            "synth_commute(net, 10, seed=0)\n"
        )
        proc = _python(["-c", code])
        assert proc.returncode == 1
        assert "ValueError: no valid ride in 1000 draws in a row" in proc.stderr
        assert "the network has 1 hub(s)" in proc.stderr

    def test_match_bench_run_exits_with_the_message(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": {"arterial_every": 25}, "scenario": {"synth": {"n": 20}}}))
        proc = _python(["-m", "ridematch.cli", "run", "--config", str(config)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: no valid ride in 1000 draws in a row")
        assert "the network has 1 hub(s)" in proc.stderr


class TestSubsample:
    def test_rate_one_identity(self, small_workload):
        s = subsample(small_workload, 1.0, seed=3)
        assert [r.id for r in s.rides] == [r.id for r in small_workload.rides]

    def test_half(self, small_workload):
        s = subsample(small_workload, 0.5, seed=3)
        assert len(s.rides) == 60
        assert set(r.id for r in s.rides) <= set(r.id for r in small_workload.rides)

    def test_deterministic(self, small_workload):
        a = subsample(small_workload, 0.4, seed=8)
        b = subsample(small_workload, 0.4, seed=8)
        assert [r.id for r in a.rides] == [r.id for r in b.rides]

    def test_round_half_up(self, city21):
        w = synth_commute(city21, 5, seed=0)
        assert len(subsample(w, 0.5, seed=0).rides) == 3

    def test_invalid_rate(self, small_workload):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample(small_workload, rate)


class TestWriteCsv:
    def test_round_trip(self, city21, tmp_path):
        base = parse_taxi_datetime("2016-06-08 07:00:00")
        w = synth_commute(city21, 30, seed=6, window=(base, base + 7200.0))
        path = tmp_path / "out.csv"
        write_trips_csv(w, path)
        with open(path) as f:
            assert len(list(csv.DictReader(f))) == 30
        loaded = load_trips_csv(path, BBOX, (base, base + 7200.0), city21, RoutingLedger())
        assert len(loaded.rides) == 30
        # same snapped endpoints and costs (times are truncated to seconds)
        for a, b in zip(w.rides, loaded.rides):
            assert a.pickup_node == b.pickup_node
            assert a.dropoff_node == b.dropoff_node
            assert abs(haversine_km(a.pickup, b.pickup)) < 1e-4  # 6-decimal CSV coords
            assert abs(a.request_time - b.request_time) < 1.0
