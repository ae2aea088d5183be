import csv
import inspect
import io
import json
from pathlib import Path

import pytest

from ridematch import cli
from ridematch.cli import (
    ConfigError,
    ExperimentConfig,
    emit_report,
    main,
    report_to_csv,
    report_to_json,
    run_experiment,
    ExperimentReport,
)
from ridematch.lshindex import LshConfig
from ridematch.roadnet import RoutingLedger

DATA = Path(__file__).parent / "data"


def fixture_config():
    raw = json.loads((DATA / "fixture_config.json").read_text())
    raw["scenario"]["csv"] = str(DATA / "trips_sample.csv")
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def fixture_report():
    return run_experiment(fixture_config())


class TestConfigValidation:
    def test_collects_all_errors(self):
        raw = {
            "scenario": {},
            "loads": [0.0, 2.0],
            "k": 0,
            "approaches": ["lsh", "psychic"],
            "timing": "sundial",
        }
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        messages = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 5
        assert "scenario" in messages
        assert "psychic" in messages
        assert "timing" in messages

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_dict({"scenario": {"synth": {}}, "typo_key": 1})

    def test_csv_scenario_requires_bbox_window(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"scenario": {"csv": "x.csv"}})
        joined = " ".join(exc.value.errors)
        assert "bbox" in joined and "window" in joined

    def test_valid_config_passes(self):
        cfg = fixture_config()
        assert cfg.k == 10
        assert cfg.lsh_config().tables == 20

    def test_lsh_cp_dim_passed_through(self):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["lsh"]["cp_dim"] = 16
        assert ExperimentConfig.from_dict(raw).lsh_config().cp_dim == 16

    def test_every_lsh_key_reaches_its_field(self):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["lsh"] = {
            "tables": 3, "hash_bits": 5, "probes": 2, "dim": 32, "cp_dim": 4,
            "m": 3, "U": 0.5, "seed": 99, "k": 7,
        }
        assert ExperimentConfig.from_dict(raw).lsh_config() == LshConfig(
            tables=3, hash_bits=5, probes=2, dim=32, cp_dim=4,
            norm_terms=3, max_norm=0.5, seed=99, k=7,
        )

    def test_no_lsh_section_gives_the_library_defaults(self):
        # only the seed and k come from the config; every other field is LshConfig's
        for k in (None, 4):
            raw = {"scenario": {"synth": {}}, "seed": 5, **({} if k is None else {"k": k})}
            cfg = ExperimentConfig.from_dict(raw)
            assert cfg.lsh_config() == LshConfig(seed=cli._stage_seed(5, "lsh"), k=k or LshConfig.k)
        cfg = ExperimentConfig.from_dict({"scenario": {"synth": {}}})
        assert (cfg.k, cfg.max_delay_s, cfg.space_precision, cfg.time_interval_s) == (
            LshConfig.k, 600.0, 7, 1200.0,
        )

    def test_every_network_and_synth_key_reaches_its_argument(self, monkeypatch):
        calls = {}
        for name in ("build_city_network", "build_grid_network", "synth_commute"):
            def record(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] = inspect.signature(_fn).bind(*args, **kwargs).arguments
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, record)
        network = {"rows": 8, "cols": 9, "spacing_m": 400.0, "seed": 5, "arterial_every": 4}
        synth = {
            "mode": "evening", "n": 12, "seed": 9, "hotspots": 3, "spread_m": 50.0,
            "window": [100.0, 4000.0], "pulse_s": None, "pulse_offset": 10.0, "pulse_spread": 20.0,
        }
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["network"] = {"kind": "city", **network}
        raw["scenario"] = {"synth": synth}
        cfg = ExperimentConfig.from_dict(raw)
        workload = cli._build_workload(cfg, cli._build_net(cfg.network), RoutingLedger())
        assert len(workload.rides) == 12
        city = calls["build_city_network"]
        assert {key: city[key] for key in network} == network
        arg = {"hotspots": "hotspot_count"}
        assert {key: calls["synth_commute"][arg.get(key, key)] for key in synth} == synth
        raw["network"] = {"kind": "grid", "rows": 3, "cols": 4, "spacing_m": 250.0, "seed": 6}
        cli._build_net(ExperimentConfig.from_dict(raw).network)
        grid = calls["build_grid_network"]
        assert (grid["rows"], grid["cols"], grid["spacing_m"], grid["speed_jitter_seed"]) == (3, 4, 250.0, 6)

    def test_network_default_is_the_21x21_city(self, city21):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"] = {"synth": {"n": 5}}
        raw["network"] = {}
        with_empty = cli._build_net(ExperimentConfig.from_dict(raw).network)
        del raw["network"]
        without = cli._build_net(ExperimentConfig.from_dict(raw).network)
        assert without.to_dict() == with_empty.to_dict() == city21.to_dict()

    def test_unknown_lsh_key_rejected_with_other_errors(self):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["lsh"]["tabels"] = 9
        raw["k"] = 0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        messages = "\n".join(exc.value.errors)
        assert "unknown lsh key 'tabels'" in messages
        assert "k must be >= 1, got 0" in messages


class TestRunExperiment:
    def test_fixture_rows(self, fixture_report):
        rows = fixture_report.rows
        assert [r["approach"] for r in rows] == ["lsh", "closeby", "closeby_haversine", "optimal"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["n_rides"] == 200 for r in rows)
        closeby_row = rows[1]
        assert closeby_row["total_utility_s"] > 0

    def test_fractions_bounded_by_optimal(self, fixture_report):
        for row in fixture_report.rows:
            assert row["utility_fraction_of_optimal"] <= 1.0 + 1e-12

    def test_call_accounting_identity(self, fixture_report):
        for row in fixture_report.rows:
            n = row["n_rides"]
            e = row["evaluated_pairs"]
            assert row["routing_calls"] == n + 6 * e

    def test_timing_none_zeroes_phases(self, fixture_report):
        for row in fixture_report.rows:
            assert row["search_ms"] == 0.0
            assert row["network_build_ms"] == 0.0

    def test_failure_isolation(self, city21):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"] = {"synth": {"n": 30, "seed": 1}}
        raw["approaches"] = ["optimal", "closeby"]
        raw["optimal_cap"] = 5  # forces the optimal approach to fail
        report = run_experiment(ExperimentConfig.from_dict(raw))
        statuses = {r["approach"]: r["status"] for r in report.rows}
        assert statuses["optimal"].startswith("failed")
        assert statuses["closeby"] == "ok"

    def test_infinite_delay_runs_every_approach(self):
        # json.load reads `Infinity`, and the schema takes it as no time limit
        raw = json.loads((DATA / "fixture_config.json").read_text().replace("600.0", "Infinity"))
        raw["scenario"] = {"synth": {"n": 30, "seed": 1}}
        raw["approaches"] = ["lsh", "closeby", "optimal"]
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert [r["status"] for r in report.rows] == ["ok", "ok", "ok"]
        lsh = report.rows[0]
        assert lsh["mean_candidates"] > 0 and lsh["total_utility_s"] > 0

    def test_failure_status_carries_message(self):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"] = {"synth": {"n": 30, "seed": 1}}
        raw["approaches"] = ["optimal"]
        raw["optimal_cap"] = 5
        (row,) = run_experiment(ExperimentConfig.from_dict(raw)).rows
        assert row["status"].startswith(
            "failed: ValueError: optimal baseline is O(n^2) and capped at 5 rides (got 30)"
        )


class TestEmit:
    def test_json_and_csv_same_values(self, fixture_report):
        csv_text = report_to_csv(fixture_report)
        json_rows = json.loads(report_to_json(fixture_report))["rows"]
        lines = csv_text.strip().split("\n")
        header = lines[0].split(",")
        for line, jrow in zip(lines[1:], json_rows):
            cells = line.split(",")
            for col, cell in zip(header, cells):
                jval = jrow[col]
                if cell == "":
                    assert jval is None
                elif isinstance(jval, float):
                    assert float(cell) == pytest.approx(jval, rel=1e-9)
                else:
                    assert str(jval) == cell

    def test_csv_quotes_cell_with_comma(self):
        status = "failed: KeyError: 'a, b'"
        report = ExperimentReport(rows=[{"approach": "lsh", "status": status}], meta={})
        header, row = csv.reader(io.StringIO(report_to_csv(report)))
        assert len(row) == len(header)
        assert row[header.index("status")] == status

    def test_empty_report_header_only(self):
        text = report_to_csv(ExperimentReport(rows=[], meta={}))
        assert text.count("\n") == 1
        assert text.startswith("scenario,load,approach")

    def test_emit_writes_file(self, fixture_report, tmp_path):
        out = tmp_path / "r.csv"
        text = emit_report(fixture_report, "csv", out)
        assert out.read_text() == text

    def test_bad_format_rejected(self, fixture_report):
        with pytest.raises(ValueError):
            emit_report(fixture_report, "xml")

    def test_golden_snapshot(self, fixture_report):
        # regression pin for this environment (report values are exact
        # reproductions; timings are zeroed by the fixture config)
        golden = (DATA / "golden_report.csv").read_text()
        assert report_to_csv(fixture_report) == golden

    def test_golden_json_snapshot(self, fixture_report):
        golden = (DATA / "golden_report.json").read_text()
        assert report_to_json(fixture_report) == golden


class TestMain:
    def test_run_roundtrip(self, tmp_path):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"] = {"synth": {"n": 25, "seed": 2}}
        raw["approaches"] = ["closeby"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("scenario,")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scenario": {}, "loads": []}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["k"] = "10"
        cfg_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error: k must be an integer, got '10'" in capsys.readouterr().err
        for key, value in (("alternates", 0), ("optimal_cap", -5)):
            raw = json.loads((DATA / "fixture_config.json").read_text())
            raw[key] = value
            cfg_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert f"config error: {key} must be >= 1, got {value}" in capsys.readouterr().err
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["lsh"]["tabels"] = 9
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error: unknown lsh key 'tabels'" in capsys.readouterr().err
        for key, value, message in (
            ("probes", 0, "lsh.probes must be >= 1, got 0"),
            ("hash_bits", 0, "lsh.hash_bits must be >= 1, got 0"),
            ("cp_dim", 0, "lsh.cp_dim must be >= 1, got 0"),
            ("cp_dim", 129, "lsh.cp_dim must be in [1, 128] (the padded width of dim + m), got 129"),
            ("dim", 60, "lsh.dim must be a power of two >= 2, got 60"),
            ("tables", "4", "lsh.tables must be an integer, got '4'"),
            ("m", 0, "lsh.m must be >= 1, got 0"),
            ("k", True, "lsh.k must be an integer, got True"),
            ("U", 1.0, "lsh.U must be in (0, 1), got 1.0"),
            ("seed", 1.5, "lsh.seed must be an integer, got 1.5"),
            ("center", False, "unknown lsh key 'center'"),
        ):
            raw = json.loads((DATA / "fixture_config.json").read_text())
            raw["lsh"][key] = value
            cfg_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
        for section, key, value, message in (
            ("network", "rows", "21", "network.rows must be an integer, got '21'"),
            ("network", "cols", 1, "network.cols must be >= 2, got 1"),
            ("network", "rows", True, "network.rows must be an integer, got True"),
            ("network", "kind", "town", 'network.kind must be "city" or "grid", got \'town\''),
            ("network", "kind", 1, "network.kind must be a string, got 1"),
            ("network", "json", 5, "network.json must be a string, got 5"),
            ("network", "spacing_m", 0, "network.spacing_m must be positive, got 0"),
            ("network", "spacing_m", "500", "network.spacing_m must be a number, got '500'"),
            ("network", "seed", 4.2, "network.seed must be an integer, got 4.2"),
            ("network", "arterial_every", 0, "network.arterial_every must be >= 1, got 0"),
            ("network", "colums", 21, "unknown network key 'colums'"),
            ("baseline", "m_candidates", "1000", "baseline.m_candidates must be an integer, got '1000'"),
            ("baseline", "m_candidates", 9, "baseline.m_candidates must be >= k (10), got 9"),
            ("baseline", "m_candidtes", 1000, "unknown baseline key 'm_candidtes'"),
            ("baseline", "nominal_speed_mps", 0, "baseline.nominal_speed_mps must be positive, got 0"),
            ("baseline", "nominal_speed_mps", "8", "baseline.nominal_speed_mps must be a number, got '8'"),
        ):
            raw = json.loads((DATA / "fixture_config.json").read_text())
            raw[section][key] = value
            cfg_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
        csv_scenario = json.loads((DATA / "fixture_config.json").read_text())["scenario"]
        for key, value, message in (
            ("scenario", {**csv_scenario, "bbox": 5}, "scenario.bbox must be a list, got 5"),
            ("scenario", {**csv_scenario, "bbox": ["a", "b", "c", "d"]},
             "scenario.bbox must be 4 numbers [minlat, minlon, maxlat, maxlon], got ['a', 'b', 'c', 'd']"),
            ("scenario", {**csv_scenario, "utc_offset_hours": "x"},
             "scenario.utc_offset_hours must be a number, got 'x'"),
            ("scenario", {**csv_scenario, "utc_ofset_hours": 1.0}, "unknown scenario key 'utc_ofset_hours'"),
            ("scenario", {"synth": {"n": "30"}}, "scenario.synth.n must be an integer, got '30'"),
            ("scenario", {"synth": {"window": 5}}, "scenario.synth.window must be a list, got 5"),
            ("scenario", {"synth": []}, "scenario.synth must be an object, got []"),
            ("scenario", {"synth": {"hotspot_count": 3}}, "unknown scenario.synth key 'hotspot_count'"),
            ("loads", 5, "loads must be a list, got 5"),
            ("approaches", 5, "approaches must be a list, got 5"),
        ):
            raw = json.loads((DATA / "fixture_config.json").read_text())
            raw[key] = value
            cfg_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["network"] = ["city"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error: network must be an object, got ['city']" in capsys.readouterr().err
        for top, shown in (([], "[]"), ("x", "'x'")):
            cfg_path.write_text(json.dumps(top))
            for override in ([], ["--synth", "evening"], ["--trips", "trips.csv"]):
                assert main(["run", "--config", str(cfg_path), *override]) == 2
                assert f"config error: the config must be an object, got {shown}" in capsys.readouterr().err
        # an override leaves a section that is not an object to the schema check
        for raw, override, message in (
            ({"scenario": "x"}, ["--synth", "evening"], "scenario must be an object, got 'x'"),
            ({"scenario": "x"}, ["--trips", "foo.csv"], "scenario must be an object, got 'x'"),
            ({"scenario": {"synth": 5}}, ["--synth", "evening"], "scenario.synth must be an object, got 5"),
        ):
            cfg_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(cfg_path), *override]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
        for flags, message in (
            (["--n", "0"], "scenario.synth.n must be >= 1, got 0"),
            (["--rows", "1"], "network.rows must be >= 2, got 1"),
            (["--hotspots", "0"], "scenario.synth.hotspots must be >= 1, got 0"),
            (["--spread-m", "-5"], "scenario.synth.spread_m must be >= 0, got -5.0"),
        ):
            assert main(["synth", "--out", str(tmp_path / "trips.csv"), *flags]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "trips.csv").exists()
        # every error at once; cp_dim's bound is not judged against a bad dim
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["lsh"].update({"probes": 0, "dim": 60, "cp_dim": 500, "center": "yes"})
        raw["k"] = 0
        raw["network"].update({"rows": "21", "kind": "town", "size": 3})
        raw["baseline"].update({"m_candidates": -3, "speed": 8.0})
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        for message in ("k must be >= 1, got 0", "lsh.probes must be >= 1, got 0",
                        "lsh.dim must be a power of two >= 2, got 60", "unknown lsh key 'center'",
                        "network.rows must be an integer, got '21'", "network.kind must be \"city\" or \"grid\"",
                        "unknown network key 'size'", "unknown baseline key 'speed'"):
            assert message in err
        # neither is judged against a bad dim or k
        assert "lsh.cp_dim" not in err and "baseline.m_candidates" not in err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_trips_override_flag(self, tmp_path):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"].pop("csv")
        raw["scenario"]["synth"] = {"n": 10, "seed": 1}
        raw["approaches"] = ["closeby"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--config", str(cfg_path),
            "--trips", str(DATA / "trips_sample.csv"),
            "--out", str(out),
        ])
        assert code == 0
        assert ",200," in out.read_text()  # the 200-row fixture, not the synth 10

    def test_synth_override_flag(self, tmp_path):
        raw = json.loads((DATA / "fixture_config.json").read_text())
        raw["scenario"] = {"synth": {"n": 15, "seed": 2, "mode": "morning"}}
        raw["approaches"] = ["closeby"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg_path), "--synth", "evening", "--out", str(out)]) == 0
        assert "synth-evening" in out.read_text()

    def test_synth_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "trips.csv"
        code = main(["synth", "--n", "40", "--seed", "3", "--out", str(out)])
        assert code == 0
        from ridematch.roadnet import RoutingLedger, build_city_network
        from ridematch.trips import load_trips_csv, parse_taxi_datetime

        net = build_city_network(21, 21, 500.0, seed=42)
        t0 = parse_taxi_datetime("2016-06-08 07:00:00")
        w = load_trips_csv(
            out, (40.71, -74.01, 40.82, -73.87), (t0, t0 + 7200.0), net, RoutingLedger()
        )
        assert len(w.rides) == 40
