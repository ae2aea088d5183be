"""Experiment harness: config, scenario execution, metrics, report emission.

Reports one row per (load, approach) with utilities, phase timings, and
routing-call accounting. `match-bench run` executes a JSON config;
`match-bench synth` writes a synthetic workload in the taxi CSV schema.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from hashlib import blake2b

from . import baselines
from .lshindex import LshConfig, find_potential_matches
from .network import build_network, max_weight_matching, optimal_utility
from .roadnet import RoadNetwork, RoutingLedger, build_city_network, build_grid_network
from .trips import Workload, load_trips_csv, parse_taxi_datetime, subsample, synth_commute, write_trips_csv

APPROACHES = ("lsh", "closeby", "haversine", "closeby_haversine", "optimal")

REPORT_COLUMNS = (
    "scenario",
    "load",
    "approach",
    "status",
    "n_rides",
    "total_utility_s",
    "utility_fraction_of_optimal",
    "search_ms",
    "network_build_ms",
    "routing_calls",
    "routing_batches",
    "routing_latency_ms",
    "evaluated_pairs",
    "network_edges",
    "matched_pairs",
    "mean_candidates",
    "degenerate_rides",
)


# Numeric top-level config fields: (accepted types, valid-range check, what the range is).
_NUMERIC_FIELDS = {
    "k": (int, lambda v: v >= 1, ">= 1"),
    "max_delay_s": ((int, float), lambda v: v > 0, "positive"),
    "space_precision": (int, lambda v: 1 <= v <= 12, "in [1, 12]"),
    "time_interval_s": ((int, float), lambda v: v > 0, "positive"),
    "alternates": (int, lambda v: v >= 1, ">= 1"),
    "optimal_cap": (int, lambda v: v >= 1, ">= 1"),
    "seed": (int, None, None),
}

# Accepted keys of the "lsh" config section -> (the LshConfig field each sets,
# accepted types, valid-range check, what the range is). cp_dim's upper bound
# depends on dim and m, so from_dict checks it apart.
_LSH_FIELDS = {
    "tables": ("tables", int, lambda v: v >= 1, ">= 1"),
    "hash_bits": ("hash_bits", int, lambda v: v >= 1, ">= 1"),
    "probes": ("probes", int, lambda v: v >= 1, ">= 1"),
    "dim": ("dim", int, lambda v: v >= 2 and v & (v - 1) == 0, "a power of two >= 2"),
    "cp_dim": ("cp_dim", int, lambda v: v >= 1, ">= 1"),
    "m": ("norm_terms", int, lambda v: v >= 1, ">= 1"),
    "U": ("max_norm", (int, float), lambda v: 0 < v < 1, "in (0, 1)"),
    "seed": ("seed", int, None, None),
    "k": ("k", int, lambda v: v >= 1, ">= 1"),
    "center": ("center", bool, None, None),
}
# lsh.dim when the config does not set it
_LSH_DEFAULT_DIM = 128

# Accepted keys of the "network" config section -> (accepted types, valid-range
# check, what the range is).
_NETWORK_FIELDS = {
    "json": (str, None, None),
    "kind": (str, lambda v: v in ("city", "grid"), '"city" or "grid"'),
    "rows": (int, lambda v: v >= 2, ">= 2"),
    "cols": (int, lambda v: v >= 2, ">= 2"),
    "spacing_m": ((int, float), lambda v: v > 0, "positive"),
    "seed": (int, None, None),
    "arterial_every": (int, lambda v: v >= 1, ">= 1"),
}


def _value_errors(name: str, value, types, in_range, range_text) -> list[str]:
    """The config error of one value, if any. A bool passes only where bool
    is the type asked for."""
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        kind = {bool: "a boolean", int: "an integer", str: "a string"}.get(types, "a number")
        return [f"{name} must be {kind}, got {value!r}"]
    if in_range is not None and not in_range(value):
        return [f"{name} must be {range_text}, got {value!r}"]
    return []


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentConfig:
    seed: int = 0
    network: dict = field(default_factory=lambda: {"rows": 12, "cols": 12, "spacing_m": 500.0, "seed": 42})
    scenario: dict = field(default_factory=dict)
    loads: list[float] = field(default_factory=lambda: [1.0])
    approaches: list[str] = field(default_factory=lambda: ["lsh", "closeby", "closeby_haversine"])
    k: int = 10
    max_delay_s: float = 600.0
    space_precision: int = 7
    time_interval_s: float = 1200.0
    lsh: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)
    alternates: int = 1
    optimal_cap: int = 3000
    timing: str = "wall"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = []
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                errors.append(f"unknown config key {key!r}")
        cfg = cls(**{k: v for k, v in raw.items() if k in known})
        scenario = cfg.scenario or {}
        if ("synth" in scenario) == ("csv" in scenario):
            errors.append("scenario must contain exactly one of 'synth' or 'csv'")
        if "csv" in scenario:
            if "bbox" not in scenario or len(scenario.get("bbox", [])) != 4:
                errors.append("csv scenario requires bbox [minlat, minlon, maxlat, maxlon]")
            if "window" not in scenario or len(scenario.get("window", [])) != 2:
                errors.append("csv scenario requires window [t0, t1] in epoch seconds")
        if not cfg.loads:
            errors.append("loads must not be empty")
        for ld in cfg.loads:
            if not isinstance(ld, (int, float)) or not 0.0 < ld <= 1.0:
                errors.append(f"load {ld!r} outside (0, 1]")
        for name, spec in _NUMERIC_FIELDS.items():
            errors += _value_errors(name, getattr(cfg, name), *spec)
        for a in cfg.approaches:
            if a not in APPROACHES:
                errors.append(f"unknown approach {a!r} (choose from {', '.join(APPROACHES)})")
        errors += _lsh_errors(cfg.lsh)
        if cfg.timing not in ("wall", "none"):
            errors.append(f"timing must be 'wall' or 'none', got {cfg.timing!r}")
        errors += _section_errors("network", cfg.network, _NETWORK_FIELDS)
        # m_candidates is held to k only when k itself is valid
        k = None if _value_errors("k", cfg.k, *_NUMERIC_FIELDS["k"]) else cfg.k
        baseline_checks = {
            "m_candidates": (int, None if k is None else lambda v: v >= k, f">= k ({k})"),
            "nominal_speed_mps": ((int, float), lambda v: v > 0, "positive"),
        }
        errors += _section_errors("baseline", cfg.baseline, baseline_checks)
        if errors:
            raise ConfigError(errors)
        return cfg

    def lsh_config(self) -> LshConfig:
        fields = {"dim": _LSH_DEFAULT_DIM, "seed": _stage_seed(self.seed, "lsh"), "k": self.k}
        fields.update((_LSH_FIELDS[key][0], value) for key, value in self.lsh.items())
        return LshConfig(**fields)


def _section_errors(section: str, values, checks: dict) -> list[str]:
    """Every error in the keys and values of one config section; checks maps
    each accepted key to (accepted types, valid-range check, what the range is)."""
    if not isinstance(values, dict):
        return [f"{section} must be an object, got {values!r}"]
    errors = []
    for key, value in values.items():
        if key in checks:
            errors += _value_errors(f"{section}.{key}", value, *checks[key])
        else:
            errors.append(f"unknown {section} key {key!r} (choose from {', '.join(checks)})")
    return errors


def _lsh_errors(lsh) -> list[str]:
    """Every error in the "lsh" config section."""
    checks = {key: spec[1:] for key, spec in _LSH_FIELDS.items()}
    errors = _section_errors("lsh", lsh, checks)
    if not isinstance(lsh, dict) or "cp_dim" not in lsh:
        return errors
    if not any(_value_errors(key, lsh[key], *checks[key]) for key in ("cp_dim", "dim", "m") if key in lsh):
        # the index hashes dim + m coordinates, zero-padded to a power of two
        width = lsh.get("dim", _LSH_DEFAULT_DIM) + lsh.get("m", LshConfig.norm_terms)
        top = 1 << (width - 1).bit_length()
        cp_dim = lsh["cp_dim"]
        if cp_dim > top:
            errors.append(f"lsh.cp_dim must be in [1, {top}] (the padded width of dim + m), got {cp_dim}")
    return errors


@dataclass
class ExperimentReport:
    rows: list[dict]
    meta: dict


def _stage_seed(seed: int, *labels) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return int.from_bytes(blake2b(repr(labels).encode(), digest_size=8, key=key).digest()[:7], "big")


def _build_net(cfg: ExperimentConfig) -> RoadNetwork:
    nd = cfg.network
    if "json" in nd:
        return RoadNetwork.load_json(nd["json"])
    if nd.get("kind", "city") == "grid":
        return build_grid_network(
            rows=nd.get("rows", 21),
            cols=nd.get("cols", 21),
            spacing_m=nd.get("spacing_m", 500.0),
            speed_jitter_seed=nd.get("seed", 42),
        )
    return build_city_network(
        rows=nd.get("rows", 21),
        cols=nd.get("cols", 21),
        spacing_m=nd.get("spacing_m", 500.0),
        seed=nd.get("seed", 42),
        arterial_every=nd.get("arterial_every", 5),
    )


def _build_workload(cfg: ExperimentConfig, net: RoadNetwork, ledger: RoutingLedger) -> Workload:
    sc = cfg.scenario
    if "csv" in sc:
        return load_trips_csv(
            sc["csv"],
            bbox=tuple(sc["bbox"]),
            window=tuple(sc["window"]),
            net=net,
            ledger=ledger,
            utc_offset_hours=sc.get("utc_offset_hours", 0.0),
            alternates=cfg.alternates,
        )
    sy = sc["synth"]
    return synth_commute(
        net,
        n=sy.get("n", 200),
        hotspot_count=sy.get("hotspots", 12),
        spread_m=sy.get("spread_m", 100.0),
        window=tuple(sy.get("window", (0.0, 7200.0))),
        seed=sy.get("seed", _stage_seed(cfg.seed, "synth")),
        mode=sy.get("mode", "morning"),
        ledger=ledger,
        alternates=cfg.alternates,
        pulse_s=sy.get("pulse_s", 1200.0),
        pulse_offset=sy.get("pulse_offset", 300.0),
        pulse_spread=sy.get("pulse_spread", 150.0),
    )


def _proposal_stage(approach, rides, cfg, net):
    """Run one approach's search phase; returns (proposals, lsh summary or None)."""
    if approach == "lsh":
        matches, summary = find_potential_matches(
            rides, cfg.lsh_config(), cfg.space_precision, cfg.time_interval_s
        )
        return matches, summary
    bl = cfg.baseline
    speed = bl.get("nominal_speed_mps", baselines.DEFAULT_NOMINAL_SPEED_MPS)
    if approach == "closeby":
        return baselines.closeby(rides, cfg.k), None
    if approach == "haversine":
        return baselines.haversine_topk(rides, cfg.k, cfg.max_delay_s, speed), None
    if approach == "closeby_haversine":
        m = bl.get("m_candidates", baselines.DEFAULT_M_CANDIDATES)
        return baselines.closeby_haversine(rides, cfg.k, m, cfg.max_delay_s, speed), None
    raise ValueError(f"unknown approach {approach!r}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute every (load, approach) cell; failures are isolated per approach."""
    wall = cfg.timing == "wall"
    net = _build_net(cfg)
    ingest_ledger = RoutingLedger()
    workload = _build_workload(cfg, net, ingest_ledger)
    rows = []
    for load in cfg.loads:
        sub = subsample(workload, float(load), seed=_stage_seed(cfg.seed, "subsample", load))
        rides = sub.rides
        n = len(rides)
        optimal_total = None
        optimal_row = None
        if "optimal" in cfg.approaches:
            ledger = RoutingLedger()
            ledger.charge(n)
            optimal_row = {
                "scenario": workload.label,
                "load": float(load),
                "approach": "optimal",
                "status": "ok",
                "n_rides": n,
            }
            try:
                t0 = time.perf_counter()
                result = optimal_utility(rides, net, cfg.max_delay_s, ledger, cap=cfg.optimal_cap)
                dt_ms = (time.perf_counter() - t0) * 1000.0
                optimal_total = result.total_utility
                optimal_row.update(
                    total_utility_s=result.total_utility,
                    utility_fraction_of_optimal=1.0,
                    search_ms=0.0,
                    network_build_ms=dt_ms if wall else 0.0,
                    routing_calls=ledger.call_count,
                    routing_batches=ledger.batch_count,
                    routing_latency_ms=ledger.simulated_latency_ms,
                    evaluated_pairs=n * (n - 1) // 2,
                    network_edges=None,
                    matched_pairs=len(result.pairs),
                    mean_candidates=None,
                    degenerate_rides=None,
                )
            except Exception as exc:  # isolate approach failures
                optimal_row["status"] = f"failed: {type(exc).__name__}: {exc}"
        for approach in cfg.approaches:
            if approach == "optimal":
                rows.append(optimal_row)
                continue
            row = {
                "scenario": workload.label,
                "load": float(load),
                "approach": approach,
                "status": "ok",
                "n_rides": n,
            }
            ledger = RoutingLedger()
            ledger.charge(n)
            try:
                t0 = time.perf_counter()
                proposals, summary = _proposal_stage(approach, rides, cfg, net)
                search_ms = (time.perf_counter() - t0) * 1000.0
                t0 = time.perf_counter()
                g = build_network(rides, proposals, net, cfg.max_delay_s, ledger, provenance=approach)
                build_ms = (time.perf_counter() - t0) * 1000.0
                result = max_weight_matching(g)
                row.update(
                    total_utility_s=result.total_utility,
                    utility_fraction_of_optimal=(
                        None if not optimal_total else result.total_utility / optimal_total
                    ),
                    search_ms=search_ms if wall else 0.0,
                    network_build_ms=build_ms if wall else 0.0,
                    routing_calls=ledger.call_count,
                    routing_batches=ledger.batch_count,
                    routing_latency_ms=ledger.simulated_latency_ms,
                    evaluated_pairs=g.evaluated_pairs,
                    network_edges=len(g.edges),
                    matched_pairs=len(result.pairs),
                    mean_candidates=summary.mean_candidates if summary else None,
                    degenerate_rides=len(summary.degenerate_ids) if summary else None,
                )
            except Exception as exc:
                row["status"] = f"failed: {type(exc).__name__}: {exc}"
            rows.append(row)
    meta = {
        "scenario": workload.label,
        "n_rides_full": len(workload.rides),
        "ingest_routing_calls": ingest_ledger.call_count,
        "loads": [float(x) for x in cfg.loads],
        "approaches": list(cfg.approaches),
        "k": cfg.k,
        "max_delay_s": cfg.max_delay_s,
        "seed": cfg.seed,
    }
    return ExperimentReport(rows=rows, meta=meta)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _round6(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def report_to_csv(report: ExperimentReport) -> str:
    """CSV text; a cell holding a comma or quote (a failure message) is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in report.rows:
        writer.writerow(_fmt(row.get(col)) for col in REPORT_COLUMNS)
    return out.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "meta": {k: _round6(v) for k, v in report.meta.items()},
        "rows": [{col: _round6(row.get(col)) for col in REPORT_COLUMNS} for row in report.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_report(report: ExperimentReport, fmt: str = "csv", path=None) -> str:
    """Render the report; write it to `path` when given. Returns the text."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def _resolve_paths(raw: dict, config_path: str) -> None:
    """Make scenario/network file paths usable from any working directory.

    Relative paths are tried against the CWD first, then against the
    config file's own directory.
    """
    base = os.path.dirname(os.path.abspath(config_path))

    def fix(container, key):
        path = container.get(key) if isinstance(container, dict) else None
        if isinstance(path, str) and path and not os.path.isabs(path) and not os.path.exists(path):
            candidate = os.path.join(base, path)
            if os.path.exists(candidate):
                container[key] = candidate

    fix(raw.get("scenario", {}), "csv")
    fix(raw.get("network", {}), "json")


def _cmd_run(args) -> int:
    try:
        with open(args.config) as f:
            raw = json.load(f)
        if args.trips:
            scenario = dict(raw.get("scenario", {}))
            scenario.pop("synth", None)
            scenario["csv"] = args.trips
            raw["scenario"] = scenario
        elif args.synth:
            scenario = dict(raw.get("scenario", {}))
            synth = dict(scenario.get("synth", {}))
            synth["mode"] = args.synth
            raw["scenario"] = {"synth": synth}
        _resolve_paths(raw, args.config)
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    net = build_city_network(args.rows, args.cols, args.spacing_m, args.net_seed)
    t0 = parse_taxi_datetime(args.window_start, args.utc_offset_hours)
    w = synth_commute(
        net,
        n=args.n,
        hotspot_count=args.hotspots,
        spread_m=args.spread_m,
        window=(t0, t0 + args.window_s),
        seed=args.seed,
        mode=args.mode,
    )
    write_trips_csv(w, args.out, args.utc_offset_hours)
    print(f"wrote {len(w.rides)} rides to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="match-bench", description="Ride-match search benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    scenario_override = p_run.add_mutually_exclusive_group()
    scenario_override.add_argument("--trips", help="override scenario with this trips CSV")
    scenario_override.add_argument(
        "--synth", choices=("morning", "evening"), help="override scenario with a synth mode"
    )

    p_synth = sub.add_parser("synth", help="write a synthetic commute workload as a trips CSV")
    p_synth.add_argument("--mode", choices=("morning", "evening"), default="morning")
    p_synth.add_argument("--n", type=int, default=200)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--rows", type=int, default=21)
    p_synth.add_argument("--cols", type=int, default=21)
    p_synth.add_argument("--spacing-m", type=float, default=500.0)
    p_synth.add_argument("--net-seed", type=int, default=42)
    p_synth.add_argument("--hotspots", type=int, default=12)
    p_synth.add_argument("--spread-m", type=float, default=100.0)
    p_synth.add_argument("--window-start", default="2016-06-08 07:00:00")
    p_synth.add_argument("--window-s", type=float, default=7200.0)
    p_synth.add_argument("--utc-offset-hours", type=float, default=0.0)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_synth(args)
    except Exception as exc:  # runtime failure contract: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
