"""Experiment harness: config, scenario execution, metrics, report emission.

Reports one row per (load, approach) with utilities, phase timings, and
routing-call accounting. `match-bench run` executes a JSON config;
`match-bench synth` writes a synthetic workload in the taxi CSV schema.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from hashlib import blake2b
from types import SimpleNamespace

from . import baselines
from .lshindex import LshConfig, find_potential_matches
from .network import DEFAULT_OPTIMAL_CAP, build_network, max_weight_matching, optimal_utility
from .represent import DEFAULT_SPACE_PRECISION, DEFAULT_TIME_INTERVAL_S
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

# The default of a key whose value, when unset, is derived at run time or
# whose absence selects a behaviour.
_UNSET = object()
_NUMBER = (int, float)


@dataclass(frozen=True)
class _Key:
    """One accepted config key: its accepted types, its range rule (a check and
    the text that names the range), its default, and the builder argument it
    sets where that name differs from the key."""

    types: type | tuple
    default: object = _UNSET
    rule: tuple[Callable, str] | None = None
    arg: str | None = None


def _at_least(low) -> tuple[Callable, str]:
    return (lambda v: v >= low), f">= {low}"


def _is_number(v) -> bool:
    return isinstance(v, _NUMBER) and not isinstance(v, bool)


def _numbers(count: int, shape: str) -> tuple[Callable, str]:
    return (lambda v: len(v) == count and all(map(_is_number, v))), f"{count} numbers {shape}"


_POSITIVE = ((lambda v: v > 0), "positive")

# Every config section by its dotted path ("" is the top level): each key it
# accepts. A key whose type is dict and whose path is a section here is checked
# as that section.
_SCHEMA: dict[str, dict[str, _Key]] = {
    "": {
        "seed": _Key(int, 0),
        "network": _Key(dict, {}),
        "scenario": _Key(dict, {}),
        "loads": _Key(list, [1.0], (
            lambda v: len(v) > 0 and all(_is_number(x) and 0 < x <= 1 for x in v),
            "a non-empty list of numbers in (0, 1]",
        )),
        "approaches": _Key(list, ["lsh", "closeby", "closeby_haversine"], (
            lambda v: all(a in APPROACHES for a in v) and len(set(v)) == len(v),
            f"a list of distinct names from {', '.join(APPROACHES)}",
        )),
        "k": _Key(int, LshConfig.k, _at_least(1)),
        "max_delay_s": _Key(_NUMBER, baselines.DEFAULT_MAX_DELAY_S, _POSITIVE),
        "space_precision": _Key(int, DEFAULT_SPACE_PRECISION, ((lambda v: 1 <= v <= 12), "in [1, 12]")),
        "time_interval_s": _Key(_NUMBER, DEFAULT_TIME_INTERVAL_S, _POSITIVE),
        "lsh": _Key(dict, {}),
        "baseline": _Key(dict, {}),
        "alternates": _Key(int, 1, _at_least(1)),
        "optimal_cap": _Key(int, DEFAULT_OPTIMAL_CAP, _at_least(1)),
        "timing": _Key(str, "wall", ((lambda v: v in ("wall", "none")), "'wall' or 'none'")),
    },
    "network": {
        "json": _Key(str),
        "kind": _Key(str, "city", ((lambda v: v in ("city", "grid")), '"city" or "grid"')),
        "rows": _Key(int, 21, _at_least(2)),
        "cols": _Key(int, 21, _at_least(2)),
        "spacing_m": _Key(_NUMBER, 500.0, _POSITIVE),
        "seed": _Key(int, 42),
        "arterial_every": _Key(int, 5, _at_least(1)),
    },
    "scenario": {
        "csv": _Key(str, arg="path"),
        "synth": _Key(dict),
        "bbox": _Key(list, rule=_numbers(4, "[minlat, minlon, maxlat, maxlon]")),
        "window": _Key(list, rule=_numbers(2, "[t0, t1] in epoch seconds")),
        "utc_offset_hours": _Key(_NUMBER, 0.0),
    },
    "scenario.synth": {
        "mode": _Key(str, "morning", ((lambda v: v in ("morning", "evening")), '"morning" or "evening"')),
        "n": _Key(int, 200, _at_least(1)),
        "seed": _Key(int),  # derived from the top-level seed when unset
        "hotspots": _Key(int, 12, _at_least(1), arg="hotspot_count"),
        "spread_m": _Key(_NUMBER, 100.0, _at_least(0)),
        "window": _Key(list, (0.0, 7200.0), _numbers(2, "[t0, t1] in seconds")),
        "pulse_s": _Key((int, float, type(None)), 1200.0, ((lambda v: v is None or v > 0), "positive or null")),
        "pulse_offset": _Key(_NUMBER, 300.0),
        "pulse_spread": _Key(_NUMBER, 150.0, _at_least(0)),
    },
    "lsh": {
        "tables": _Key(int, LshConfig.tables, _at_least(1)),
        "hash_bits": _Key(int, LshConfig.hash_bits, _at_least(1)),
        "probes": _Key(int, LshConfig.probes, _at_least(1)),
        "dim": _Key(int, LshConfig.dim, ((lambda v: v >= 2 and v & (v - 1) == 0), "a power of two >= 2")),
        "cp_dim": _Key(int, LshConfig.cp_dim, _at_least(1)),
        "m": _Key(int, LshConfig.norm_terms, _at_least(1), arg="norm_terms"),
        "U": _Key(_NUMBER, LshConfig.max_norm, ((lambda v: 0 < v < 1), "in (0, 1)"), arg="max_norm"),
        "seed": _Key(int),  # derived from the top-level seed when unset
        "k": _Key(int, rule=_at_least(1)),  # the top-level k when unset
    },
    "baseline": {
        "m_candidates": _Key(int, baselines.DEFAULT_M_CANDIDATES),
        "nominal_speed_mps": _Key(_NUMBER, baselines.DEFAULT_NOMINAL_SPEED_MPS, _POSITIVE),
    },
}

_KINDS = {
    bool: "a boolean",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
    _NUMBER: "a number",
    (int, float, type(None)): "a number or null",
}


def _value_errors(name: str, value, key: _Key) -> list[str]:
    """The config error of one value, if any. A bool passes only where bool
    is the type asked for."""
    if isinstance(value, bool) != (key.types is bool) or not isinstance(value, key.types):
        return [f"{name} must be {_KINDS[key.types]}, got {value!r}"]
    if key.rule is not None and not key.rule[0](value):
        return [f"{name} must be {key.rule[1]}, got {value!r}"]
    return []


def _section_errors(section: str, values: dict) -> list[str]:
    """Every error in the keys and values of one config section (its dotted
    path; "" is the top level) and of the sections nested in it."""
    schema = _SCHEMA[section]
    errors = []
    for key, value in values.items():
        name = f"{section}.{key}" if section else key
        if key not in schema:
            errors.append(f"unknown {section or 'config'} key {key!r} (choose from {', '.join(schema)})")
            continue
        found = _value_errors(name, value, schema[key])
        errors += found
        if not found and name in _SCHEMA:
            errors += _section_errors(name, value)
    return errors


def _valid(section: str, values: dict, *keys) -> bool:
    """True when each of keys that values holds has a valid value."""
    return not _section_errors(section, {key: values[key] for key in keys if key in values})


def _cross_field_errors(raw: dict) -> list[str]:
    """Errors of the rules that tie one key to another. Each is judged only
    when the keys it reads are valid on their own."""
    errors = []
    scenario = raw.get("scenario", {})
    if isinstance(scenario, dict):
        if ("synth" in scenario) == ("csv" in scenario):
            errors.append("scenario must contain exactly one of 'synth' or 'csv'")
        if "csv" in scenario:
            if "bbox" not in scenario:
                errors.append("csv scenario requires bbox [minlat, minlon, maxlat, maxlon]")
            if "window" not in scenario:
                errors.append("csv scenario requires window [t0, t1] in epoch seconds")
    lsh = raw.get("lsh")
    if isinstance(lsh, dict) and "cp_dim" in lsh and _valid("lsh", lsh, "cp_dim", "dim", "m"):
        # the index hashes dim + m coordinates, zero-padded to a power of two
        width = sum(lsh.get(key, _SCHEMA["lsh"][key].default) for key in ("dim", "m"))
        top = 1 << (width - 1).bit_length()
        if lsh["cp_dim"] > top:
            errors.append(f"lsh.cp_dim must be in [1, {top}] (the padded width of dim + m), got {lsh['cp_dim']}")
    baseline = raw.get("baseline")
    if isinstance(baseline, dict) and "m_candidates" in baseline and _valid("baseline", baseline, "m_candidates"):
        k = raw.get("k", _SCHEMA[""]["k"].default)
        if _valid("", raw, "k") and baseline["m_candidates"] < k:
            errors.append(f"baseline.m_candidates must be >= k ({k}), got {baseline['m_candidates']}")
    return errors


def _args(section: str, values: dict) -> dict:
    """A checked config section merged over its defaults, keyed by the
    builder argument each key sets. Unset keys without a default are left out."""
    schema = _SCHEMA[section]
    merged = {key: spec.default for key, spec in schema.items() if spec.default is not _UNSET}
    merged.update(values)
    return {schema[key].arg or key: value for key, value in merged.items()}


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class ExperimentConfig(SimpleNamespace):
    """A checked `match-bench run` config: one attribute per top-level key of
    `_SCHEMA[""]`, holding the value given or the key's default."""

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = _section_errors("", raw) + _cross_field_errors(raw)
        if errors:
            raise ConfigError(errors)
        return cls(**copy.deepcopy(_args("", raw)))

    def lsh_config(self) -> LshConfig:
        return LshConfig(**{"seed": _stage_seed(self.seed, "lsh"), "k": self.k, **_args("lsh", self.lsh)})


@dataclass
class ExperimentReport:
    rows: list[dict]
    meta: dict


def _stage_seed(seed: int, *labels) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return int.from_bytes(blake2b(repr(labels).encode(), digest_size=8, key=key).digest()[:7], "big")


def _build_net(network: dict) -> RoadNetwork:
    """The road network of a checked `network` section."""
    args = _args("network", network)
    if "json" in args:
        return RoadNetwork.load_json(args["json"])
    if args.pop("kind") == "grid":
        return build_grid_network(args["rows"], args["cols"], args["spacing_m"], speed_jitter_seed=args["seed"])
    return build_city_network(**args)


def _build_workload(cfg: ExperimentConfig, net: RoadNetwork, ledger: RoutingLedger) -> Workload:
    args = _args("scenario", cfg.scenario)
    if "path" in args:
        return load_trips_csv(**args, net=net, ledger=ledger, alternates=cfg.alternates)
    synth = {"seed": _stage_seed(cfg.seed, "synth"), **_args("scenario.synth", args["synth"])}
    return synth_commute(net, **synth, ledger=ledger, alternates=cfg.alternates)


def _proposal_stage(approach, rides, cfg):
    """Run one approach's search phase; returns (proposals, lsh summary or None)."""
    if approach == "lsh":
        return find_potential_matches(rides, cfg.lsh_config(), cfg.space_precision, cfg.time_interval_s)
    bl = _args("baseline", cfg.baseline)
    if approach == "closeby":
        return baselines.closeby(rides, cfg.k), None
    if approach == "haversine":
        return baselines.haversine_topk(rides, cfg.k, cfg.max_delay_s, bl["nominal_speed_mps"]), None
    if approach == "closeby_haversine":
        return baselines.closeby_haversine(rides, cfg.k, max_delay_s=cfg.max_delay_s, **bl), None
    raise ValueError(f"unknown approach {approach!r}")


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _measure(approach, rides, cfg, net) -> dict:
    """The measured columns of one approach's row: search, network build and
    exact matching (optimal matches the complete network, so its search time
    is 0 and its build time includes matching). Raises what the approach raises."""
    n = len(rides)
    ledger = RoutingLedger()
    ledger.charge(n)
    t0 = time.perf_counter()
    if approach == "optimal":
        result = optimal_utility(rides, net, cfg.max_delay_s, ledger, cap=cfg.optimal_cap)
        row = {"search_ms": 0.0, "network_build_ms": _ms_since(t0), "evaluated_pairs": n * (n - 1) // 2}
    else:
        proposals, summary = _proposal_stage(approach, rides, cfg)
        search_ms = _ms_since(t0)
        t0 = time.perf_counter()
        g = build_network(rides, proposals, net, cfg.max_delay_s, ledger)
        row = {
            "search_ms": search_ms,
            "network_build_ms": _ms_since(t0),
            "evaluated_pairs": g.evaluated_pairs,
            "network_edges": len(g.edges),
            "mean_candidates": summary.mean_candidates if summary else None,
            "degenerate_rides": len(summary.degenerate_ids) if summary else None,
        }
        result = max_weight_matching(g)
    if cfg.timing == "none":
        row.update(search_ms=0.0, network_build_ms=0.0)
    row.update(
        total_utility_s=result.total_utility,
        routing_calls=ledger.call_count,
        routing_batches=ledger.batch_count,
        routing_latency_ms=ledger.simulated_latency_ms,
        matched_pairs=len(result.pairs),
    )
    return row


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute every (load, approach) cell; failures are isolated per approach."""
    net = _build_net(cfg.network)
    ingest_ledger = RoutingLedger()
    workload = _build_workload(cfg, net, ingest_ledger)
    rows = []
    for load in cfg.loads:
        rides = subsample(workload, float(load), seed=_stage_seed(cfg.seed, "subsample", load)).rides
        by_approach = {}
        # optimal runs first: its total is every fraction's denominator, and
        # it fills the network's distance memo for the others
        for approach in sorted(cfg.approaches, key=lambda a: a != "optimal"):
            row = {
                "scenario": workload.label,
                "load": float(load),
                "approach": approach,
                "status": "ok",
                "n_rides": len(rides),
            }
            try:
                row.update(_measure(approach, rides, cfg, net))
            except Exception as exc:  # isolate approach failures
                row["status"] = f"failed: {type(exc).__name__}: {exc}"
            by_approach[approach] = row
        optimal_total = by_approach.get("optimal", {}).get("total_utility_s")
        for approach in cfg.approaches:
            row = by_approach[approach]
            if optimal_total and "total_utility_s" in row:
                row["utility_fraction_of_optimal"] = row["total_utility_s"] / optimal_total
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        raise ConfigError([f"the config must be an object, got {raw!r}"])
    # an override merges only into an object; anything else is left for the
    # schema check to report
    scenario = raw.get("scenario", {})
    if args.trips and isinstance(scenario, dict):
        scenario = {k: v for k, v in scenario.items() if k != "synth"}
        raw["scenario"] = {**scenario, "csv": args.trips}
    elif args.synth and isinstance(scenario, dict):
        synth = scenario.get("synth", {})
        raw["scenario"] = {"synth": {**synth, "mode": args.synth} if isinstance(synth, dict) else synth}
    _resolve_paths(raw, args.config)
    report = run_experiment(ExperimentConfig.from_dict(raw))
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    """Write a synth workload; the flags are checked as a config's network and
    scenario.synth sections."""
    network = {"rows": args.rows, "cols": args.cols, "spacing_m": args.spacing_m, "seed": args.net_seed}
    t0 = parse_taxi_datetime(args.window_start, args.utc_offset_hours)
    synth = {
        "mode": args.mode,
        "n": args.n,
        "seed": args.seed,
        "hotspots": args.hotspots,
        "spread_m": args.spread_m,
        "window": [t0, t0 + args.window_s],
    }
    errors = _section_errors("network", network) + _section_errors("scenario.synth", synth)
    if errors:
        raise ConfigError(errors)
    w = synth_commute(_build_net(network), **_args("scenario.synth", synth))
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

    # the defaults of a config's network and synth sections, so the trips fit the default city
    network, synth = _SCHEMA["network"], _SCHEMA["scenario.synth"]
    window = synth["window"].default
    p_synth = sub.add_parser("synth", help="write a synthetic commute workload as a trips CSV")
    p_synth.add_argument("--mode", choices=("morning", "evening"), default=synth["mode"].default)
    p_synth.add_argument("--n", type=int, default=synth["n"].default)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--rows", type=int, default=network["rows"].default)
    p_synth.add_argument("--cols", type=int, default=network["cols"].default)
    p_synth.add_argument("--spacing-m", type=float, default=network["spacing_m"].default)
    p_synth.add_argument("--net-seed", type=int, default=network["seed"].default)
    p_synth.add_argument("--hotspots", type=int, default=synth["hotspots"].default)
    p_synth.add_argument("--spread-m", type=float, default=synth["spread_m"].default)
    p_synth.add_argument("--window-start", default="2016-06-08 07:00:00")
    p_synth.add_argument("--window-s", type=float, default=window[1] - window[0])
    p_synth.add_argument("--utc-offset-hours", type=float, default=_SCHEMA["scenario"]["utc_offset_hours"].default)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_synth(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
