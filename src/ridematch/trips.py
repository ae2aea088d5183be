"""Ride pool construction: taxi-CSV ingestion, synthetic commute workloads, subsampling."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .geo import GeoPoint
from .roadnet import METERS_PER_DEGREE_LAT, RoadNetwork, Route, RoutingLedger, batch_route_multi

REQUIRED_COLUMNS = (
    "tpep_pickup_datetime",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
)


# synth_commute: a pickup's depth along its corridor, as a fraction of the
# hotspot's distance from the centre, and the downtown district's reach, as
# a fraction of the largest L1 distance from the centre
PICKUP_DEPTH = (0.5, 1.0)
DOWNTOWN_FRAC = 0.33
# synth_commute's bound on consecutive draws that yield no valid ride
MAX_EMPTY_DRAWS = 1000


class TripsFormatError(ValueError):
    """The trips CSV is missing a required column."""


@dataclass
class Ride:
    """A trip request with its cached route(s); cost is the best route's duration."""

    id: int
    pickup: GeoPoint
    dropoff: GeoPoint
    request_time: float
    routes: list[Route]
    cost: float
    pickup_node: int
    dropoff_node: int


@dataclass
class Workload:
    rides: list[Ride]
    label: str
    skipped: dict[str, int] = field(default_factory=dict)


def _build_rides(points, times, net, ledger, alternates, nodes=None):
    """Route (pickup, dropoff) pairs and assemble Rides, ids from 0 in order;
    drops same-node pairs.

    nodes, if given, are the points' snapped (pickup, dropoff) nodes in order.
    """
    routed = batch_route_multi(net, points, ledger, alternates=alternates, nodes=nodes)
    rides = []
    dropped = {"same_node": 0, "unreachable": 0}
    for (pickup, dropoff), t, routes in zip(points, times, routed):
        if routes is None:
            dropped["unreachable"] += 1
            continue
        best = routes[0]
        if len(best.nodes) < 2:
            dropped["same_node"] += 1
            continue
        rides.append(
            Ride(
                id=len(rides),
                pickup=pickup,
                dropoff=dropoff,
                request_time=float(t),
                routes=routes,
                cost=best.total_duration,
                pickup_node=best.nodes[0],
                dropoff_node=best.nodes[-1],
            )
        )
    return rides, dropped


def parse_taxi_datetime(text: str, utc_offset_hours: float = 0.0) -> float:
    """Epoch seconds for a naive 'YYYY-MM-DD HH:MM:SS' wall time at a fixed offset."""
    dt = datetime.strptime(text.strip(), "%Y-%m-%d %H:%M:%S")
    tz = timezone(timedelta(hours=utc_offset_hours))
    return dt.replace(tzinfo=tz).timestamp()


def load_trips_csv(
    path,
    bbox: tuple[float, float, float, float],
    window: tuple[float, float],
    net: RoadNetwork,
    ledger: RoutingLedger,
    utc_offset_hours: float = 0.0,
    alternates: int = 1,
) -> Workload:
    """Load rides from a NY-yellow-taxi-schema CSV.

    bbox is (minlat, minlon, maxlat, maxlon); window is [t0, t1) in epoch
    seconds. Rows outside either, with zero/invalid coordinates, or
    unparsable are dropped and counted. Each surviving ride issues one
    routing request through the batch router.
    """
    minlat, minlon, maxlat, maxlon = bbox
    t0, t1 = window
    points, times = [], []
    skipped = {"unparsable": 0, "out_of_bbox": 0, "out_of_window": 0, "invalid_coord": 0}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        fieldnames = reader.fieldnames or []
        for col in REQUIRED_COLUMNS:
            if col not in fieldnames:
                raise TripsFormatError(f"missing required column {col!r}")
        for row in reader:
            try:
                t = parse_taxi_datetime(row["tpep_pickup_datetime"], utc_offset_hours)
                plat = float(row["pickup_latitude"])
                plon = float(row["pickup_longitude"])
                dlat = float(row["dropoff_latitude"])
                dlon = float(row["dropoff_longitude"])
            except (ValueError, KeyError):
                skipped["unparsable"] += 1
                continue
            if (plat == 0.0 and plon == 0.0) or (dlat == 0.0 and dlon == 0.0):
                skipped["invalid_coord"] += 1
                continue
            if not (math.isfinite(plat) and math.isfinite(plon) and math.isfinite(dlat) and math.isfinite(dlon)):
                skipped["invalid_coord"] += 1
                continue
            if not (-90 <= plat <= 90 and -180 <= plon <= 180 and -90 <= dlat <= 90 and -180 <= dlon <= 180):
                skipped["invalid_coord"] += 1
                continue
            if not (minlat <= plat <= maxlat and minlon <= plon <= maxlon
                    and minlat <= dlat <= maxlat and minlon <= dlon <= maxlon):
                skipped["out_of_bbox"] += 1
                continue
            if not t0 <= t < t1:
                skipped["out_of_window"] += 1
                continue
            points.append((GeoPoint(plat, plon), GeoPoint(dlat, dlon)))
            times.append(t)
    rides, dropped = _build_rides(points, times, net, ledger, alternates)
    skipped.update(dropped)
    return Workload(rides=rides, label="csv", skipped=skipped)


def synth_commute(
    net: RoadNetwork,
    n: int,
    hotspot_count: int = 12,
    spread_m: float = 100.0,
    window: tuple[float, float] = (0.0, 7200.0),
    seed: int = 0,
    mode: str = "morning",
    ledger: RoutingLedger | None = None,
    alternates: int = 1,
    pulse_s: float | None = 1200.0,
    pulse_offset: float = 300.0,
    pulse_spread: float = 150.0,
) -> Workload:
    """Generate a commute workload on the network.

    Morning mode strings pickups along `hotspot_count` radial corridors (each
    anchored at an outer hub node, sampled at a depth drawn from PICKUP_DEPTH
    toward downtown and jittered by spread_m), and scatters dropoffs across
    the downtown district (hubs within DOWNTOWN_FRAC of the centre). Evening
    mode swaps the roles. Request times arrive in pulses (train-arrival style): one pulse
    per `pulse_s` starting `pulse_offset` into the window, each ride within
    +-pulse_spread of its pulse; pulse_s=None gives uniform times instead.
    Deterministic under the seed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 rides, got {n}")
    if mode not in ("morning", "evening"):
        raise ValueError(f"mode must be 'morning' or 'evening', got {mode!r}")
    if ledger is None:
        ledger = RoutingLedger()
    rng = np.random.default_rng(seed)
    lat = net.node_lat
    lon = net.node_lon
    hubs = net.hubs if net.hubs is not None else np.arange(net.n_nodes)
    clat, clon = float(lat.mean()), float(lon.mean())
    mdeg = METERS_PER_DEGREE_LAT
    d_l1 = np.abs(lat - clat) * mdeg + np.abs(lon - clon) * (
        mdeg * math.cos(math.radians(clat))
    )
    band = hubs[d_l1[hubs] >= 0.62 * d_l1.max()]
    if len(band) < hotspot_count:
        band = hubs[np.argsort(-d_l1[hubs])][: max(hotspot_count, 1)]
    k = min(hotspot_count, len(band))
    hotspots = rng.choice(band, size=k, replace=False)
    district = hubs[d_l1[hubs] <= DOWNTOWN_FRAC * d_l1.max()]
    if len(district) == 0:
        district = hubs[np.argsort(d_l1[hubs])][: max(4, len(hubs) // 8)]

    dj = spread_m / mdeg
    djc = dj / math.cos(math.radians(clat))
    hub_lat, hub_lon = lat[hubs], lon[hubs]

    def snap_to_hub(a_lat, a_lon):
        d = np.abs(hub_lat[None, :] - a_lat[:, None]) + np.abs(hub_lon[None, :] - a_lon[:, None])
        return hubs[np.argmin(d, axis=1)]

    if pulse_s:
        n_pulses = max(1, int((window[1] - window[0]) // pulse_s))

    points, times, nodes = [], [], []
    # Oversample: pairs snapping to the same node are dropped, so draw until
    # exactly n valid rides exist; give up after MAX_EMPTY_DRAWS draws in a
    # row that yield none, as on a city whose hubs are one node.
    empty_draws = 0
    while len(points) < n:
        m = n - len(points)
        h = hotspots[rng.integers(0, k, m)]
        depth = rng.uniform(*PICKUP_DEPTH, m)
        raw_lat = clat + depth * (lat[h] - clat)
        raw_lon = clon + depth * (lon[h] - clon)
        anchor = snap_to_hub(raw_lat, raw_lon)
        alat = lat[anchor] + rng.uniform(-dj, dj, m)
        alon = lon[anchor] + rng.uniform(-djc, djc, m)
        town = district[rng.integers(0, len(district), m)]
        blat = lat[town] + rng.uniform(-dj, dj, m)
        blon = lon[town] + rng.uniform(-djc, djc, m)
        if mode == "morning":
            plat, plon, qlat, qlon = alat, alon, blat, blon
        else:
            plat, plon, qlat, qlon = blat, blon, alat, alon
        snaps_p = net.nearest_nodes(plat, plon)
        snaps_q = net.nearest_nodes(qlat, qlon)
        if pulse_s:
            pulse = rng.integers(0, n_pulses, m)
            t = window[0] + pulse * pulse_s + pulse_offset + rng.uniform(
                -pulse_spread, pulse_spread, m
            )
        else:
            t = rng.uniform(window[0], window[1], m)
        for i in range(m):
            if len(points) >= n or snaps_p[i] == snaps_q[i]:
                continue
            points.append((GeoPoint(plat[i], plon[i]), GeoPoint(qlat[i], qlon[i])))
            times.append(t[i])
            nodes += (snaps_p[i], snaps_q[i])
        empty_draws = empty_draws + 1 if len(points) == n - m else 0
        if empty_draws == MAX_EMPTY_DRAWS:
            raise ValueError(
                f"no valid ride in {MAX_EMPTY_DRAWS} draws in a row: each pickup snapped to the node "
                f"of its dropoff; the network has {len(hubs)} hub(s)"
            )
    rides, dropped = _build_rides(points, times, net, ledger, alternates, nodes=nodes)
    return Workload(rides=rides, label=f"synth-{mode}", skipped=dropped)


def subsample(w: Workload, rate: float, seed: int = 0) -> Workload:
    """Uniform sample without replacement of round-half-up(rate * n) rides."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return Workload(rides=list(w.rides), label=w.label)
    n = len(w.rides)
    size = int(math.floor(rate * n + 0.5))
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=size, replace=False))
    rides = [w.rides[i] for i in keep]
    return Workload(rides=rides, label=w.label)


def write_trips_csv(w: Workload, path, utc_offset_hours: float = 0.0):
    """Dump a workload in the taxi CSV schema (round-trips through load_trips_csv)."""
    tz = timezone(timedelta(hours=utc_offset_hours))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REQUIRED_COLUMNS)
        for r in w.rides:
            dt = datetime.fromtimestamp(r.request_time, tz).strftime("%Y-%m-%d %H:%M:%S")
            writer.writerow(
                [dt, f"{r.pickup.lon:.6f}", f"{r.pickup.lat:.6f}", f"{r.dropoff.lon:.6f}", f"{r.dropoff.lat:.6f}"]
            )
