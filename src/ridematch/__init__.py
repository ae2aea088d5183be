"""Sublinear ride-match search via spatio-temporal LSH, with baselines and evaluation."""

from .geo import GeoPoint, geohash_encode, haversine_km
from .lshindex import LshConfig, find_potential_matches, query, suggest_params
from .network import build_network, max_weight_matching, optimal_utility
from .roadnet import (
    NoRouteError,
    RoadNetwork,
    Route,
    RoutingLedger,
    build_city_network,
    build_grid_network,
    route,
)
from .trips import Ride, Workload, load_trips_csv, subsample, synth_commute
from .utility import brute_force_topk

__all__ = [
    "GeoPoint",
    "geohash_encode",
    "haversine_km",
    "LshConfig",
    "find_potential_matches",
    "query",
    "suggest_params",
    "build_network",
    "max_weight_matching",
    "optimal_utility",
    "NoRouteError",
    "RoadNetwork",
    "Route",
    "RoutingLedger",
    "build_city_network",
    "build_grid_network",
    "route",
    "Ride",
    "Workload",
    "load_trips_csv",
    "subsample",
    "synth_commute",
    "brute_force_topk",
]
