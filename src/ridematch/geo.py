"""Geodesic primitives: coordinates, haversine distance, geohash cells, time buckets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fixed so distances are bit-stable across runs and machines.
EARTH_RADIUS_KM = 6371.0

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"

# A cell id is a geohash string over GEOHASH_ALPHABET whose length equals the
# encoding precision; a time bucket is floor(epoch_seconds / interval_seconds),
# with boundaries aligned to epoch 0.
CellId = str
TimeBucket = int


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"coordinates must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def haversine_km_arrays(lat1, lon1, lat2, lon2):
    """Vectorized haversine over degree arrays (broadcasting), in kilometres."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2) - np.asarray(lon1))
    s = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def geohash_encode(p: GeoPoint, precision: int) -> CellId:
    """Encode a point as a standard base-32 geohash of the given length.

    Interleaves longitude/latitude bisection bits starting with longitude;
    a coordinate exactly on a cell boundary goes to the upper half.
    """
    if not 1 <= precision <= 12:
        raise ValueError(f"precision must be in [1, 12], got {precision}")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars = []
    ch = 0
    bit = 0
    even = True
    while len(chars) < precision:
        if even:
            mid = (lon_lo + lon_hi) / 2.0
            if p.lon >= mid:
                ch = (ch << 1) | 1
                lon_lo = mid
            else:
                ch = ch << 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if p.lat >= mid:
                ch = (ch << 1) | 1
                lat_lo = mid
            else:
                ch = ch << 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            chars.append(GEOHASH_ALPHABET[ch])
            ch = 0
            bit = 0
    return "".join(chars)

