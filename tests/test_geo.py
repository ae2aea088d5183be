import math

import numpy as np
import pytest

from ridematch.geo import (
    EARTH_RADIUS_KM,
    GEOHASH_ALPHABET,
    GeoPoint,
    geohash_encode,
    haversine_km,
    haversine_km_arrays,
)


def _geohash_oracle(lat, lon, precision):
    """Independent reference: direct dyadic quantization + bit interleave."""
    nbits = 5 * precision
    nlon = (nbits + 1) // 2
    nlat = nbits // 2
    li = min(int((lon + 180.0) / 360.0 * (1 << nlon)), (1 << nlon) - 1)
    la = min(int((lat + 90.0) / 180.0 * (1 << nlat)), (1 << nlat) - 1)
    bits = []
    for i in range(nbits):
        if i % 2 == 0:
            bits.append((li >> (nlon - 1 - i // 2)) & 1)
        else:
            bits.append((la >> (nlat - 1 - i // 2)) & 1)
    out = []
    for j in range(0, nbits, 5):
        val = 0
        for b in bits[j : j + 5]:
            val = (val << 1) | b
        out.append(GEOHASH_ALPHABET[val])
    return "".join(out)


class TestGeoPoint:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -181.0)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)

    def test_boundaries_allowed(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(40.7, -74.0)
        assert haversine_km(p, p) == 0.0

    def test_half_circumference(self):
        # antipodal along the equator: half circumference = pi * R
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(d - math.pi * EARTH_RADIUS_KM) < 1e-9
        assert abs(d - 20015.087) < 1e-3

    def test_quarter_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(90, 0))
        assert abs(d - math.pi * EARTH_RADIUS_KM / 2) < 1e-9
        assert abs(d - 10007.543) < 1e-3

    def test_symmetry(self, rng):
        for _ in range(200):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert abs(haversine_km(a, b) - haversine_km(b, a)) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            pts = [GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(3)]
            ab = haversine_km(pts[0], pts[1])
            bc = haversine_km(pts[1], pts[2])
            ac = haversine_km(pts[0], pts[2])
            assert ac <= (ab + bc) * (1 + 1e-9) + 1e-12

    def test_array_variant_matches_scalar(self, rng):
        lats1 = rng.uniform(-89, 89, 50)
        lons1 = rng.uniform(-179, 179, 50)
        lats2 = rng.uniform(-89, 89, 50)
        lons2 = rng.uniform(-179, 179, 50)
        arr = haversine_km_arrays(lats1, lons1, lats2, lons2)
        for i in range(50):
            ref = haversine_km(GeoPoint(lats1[i], lons1[i]), GeoPoint(lats2[i], lons2[i]))
            # libm vs numpy SIMD can differ by ulps, amplified near antipodes
            assert abs(arr[i] - ref) < 1e-9


class TestGeohash:
    def test_known_vector(self):
        assert geohash_encode(GeoPoint(57.64911, 10.40744), 11) == "u4pruydqqvj"

    def test_origin(self):
        assert geohash_encode(GeoPoint(0.0, 0.0), 1) == "s"

    def test_prefix_property(self, rng):
        for _ in range(100):
            p = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            long = geohash_encode(p, 9)
            assert geohash_encode(p, 7) == long[:7]

    def test_against_independent_oracle(self, rng):
        for _ in range(300):
            lat = rng.uniform(-89.9, 89.9)
            lon = rng.uniform(-179.9, 179.9)
            for prec in (1, 5, 7, 12):
                assert geohash_encode(GeoPoint(lat, lon), prec) == _geohash_oracle(lat, lon, prec)

    def test_alphabet_and_length(self, rng):
        for _ in range(50):
            p = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            code = geohash_encode(p, 8)
            assert len(code) == 8
            assert all(c in GEOHASH_ALPHABET for c in code)

    def test_precision_range(self):
        p = GeoPoint(1.0, 1.0)
        with pytest.raises(ValueError):
            geohash_encode(p, 0)
        with pytest.raises(ValueError):
            geohash_encode(p, 13)

