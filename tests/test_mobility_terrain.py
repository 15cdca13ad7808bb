"""Unit tests for terrain geometry."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.terrain import Point, Terrain


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(5, -1)
        assert a.distance_to(b) == b.distance_to(a)

    def test_distance_to_self_zero(self):
        p = Point(7, 7)
        assert p.distance_to(p) == 0.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

    def test_interpolate_endpoints(self):
        a, b = Point(0, 0), Point(10, 20)
        assert a.interpolate(b, 0.0) == a
        assert a.interpolate(b, 1.0) == b

    def test_interpolate_middle(self):
        assert Point(0, 0).interpolate(Point(10, 0), 0.25) == Point(2.5, 0)


class TestTerrain:
    def test_dimensions_validated(self):
        with pytest.raises(ConfigurationError):
            Terrain(0, 100)
        with pytest.raises(ConfigurationError):
            Terrain(100, -1)

    def test_area_and_diagonal(self):
        terrain = Terrain(300, 400)
        assert terrain.area == 120000
        assert terrain.diagonal == pytest.approx(500.0)

    def test_center(self):
        assert Terrain(100, 200).center == Point(50, 100)

    def test_contains_interior_and_border(self, terrain):
        assert terrain.contains(Point(100, 100))
        assert terrain.contains(Point(0, 0))
        assert terrain.contains(Point(1500, 1500))
        assert not terrain.contains(Point(1500.01, 0))
        assert not terrain.contains(Point(-0.01, 10))

    def test_random_point_inside(self, terrain, rng):
        for _ in range(200):
            assert terrain.contains(terrain.random_point(rng))

    def test_random_point_spread(self, terrain, rng):
        points = [terrain.random_point(rng) for _ in range(100)]
        xs = [p.x for p in points]
        assert max(xs) - min(xs) > 500  # not clustered
