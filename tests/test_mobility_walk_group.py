"""Unit tests for the random-walk mobility model."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.mobility.terrain import Point, Terrain
from repro.mobility.walk import RandomWalk


def make_walk(terrain, seed=1, **kwargs):
    defaults = dict(speed_min=1.0, speed_max=5.0, epoch=30.0)
    defaults.update(kwargs)
    return RandomWalk(terrain, random.Random(seed), **defaults)


class TestRandomWalk:
    def test_position_at_zero_is_start(self, terrain):
        model = make_walk(terrain, start=Point(50, 50))
        assert model.position(0.0) == Point(50, 50)

    def test_stays_inside_terrain(self, terrain):
        model = make_walk(terrain, seed=9, speed_max=20.0)
        for t in range(0, 10_000, 73):
            assert terrain.contains(model.position(float(t)))

    def test_reflection_at_boundary(self):
        # Small terrain, fast node: reflections must occur and stay legal.
        terrain = Terrain(100.0, 100.0)
        model = make_walk(terrain, seed=3, speed_min=10.0, speed_max=10.0)
        for t in range(0, 500):
            point = model.position(float(t))
            assert 0.0 <= point.x <= 100.0
            assert 0.0 <= point.y <= 100.0

    def test_deterministic_given_seed(self, terrain):
        a = make_walk(terrain, seed=5)
        b = make_walk(terrain, seed=5)
        for t in (1.0, 77.7, 456.0):
            assert a.position(t) == b.position(t)

    def test_pure_function_of_time(self, terrain):
        model = make_walk(terrain, seed=2)
        late = model.position(900.0)
        assert model.position(900.0) == late

    def test_speed_constant_within_epoch(self, terrain):
        model = make_walk(terrain, seed=4, epoch=50.0)
        assert model.speed_at(10.0) == pytest.approx(model.speed_at(40.0))

    def test_speed_within_bounds(self, terrain):
        model = make_walk(terrain, seed=6, speed_min=2.0, speed_max=3.0)
        for t in (5.0, 100.0, 555.0):
            assert 2.0 <= model.speed_at(t) <= 3.0

    def test_direction_changes_between_epochs(self, terrain):
        model = make_walk(terrain, seed=8, epoch=10.0)
        headings = set()
        for epoch_index in range(6):
            t = epoch_index * 10.0 + 5.0
            a = model.position(t)
            b = model.position(t + 1.0)
            headings.add(round(math.atan2(b.y - a.y, b.x - a.x), 3))
        assert len(headings) > 1

    def test_validation(self, terrain, rng):
        with pytest.raises(ConfigurationError):
            RandomWalk(terrain, rng, speed_min=0.0)
        with pytest.raises(ConfigurationError):
            RandomWalk(terrain, rng, epoch=0.0)
        with pytest.raises(ConfigurationError):
            RandomWalk(terrain, rng, start=Point(-1, 0))
