"""Unit tests for mobility models: random waypoint, stationary, scripted."""


import pytest

from repro.errors import ConfigurationError
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint


def make_waypoint(terrain, seed=1, **kwargs):
    defaults = dict(speed_min=1.0, speed_max=5.0, pause_time=10.0)
    defaults.update(kwargs)
    return RandomWaypoint(terrain, seed, **defaults)


class TestRandomWaypoint:
    def test_position_at_zero_is_start(self, terrain):
        start = Point(100, 100)
        model = make_waypoint(terrain, start=start)
        assert model.position(0.0) == start

    def test_negative_time_clamps_to_start(self, terrain):
        model = make_waypoint(terrain, start=Point(5, 5))
        assert model.position(-10.0) == Point(5, 5)

    def test_stays_inside_terrain(self, terrain):
        model = make_waypoint(terrain, seed=7)
        for t in range(0, 5000, 37):
            assert terrain.contains(model.position(float(t)))

    def test_deterministic_given_seed(self, terrain):
        a = make_waypoint(terrain, seed=3)
        b = make_waypoint(terrain, seed=3)
        for t in (0.0, 10.0, 123.4, 999.9):
            assert a.position(t) == b.position(t)

    def test_different_seeds_diverge(self, terrain):
        a = make_waypoint(terrain, seed=1)
        b = make_waypoint(terrain, seed=2)
        assert any(a.position(t) != b.position(t) for t in (50.0, 100.0, 200.0))

    def test_speed_within_bounds_while_moving(self, terrain):
        model = make_waypoint(terrain, seed=5, speed_min=2.0, speed_max=4.0)
        moving_speeds = [
            model.speed_at(float(t))
            for t in range(0, 2000, 13)
            if model.speed_at(float(t)) > 0
        ]
        assert moving_speeds, "node should move at some sampled instant"
        assert all(2.0 <= s <= 4.0 for s in moving_speeds)

    def test_pauses_at_waypoints(self, terrain):
        model = make_waypoint(terrain, seed=5, pause_time=50.0)
        leg = model._legs[0]
        mid_pause = (leg.arrive_time + leg.end_time) / 2.0
        assert model.position(mid_pause) == leg.destination
        assert model.speed_at(mid_pause) == 0.0

    def test_movement_continuous(self, terrain):
        model = make_waypoint(terrain, seed=9, speed_max=5.0, pause_time=0.1)
        previous = model.position(0.0)
        for t in range(1, 1000):
            current = model.position(float(t))
            assert previous.distance_to(current) <= 5.0 + 1e-9
            previous = current

    def test_queries_out_of_order(self, terrain):
        model = make_waypoint(terrain, seed=4)
        late = model.position(500.0)
        early = model.position(10.0)
        assert model.position(500.0) == late
        assert model.position(10.0) == early

    def test_legs_generated_lazily(self, terrain):
        model = make_waypoint(terrain, seed=2)
        initial = model.generated_legs
        model.position(10000.0)
        assert model.generated_legs > initial

    def test_invalid_speed_range(self, terrain):
        with pytest.raises(ConfigurationError):
            RandomWaypoint(terrain, 1, speed_min=0.0, speed_max=5.0)
        with pytest.raises(ConfigurationError):
            RandomWaypoint(terrain, 1, speed_min=5.0, speed_max=1.0)

    def test_negative_pause_rejected(self, terrain):
        with pytest.raises(ConfigurationError):
            RandomWaypoint(terrain, 1, pause_time=-1.0)

    def test_start_outside_terrain_rejected(self, terrain):
        with pytest.raises(ConfigurationError):
            RandomWaypoint(terrain, 1, start=Point(-10, 0))


class TestStationary:
    def test_never_moves(self):
        model = Stationary(Point(10, 20))
        assert model.position(0.0) == Point(10, 20)
        assert model.position(1e6) == Point(10, 20)

    def test_zero_speed(self):
        assert Stationary(Point(0, 0)).speed_at(123.0) == 0.0


class TestPiecewiseLinear:
    def test_before_first_waypoint(self):
        model = PiecewiseLinear([(10.0, Point(0, 0)), (20.0, Point(10, 0))])
        assert model.position(0.0) == Point(0, 0)

    def test_after_last_waypoint(self):
        model = PiecewiseLinear([(10.0, Point(0, 0)), (20.0, Point(10, 0))])
        assert model.position(100.0) == Point(10, 0)

    def test_linear_interpolation(self):
        model = PiecewiseLinear([(0.0, Point(0, 0)), (10.0, Point(10, 20))])
        assert model.position(5.0) == Point(5, 10)

    def test_multi_segment(self):
        model = PiecewiseLinear(
            [(0.0, Point(0, 0)), (10.0, Point(10, 0)), (20.0, Point(10, 10))]
        )
        assert model.position(15.0) == Point(10, 5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinear([])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinear([(5.0, Point(0, 0)), (5.0, Point(1, 1))])


class TestPositionValidityWindows:
    """The position_valid_until contract: position(s) == position(t) for
    every s in [t, t'] — sampled, plus per-model structural checks."""

    def check_contract(self, model, times, samples_per_window=5):
        for t in times:
            valid_until = model.position_valid_until(t)
            assert valid_until >= t or valid_until == float("-inf")
            if valid_until <= t:
                continue
            reference = model.position(t)
            horizon = min(valid_until, t + 1000.0)
            for k in range(samples_per_window):
                s = t + (horizon - t) * k / (samples_per_window - 1)
                assert model.position(s) == reference, (t, s, valid_until)

    def test_stationary_is_valid_forever(self):
        model = Stationary(Point(3, 4))
        assert model.position_valid_until(0.0) == float("inf")
        assert model.position_valid_until(1e9) == float("inf")

    def test_waypoint_pause_windows(self, terrain):
        model = make_waypoint(terrain, seed=11, pause_time=10.0)
        times = [0.1 * k for k in range(0, 3000, 7)]
        self.check_contract(model, times)
        # At least one sampled instant must fall inside a pause and report
        # a strictly later expiry (pause_time is 10 s, so pauses exist).
        assert any(model.position_valid_until(t) > t for t in times)

    def test_waypoint_moving_instant_has_empty_window(self, terrain):
        model = make_waypoint(terrain, seed=3, pause_time=0.0)
        # With zero pause the node is always moving after t=0.
        for t in (0.5, 7.3, 42.0):
            assert model.position_valid_until(t) == t

    def test_waypoint_parked_before_time_zero(self, terrain):
        model = make_waypoint(terrain, start=Point(50, 50))
        assert model.position_valid_until(-5.0) <= 0.0
        assert model.position(-5.0) == model.position(-1.0)

    def test_piecewise_linear_windows(self):
        hold = PiecewiseLinear([
            (0.0, Point(0, 0)),
            (10.0, Point(10, 0)),
            (20.0, Point(10, 0)),   # held still 10..20
            (30.0, Point(0, 0)),
        ])
        assert hold.position_valid_until(5.0) == 5.0
        assert hold.position_valid_until(12.0) == 20.0
        # At the exact waypoint time the sampled position comes from a
        # fraction-1.0 interpolation of the *earlier* segment, which is not
        # guaranteed bit-identical to the held point: stay conservative.
        assert hold.position_valid_until(10.0) == 10.0
        assert hold.position_valid_until(35.0) == float("inf")
        self.check_contract(hold, [0.5 * k for k in range(70)])

    def test_piecewise_linear_before_first_waypoint(self):
        model = PiecewiseLinear([(10.0, Point(0, 0)), (20.0, Point(10, 0))])
        assert model.position_valid_until(2.0) == 10.0
        self.check_contract(model, [0.0, 2.0, 9.9, 10.0, 15.0, 25.0])

    def test_random_walk_never_pauses(self, terrain):
        from repro.mobility.walk import RandomWalk

        model = RandomWalk(terrain, 5)
        assert model.position_valid_until(3.0) == 3.0
        assert model.position_valid_until(0.0) == 0.0

    def test_trace_replay_has_pause_windows(self, terrain):
        from repro.mobility.trace import record_trace

        model = make_waypoint(
            terrain, seed=9, pause_time=20.0, speed_min=10.0, speed_max=20.0
        )
        replay = record_trace(model, duration=600.0, interval=1.0).as_model()
        times = [0.5 * k for k in range(1200)]
        self.check_contract(replay, times)
        assert any(replay.position_valid_until(t) > t for t in times)

    def test_base_default_is_conservative(self):
        from repro.mobility.base import MobilityModel

        class Opaque(MobilityModel):
            def position(self, time):
                return Point(0, 0)

        assert Opaque().position_valid_until(123.0) == 123.0
