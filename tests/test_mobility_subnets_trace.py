"""Unit tests for the subnet grid, crossing tracker and mobility traces."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.subnets import SubnetGrid, SubnetTracker
from repro.mobility.terrain import Point, Terrain
from repro.mobility.trace import MobilityTrace, record_trace


class TestSubnetGrid:
    def test_cell_counts(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        assert grid.cols == 3
        assert grid.rows == 3
        assert grid.cell_count == 9

    def test_non_divisible_terrain_rounds_up(self):
        grid = SubnetGrid(Terrain(1000, 700), 300.0)
        assert grid.cols == 4
        assert grid.rows == 3

    def test_cell_of_interior_point(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        assert grid.cell_of(Point(100, 100)) == (0, 0)
        assert grid.cell_of(Point(700, 1200)) == (1, 2)

    def test_cell_of_clamps_outside_points(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        assert grid.cell_of(Point(-50, 5000)) == (0, 2)

    def test_border_point_belongs_to_upper_cell(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        assert grid.cell_of(Point(500.0, 0.0)) == (1, 0)

    def test_invalid_cell_size(self, terrain):
        with pytest.raises(ConfigurationError):
            SubnetGrid(terrain, 0.0)

    def test_nan_cell_size_rejected(self, terrain):
        # It used to escape as math.ceil's raw ValueError.
        with pytest.raises(ConfigurationError, match="cell_size"):
            SubnetGrid(terrain, float("nan"))


class TestSubnetTracker:
    def test_stationary_never_crosses(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        tracker = SubnetTracker(grid, Stationary(Point(100, 100)))
        assert tracker.crossings_between(0.0, 1000.0) == 0

    def test_straight_line_crossings(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        # Moves from x=100 to x=1400 over 100 s: crosses x=500 and x=1000.
        model = PiecewiseLinear([(0.0, Point(100, 250)), (100.0, Point(1400, 250))])
        tracker = SubnetTracker(grid, model, sample_interval=1.0)
        assert tracker.crossings_between(0.0, 100.0) == 2

    def test_empty_window(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        tracker = SubnetTracker(grid, Stationary(Point(0, 0)))
        assert tracker.crossings_between(50.0, 50.0) == 0

    def test_final_sample_counted(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        model = PiecewiseLinear([(0.0, Point(450, 0)), (10.0, Point(550, 0))])
        tracker = SubnetTracker(grid, model, sample_interval=100.0)
        assert tracker.crossings_between(0.0, 10.0) == 1

    def test_invalid_sample_interval(self, terrain):
        grid = SubnetGrid(terrain, 500.0)
        with pytest.raises(ConfigurationError):
            SubnetTracker(grid, Stationary(Point(0, 0)), sample_interval=0.0)

    def test_nan_sample_interval_rejected(self, terrain):
        # It used to count only the end-point crossing.
        grid = SubnetGrid(terrain, 500.0)
        with pytest.raises(ConfigurationError, match="sample_interval"):
            SubnetTracker(grid, Stationary(Point(0, 0)), sample_interval=float("nan"))


class TestMobilityTrace:
    def test_record_length(self):
        trace = record_trace(Stationary(Point(1, 2)), duration=10.0, interval=1.0)
        assert len(trace) == 11
        assert trace.duration == pytest.approx(10.0)

    def test_timestamps(self):
        trace = record_trace(Stationary(Point(0, 0)), duration=4.0, interval=2.0)
        assert trace.timestamps() == [0.0, 2.0, 4.0]

    def test_total_distance_stationary(self):
        trace = record_trace(Stationary(Point(3, 3)), duration=5.0)
        assert trace.total_distance() == 0.0

    def test_total_distance_linear(self):
        model = PiecewiseLinear([(0.0, Point(0, 0)), (10.0, Point(100, 0))])
        trace = record_trace(model, duration=10.0, interval=1.0)
        assert trace.total_distance() == pytest.approx(100.0)

    def test_replay_matches_original_at_samples(self):
        model = PiecewiseLinear([(0.0, Point(0, 0)), (10.0, Point(100, 50))])
        trace = record_trace(model, duration=10.0, interval=1.0)
        replay = trace.as_model()
        for t in trace.timestamps():
            original = model.position(t)
            replayed = replay.position(t)
            assert original.distance_to(replayed) < 1e-9

    def test_invalid_trace_parameters(self):
        with pytest.raises(ConfigurationError):
            MobilityTrace(0.0, 0.0, [Point(0, 0)])
        with pytest.raises(ConfigurationError):
            MobilityTrace(0.0, 1.0, [])
        with pytest.raises(ConfigurationError):
            record_trace(Stationary(Point(0, 0)), duration=-1.0)
