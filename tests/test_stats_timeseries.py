"""Unit tests for the time-series recorder."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.timeseries import TimeSeries


class TestTimeSeries:
    def test_record_and_access(self):
        series = TimeSeries("traffic")
        series.record(0.0, 10.0)
        series.record(5.0, 20.0)
        assert len(series) == 2
        assert series.times == [0.0, 5.0]
        assert series.values == [10.0, 20.0]
        assert series.last() == (5.0, 20.0)

    def test_empty_last(self):
        assert TimeSeries().last() is None

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.record(5.0, 1.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        assert len(series) == 2

    def test_between(self):
        series = TimeSeries()
        for t in range(10):
            series.record(float(t), float(t))
        assert series.between(2.0, 5.0) == [2.0, 3.0, 4.0]

    def test_bucketed_mean(self):
        series = TimeSeries()
        for t, v in ((0.0, 1.0), (1.0, 3.0), (10.0, 10.0)):
            series.record(t, v)
        buckets = series.bucketed(5.0)
        assert buckets == [(0.0, 2.0), (10.0, 10.0)]

    def test_bucketed_sum_and_count(self):
        series = TimeSeries()
        for t in (0.0, 1.0, 2.0, 7.0):
            series.record(t, 2.0)
        assert series.bucketed(5.0, "sum") == [(0.0, 6.0), (5.0, 2.0)]
        assert series.bucketed(5.0, "count") == [(0.0, 3.0), (5.0, 1.0)]

    def test_bucketed_empty(self):
        assert TimeSeries().bucketed(5.0) == []

    def test_bucketed_validation(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.bucketed(0.0)
        with pytest.raises(ConfigurationError):
            series.bucketed(5.0, "median")

    def test_rate_per_second(self):
        series = TimeSeries()
        for t in (0.0, 1.0, 2.0, 3.0, 12.0):
            series.record(t, 1.0)
        rates = series.rate_per_second(10.0)
        assert rates == [(0.0, 0.4), (10.0, 0.1)]
