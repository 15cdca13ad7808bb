"""Unit tests for traffic counters, latency recording and staleness audits."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import MessageCounters
from repro.metrics.latency import LatencyRecorder
from repro.metrics.report import format_summary, format_table
from repro.metrics.staleness import StalenessTracker
from repro.metrics.timeseries import TimeSeries
from repro.net.message import Message


class TestMessageCounters:
    def test_record_accumulates(self):
        counters = MessageCounters()
        msg = Message(sender=1, size_bytes=100)
        counters.record_transmissions(msg, 3)
        counters.record_transmissions(msg, 2)
        assert counters.messages() == 2
        assert counters.transmissions() == 5
        assert counters.total_bytes() == 500

    def test_by_type_separation(self):
        class Ping(Message):
            pass

        counters = MessageCounters()
        counters.record_transmissions(Message(sender=1), 1)
        counters.record_transmissions(Ping(sender=1), 4)
        assert counters.transmissions("Ping") == 4
        assert counters.transmissions("Message") == 1
        assert counters.types() == ["Message", "Ping"]

    def test_filter_unknown_type_is_zero(self):
        assert MessageCounters().transmissions("Nope") == 0


class TestLatencyRecorder:
    def test_open_close_cycle(self):
        recorder = LatencyRecorder()
        record = recorder.open(1, 5, "strong", now=10.0)
        recorder.close(record.query_id, now=12.5, served_version=3)
        assert record.latency == pytest.approx(2.5)
        assert recorder.answered == 1
        assert recorder.unanswered == 0

    def test_unknown_close_tolerated(self):
        recorder = LatencyRecorder()
        assert recorder.close(999_999_999, now=1.0, served_version=0) is None

    def test_double_close_rejected(self):
        recorder = LatencyRecorder()
        record = recorder.open(1, 5, "weak", now=0.0)
        recorder.close(record.query_id, now=1.0, served_version=0)
        with pytest.raises(ProtocolError):
            recorder.close(record.query_id, now=2.0, served_version=0)

    def test_latency_of_unanswered_raises(self):
        recorder = LatencyRecorder()
        record = recorder.open(1, 5, "weak", now=0.0)
        with pytest.raises(ProtocolError):
            record.latency

    def test_mean_and_percentile(self):
        recorder = LatencyRecorder()
        for latency in (1.0, 2.0, 3.0, 4.0):
            record = recorder.open(1, 1, "weak", now=0.0)
            recorder.close(record.query_id, now=latency, served_version=0)
        assert recorder.mean_latency() == pytest.approx(2.5)
        assert recorder.percentile_latency(0.95) == 4.0

    def test_level_filter(self):
        recorder = LatencyRecorder()
        a = recorder.open(1, 1, "strong", now=0.0)
        recorder.close(a.query_id, now=10.0, served_version=0)
        b = recorder.open(1, 1, "weak", now=0.0)
        recorder.close(b.query_id, now=2.0, served_version=0)
        assert recorder.mean_latency("strong") == pytest.approx(10.0)
        assert recorder.mean_latency("weak") == pytest.approx(2.0)

    def test_hit_latency_subset(self):
        recorder = LatencyRecorder()
        hit = recorder.open(1, 1, "weak", now=0.0)
        hit.cache_hit = True
        recorder.close(hit.query_id, now=1.0, served_version=0)
        miss = recorder.open(1, 2, "weak", now=0.0)
        recorder.close(miss.query_id, now=9.0, served_version=0)
        assert recorder.mean_hit_latency() == pytest.approx(1.0)
        assert recorder.mean_latency() == pytest.approx(5.0)

    def test_local_answer_ratio(self):
        recorder = LatencyRecorder()
        a = recorder.open(1, 1, "weak", now=0.0)
        recorder.close(a.query_id, now=1.0, served_version=0, served_locally=True)
        b = recorder.open(1, 2, "weak", now=0.0)
        recorder.close(b.query_id, now=1.0, served_version=0)
        assert recorder.local_answer_ratio() == pytest.approx(0.5)

    def test_empty_summaries_are_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean_latency() == 0.0
        assert recorder.percentile_latency(0.5) == 0.0
        assert recorder.local_answer_ratio() == 0.0


def _outcome(mean, values):
    """``mean(values)`` as exact bits, or the exception it raises (fsum overflow)."""
    try:
        return float(mean(values)).hex()
    except OverflowError as error:
        return type(error)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestMeansAreFmean:
    """The metric means are ``statistics.fmean`` bit for bit, without loading it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FINITE, min_size=1, max_size=40))
    def test_latency_means(self, latencies):
        recorder = LatencyRecorder()
        for latency in latencies:
            record = recorder.open(1, 1, "weak", now=0.0)
            record.cache_hit = True
            recorder.close(record.query_id, now=latency, served_version=0)
        assert recorder.latencies() == latencies
        expected = _outcome(statistics.fmean, latencies)
        assert _outcome(lambda _: recorder.mean_latency(), latencies) == expected
        assert _outcome(lambda _: recorder.mean_hit_latency(), latencies) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 100.0), _FINITE), min_size=1, max_size=40),
        st.floats(0.5, 50.0),
    )
    def test_bucketed_mean(self, samples, width):
        series = TimeSeries()
        for time, value in sorted(samples, key=lambda sample: sample[0]):
            series.record(time, value)
        expected = [
            (start, _outcome(statistics.fmean, series.between(start, start + width)))
            for start, _ in series.bucketed(width, "count")
        ]
        if OverflowError in [outcome for _, outcome in expected]:
            with pytest.raises(OverflowError):
                series.bucketed(width, "mean")
        else:
            buckets = series.bucketed(width, "mean")
            assert [(start, mean.hex()) for start, mean in buckets] == expected


class TestStalenessTracker:
    def test_current_read_not_stale(self):
        tracker = StalenessTracker()
        tracker.record_update(1, 1, now=10.0)
        audit = tracker.record_read(1, 1, now=20.0, level="strong")
        assert audit.staleness_age == 0.0
        assert not audit.violated

    def test_stale_read_age(self):
        tracker = StalenessTracker()
        tracker.record_update(1, 1, now=10.0)  # version 0 superseded at 10
        audit = tracker.record_read(1, 0, now=25.0, level="strong")
        assert audit.staleness_age == pytest.approx(15.0)
        assert audit.violated
        assert audit.version_lag == 1

    def test_delta_violation_bound(self):
        tracker = StalenessTracker(delta=20.0)
        tracker.record_update(1, 1, now=10.0)
        fresh_enough = tracker.record_read(1, 0, now=25.0, level="delta")
        assert not fresh_enough.violated
        too_old = tracker.record_read(1, 0, now=35.0, level="delta")
        assert too_old.violated

    def test_explicit_delta_overrides_default(self):
        tracker = StalenessTracker(delta=1000.0)
        tracker.record_update(1, 1, now=0.0)
        audit = tracker.record_read(1, 0, now=50.0, level="delta", delta=10.0)
        assert audit.violated

    def test_weak_never_violated(self):
        tracker = StalenessTracker()
        for _ in range(5):
            tracker.record_update(1, tracker.current_version(1) + 1, now=1.0)
        audit = tracker.record_read(1, 0, now=100.0, level="weak")
        assert audit.staleness_age > 0
        assert not audit.violated

    def test_ratios(self):
        tracker = StalenessTracker()
        tracker.record_update(1, 1, now=0.0)
        tracker.record_read(1, 1, now=1.0, level="strong")
        tracker.record_read(1, 0, now=1.0, level="strong")
        assert tracker.stale_ratio() == pytest.approx(0.5)
        assert tracker.violation_ratio() == pytest.approx(0.5)
        assert tracker.reads == 2
        assert tracker.stale_reads() == 1

    def test_level_filtered_ratios(self):
        tracker = StalenessTracker()
        tracker.record_update(1, 1, now=0.0)
        tracker.record_read(1, 0, now=1.0, level="strong")
        tracker.record_read(1, 0, now=1.0, level="weak")
        assert tracker.violation_ratio("strong") == 1.0
        assert tracker.violation_ratio("weak") == 0.0

    def test_untracked_version_treated_as_ancient(self):
        tracker = StalenessTracker()
        tracker.record_update(1, 5, now=10.0)
        audit = tracker.record_read(1, 2, now=30.0, level="strong")
        assert audit.staleness_age == pytest.approx(30.0)


class TestCollector:
    def test_summary_shape(self):
        collector = MetricsCollector()
        collector.record_transmissions(Message(sender=1, size_bytes=10), 2)
        record = collector.latency.open(1, 1, "weak", now=0.0)
        collector.latency.close(record.query_id, now=1.0, served_version=0)
        collector.staleness.record_read(1, 0, now=1.0, level="weak")
        collector.bump("custom", 3)
        summary = collector.summary()
        assert summary.transmissions == 2
        assert summary.queries_answered == 1
        assert summary.counters == {"custom": 3}
        assert "Message" in summary.transmissions_by_type

    def test_reset_preserves_version_history(self):
        collector = MetricsCollector()
        collector.staleness.record_update(1, 1, now=5.0)
        collector.bump("x")
        collector.reset()
        assert collector.counter("x") == 0
        assert collector.summary().transmissions == 0
        audit = collector.staleness.record_read(1, 0, now=10.0, level="strong")
        assert audit.staleness_age == pytest.approx(5.0)  # history kept


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(("a", "b"), [(1, 2.5), (10, 0.25)], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_summary_contains_key_metrics(self):
        collector = MetricsCollector()
        collector.record_transmissions(Message(sender=1), 5)
        text = format_summary(collector.summary())
        assert "transmissions" in text
        assert "mean latency" in text
        assert "traffic by type" in text
