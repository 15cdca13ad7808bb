"""Unit tests of the trace-driven invariant checker on synthetic traces."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    CheckReport,
    ControllerActuated,
    InvalidationReceived,
    InvariantChecker,
    ReadServed,
    SourceUpdate,
    check_events,
)
from repro.obs.checker import _TIME_EPSILON


def read(time, node=2, item=0, version=0, level="strong", **kwargs):
    return ReadServed(time=time, node=node, item=item, version=version,
                      level=level, **kwargs)


class TestStrong:
    def test_serving_known_stale_version_is_a_violation(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(10.0, version=0),
        ])
        assert not report.ok
        assert report.by_invariant() == {"strong": 1}
        (violation,) = report.violations
        assert violation.node == 2 and violation.item == 0
        assert violation.served_version == 0
        assert "v1" in violation.detail

    def test_serve_within_slack_is_tolerated(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(1.5, version=0),  # answer already in flight
        ])
        assert report.ok

    def test_unknown_update_cannot_be_held_against_the_node(self):
        # Knowledge-relative: no invalidation was delivered, so a stale
        # strong serve is the network's fault, not the protocol's.
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=3),
            read(50.0, version=0),
        ])
        assert report.ok

    def test_serving_the_known_version_is_fine(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(10.0, version=1),
        ])
        assert report.ok

    def test_source_update_counts_as_own_knowledge(self):
        # The source itself (node 0) can never serve below its own master.
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            read(10.0, node=0, version=0),
        ])
        assert report.by_invariant() == {"strong": 1}

    def test_duplicate_and_stale_deliveries_ignored(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=2),
            InvalidationReceived(time=1.0, node=2, item=0, version=2),
            InvalidationReceived(time=5.0, node=2, item=0, version=2),
            InvalidationReceived(time=6.0, node=2, item=0, version=1),
            read(7.5, version=2),
        ])
        assert report.ok


class TestDelta:
    def test_lag_within_delta_is_allowed(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(100.0, version=0, level="delta"),
        ], delta=240.0)
        assert report.ok

    def test_lag_beyond_delta_plus_slack_is_a_violation(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(300.0, version=0, level="delta"),
        ], delta=240.0)
        assert report.by_invariant() == {"delta": 1}

    def test_delta_bound_is_configurable(self):
        events = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(100.0, version=0, level="delta"),
        ]
        assert check_events(events, delta=240.0).ok
        assert not check_events(events, delta=30.0).ok


class TestBoundaries:
    """Both comparisons a Δ/strong verdict turns on, at equality."""

    def test_a_lag_equal_to_the_allowance_is_not_a_violation(self):
        # Knowledge at t = 0.0 keeps the float arithmetic exact: the lag
        # is the read time, and the read time is allowance + epsilon.
        at_limit = 1.0 + _TIME_EPSILON
        known = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=0.0, node=2, item=0, version=1),
        ]
        assert check_events(known + [read(at_limit, version=0)], slack=1.0).ok
        past_limit = math.nextafter(at_limit, math.inf)
        report = check_events(known + [read(past_limit, version=0)], slack=1.0)
        assert report.by_invariant() == {"strong": 1}

    def test_knowledge_delivered_at_a_raising_actuation_gets_the_raised_bound(self):
        events = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            ControllerActuated(time=100.0, policy="p", knob="ttp", value=500.0, reason="test"),
            InvalidationReceived(time=100.0, node=2, item=0, version=1),
            read(400.0, version=0, level="delta"),
        ]
        assert check_events(events, delta=240.0).ok
        # The same lag of 300 s breaks the bound in force before the raise.
        without_raise = [events[0]] + events[2:]
        assert check_events(without_raise, delta=240.0).by_invariant() == {"delta": 1}


class TestWeakMonotone:
    def test_local_weak_serves_never_downgrade(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=2),
            read(1.0, version=2, level="weak", served_locally=True),
            read(2.0, version=1, level="weak", served_locally=True),
        ])
        assert report.by_invariant() == {"weak-monotone": 1}

    def test_remote_weak_serves_are_exempt(self):
        # A different holder legitimately has an older copy.
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=2),
            read(1.0, version=2, level="weak", served_locally=True),
            read(2.0, version=1, level="weak", remote=True),
        ])
        assert report.ok

    def test_equal_version_is_not_a_downgrade(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            read(1.0, version=1, level="weak", served_locally=True),
            read(2.0, version=1, level="weak", served_locally=True),
        ])
        assert report.ok


class TestValidity:
    def test_served_version_cannot_exceed_ground_truth(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            read(1.0, version=5),
        ])
        assert report.by_invariant() == {"validity": 1}

    def test_validity_applies_to_fallback_reads_too(self):
        report = check_events([
            read(1.0, version=5, fallback=True),
        ])
        assert report.by_invariant() == {"validity": 1}


class TestTimeOrder:
    def test_backwards_timestamps_flagged(self):
        report = check_events([
            SourceUpdate(time=5.0, node=0, item=0, version=1),
            SourceUpdate(time=2.0, node=0, item=1, version=1),
        ])
        assert report.by_invariant() == {"time-order": 1}

    def test_equal_timestamps_are_fine(self):
        report = check_events([
            SourceUpdate(time=5.0, node=0, item=0, version=1),
            SourceUpdate(time=5.0, node=0, item=1, version=1),
        ])
        assert report.ok


class TestFallbackExemption:
    def test_fallback_read_escapes_strong_and_delta(self):
        base = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
        ]
        for level in ("strong", "delta"):
            report = check_events(
                base + [read(500.0, version=0, level=level, fallback=True)]
            )
            assert report.ok, level
            assert report.fallback_reads == 1

    def test_fallback_still_faces_weak_monotone(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=2),
            read(1.0, version=2, level="weak", served_locally=True),
            read(2.0, version=1, level="weak", served_locally=True, fallback=True),
        ])
        assert report.by_invariant() == {"weak-monotone": 1}


class TestReportAndPlumbing:
    def test_counts(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            read(1.0, version=1),
            read(2.0, version=1, fallback=True),
        ])
        assert report.events == 3
        assert report.reads_checked == 2
        assert report.fallback_reads == 1
        assert isinstance(report, CheckReport)

    def test_dicts_are_accepted(self):
        events = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(10.0, version=0),
        ]
        report = check_events([e.to_dict() for e in events])
        assert report.by_invariant() == {"strong": 1}

    def test_format_ok(self):
        text = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            read(1.0, version=1),
        ]).format()
        assert "OK" in text and "reads checked: 1" in text

    def test_format_failure_lists_violations(self):
        text = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(10.0, version=0),
        ]).format()
        assert "FAILED" in text and "[strong]" in text

    def test_format_truncates(self):
        events = [SourceUpdate(time=0.0, node=0, item=0, version=1)]
        events += [read(float(i + 1), version=5) for i in range(30)]
        text = check_events(events).format(max_violations=5)
        assert "... 25 more" in text

    def test_streaming_api_matches_one_shot(self):
        events = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=1.0, node=2, item=0, version=1),
            read(10.0, version=0),
        ]
        checker = InvariantChecker()
        for event in events:
            checker.feed(event)
        assert checker.finish().by_invariant() == check_events(events).by_invariant()

    @pytest.mark.parametrize("bound", [
        {"delta": float("nan")}, {"delta": float("inf")}, {"delta": -1.0},
        {"slack": float("nan")}, {"slack": float("inf")}, {"slack": -5.0},
    ])
    def test_a_bound_that_can_never_fail_is_rejected(self, bound):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            InvariantChecker(**bound)
        with pytest.raises(ConfigurationError):
            check_events([], **bound)

    def test_zero_bounds_are_legal(self):
        assert check_events([], delta=0.0, slack=0.0).ok

    @pytest.mark.parametrize("level", ["strong", "delta", "weak"])
    def test_empty_trace_is_ok(self, level):
        assert check_events([]).ok
