"""The trace-event vocabulary: serialisation, sinks, bus, engine wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EVENT_TYPES,
    CacheHit,
    CacheMiss,
    ControllerActuated,
    ControllerSampled,
    FaultNodeCrashed,
    FaultNodeRebooted,
    FaultPartitionEnded,
    FaultPartitionStarted,
    FaultRelayKilled,
    FetchCompleted,
    FetchStarted,
    InvalidationReceived,
    InvalidationSent,
    JsonlSink,
    ListSink,
    MetricsReset,
    NodeOffline,
    NodeOnline,
    NullTraceBus,
    NULL_TRACE,
    PollAnswered,
    PollSent,
    QueryIssued,
    ReadServed,
    RelayDemoted,
    RelayPromoted,
    SourceUpdate,
    TraceBus,
    event_from_dict,
    iter_jsonl,
    read_jsonl,
)
from repro.sim.engine import Simulator

SAMPLE_EVENTS = [
    QueryIssued(time=1.0, node=3, item=7, level="strong", query_id=42),
    CacheHit(time=1.0, node=3, item=7, version=2),
    CacheMiss(time=1.5, node=4, item=7),
    ReadServed(
        time=2.25, node=3, item=7, version=2, level="strong", query_id=42,
        served_locally=True, remote=False, fallback=False, cache_hit=True,
        latency=1.25, staleness_age=0.0,
    ),
    SourceUpdate(time=3.0, node=7, item=7, version=3),
    InvalidationSent(time=4.0, node=7, item=7, version=3, ttl=3, protocol="rpcc"),
    InvalidationReceived(time=4.01, node=3, item=7, version=3),
    PollSent(time=5.0, node=3, item=7, poll_id=9, stage="flood", ttl=1),
    PollAnswered(time=5.1, node=3, item=7, poll_id=9, version=3, fresh=False),
    FetchStarted(time=6.0, node=5, item=7, target=7, kind="get-new"),
    FetchCompleted(time=6.2, node=5, item=7, version=3, kind="get-new"),
    RelayPromoted(time=7.0, node=5, item=7),
    RelayDemoted(time=8.0, node=5, item=7, reason="ineligible"),
    NodeOnline(time=9.0, node=2),
    NodeOffline(time=9.5, node=2),
    FaultPartitionStarted(time=9.6, mode="spatial", name="east-west"),
    FaultPartitionEnded(time=9.7, mode="spatial", name="east-west"),
    FaultNodeCrashed(time=9.8, node=4, wiped=True),
    FaultNodeRebooted(time=9.85, node=4),
    FaultRelayKilled(time=9.9, node=5, item=7),
    ControllerSampled(
        time=9.95, policy="hysteresis", availability=0.85, stale_rate=0.04,
        query_rate=1.5, update_rate=0.2, partitions=1, relays=3,
    ),
    ControllerActuated(
        time=9.95, policy="hysteresis", knob="ttp", value=120.0,
        reason="tighten: 1 open partition(s)",
    ),
    MetricsReset(time=10.0),
]


class TestSerialisation:
    def test_every_event_type_is_registered(self):
        assert len(EVENT_TYPES) == 23
        for event in SAMPLE_EVENTS:
            assert EVENT_TYPES[event.etype] is type(event)

    def test_registry_tags_are_unique_and_stable(self):
        assert set(EVENT_TYPES) == {
            "query_issued", "cache_hit", "cache_miss", "read_served",
            "source_update", "invalidation_sent", "invalidation_received",
            "poll_sent", "poll_answered", "fetch_started", "fetch_completed",
            "relay_promoted", "relay_demoted", "node_online", "node_offline",
            "fault_partition_start", "fault_partition_end", "fault_node_crash",
            "fault_node_reboot", "fault_relay_kill",
            "controller_sampled", "controller_actuated",
            "metrics_reset",
        }

    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.etype)
    def test_dict_round_trip(self, event):
        payload = event.to_dict()
        assert payload["e"] == event.etype
        assert payload["time"] == event.time
        assert event_from_dict(payload) == event

    def test_to_dict_is_json_ready(self):
        for event in SAMPLE_EVENTS:
            json.dumps(event.to_dict())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            event_from_dict({"e": "warp_drive", "time": 0.0})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            event_from_dict({"e": "cache_hit", "time": 0.0, "bogus_field": 1})

    def test_from_dict_leaves_the_payload_alone(self):
        payload = SAMPLE_EVENTS[0].to_dict()
        before = dict(payload)
        event_from_dict(payload)
        assert payload == before

    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.etype)
    def test_to_json_is_the_compact_dump_of_to_dict(self, event):
        assert event.to_json() == json.dumps(event.to_dict(), separators=(",", ":"))

    def test_to_json_values_without_a_fast_path(self):
        """None, NaN, ±inf, huge ints, escapes, bool-for-float and nested
        values all come out as ``json.dumps`` writes them."""
        odd = [
            ControllerActuated(time=float("nan"), policy="p", knob="ttp",
                               value=float("inf"), reason='q"uo\te\n \u00e9'),
            ControllerSampled(time=1e-7, policy=None, availability=float("-inf"),
                              partitions=10**30),
            CacheHit(time=True, node=[1, {"a": None}], item=(1, 2), version=1.5e300),
            MetricsReset(time=0),
        ]
        for event in odd:
            assert event.to_json() == json.dumps(
                event.to_dict(), separators=(",", ":")
            )


def _write(events, target):
    """Write ``events`` the way a traced run does: through a JsonlSink."""
    sink = JsonlSink(target)
    for event in events:
        sink.on_event(event)
    sink.close()
    return sink.events_written


class TestJsonl:
    def test_stream_round_trip(self):
        buffer = io.StringIO()
        written = _write(SAMPLE_EVENTS, buffer)
        assert written == len(SAMPLE_EVENTS)
        buffer.seek(0)
        assert read_jsonl(buffer) == SAMPLE_EVENTS

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write(SAMPLE_EVENTS, str(path))
        assert read_jsonl(str(path)) == SAMPLE_EVENTS
        # One JSON object per line.
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(SAMPLE_EVENTS)

    def test_iter_skips_blank_lines(self):
        buffer = io.StringIO()
        _write(SAMPLE_EVENTS[:2], buffer)
        buffer.write("\n\n")
        _write(SAMPLE_EVENTS[2:3], buffer)
        buffer.seek(0)
        assert list(iter_jsonl(buffer)) == SAMPLE_EVENTS[:3]

    def test_float_times_survive_exactly(self):
        event = ReadServed(time=123.456789012345, node=1, item=2, version=3,
                           latency=0.1 + 0.2)
        buffer = io.StringIO()
        _write([event], buffer)
        buffer.seek(0)
        (back,) = read_jsonl(buffer)
        assert back.time == event.time
        assert back.latency == event.latency


class TestSinks:
    def test_list_sink_accumulates_in_order(self):
        sink = ListSink()
        for event in SAMPLE_EVENTS:
            sink.on_event(event)
        assert sink.events == SAMPLE_EVENTS
        assert len(sink) == len(SAMPLE_EVENTS)

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(str(path))
        for event in SAMPLE_EVENTS:
            sink.on_event(event)
        sink.close()
        assert sink.events_written == len(SAMPLE_EVENTS)
        assert read_jsonl(str(path)) == SAMPLE_EVENTS

    def test_jsonl_sink_borrowed_handle_not_closed(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.on_event(SAMPLE_EVENTS[0])
        sink.close()
        assert not buffer.closed  # flushed, not closed
        buffer.seek(0)
        assert read_jsonl(buffer) == SAMPLE_EVENTS[:1]

    def test_jsonl_sink_writes_each_event_once(self):
        """One ``write`` per event, each a whole line."""
        chunks = []

        class Recorder(io.StringIO):
            def write(self, text):
                chunks.append(text)
                return super().write(text)

        sink = JsonlSink(Recorder())
        for event in SAMPLE_EVENTS:
            sink.on_event(event)
        assert chunks == [event.to_json() + "\n" for event in SAMPLE_EVENTS]

    def test_jsonl_sink_closed_raises(self):
        """A real error, not an ``assert`` that ``python -O`` removes."""
        sink = JsonlSink(io.StringIO())
        sink.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sink.on_event(SAMPLE_EVENTS[0])
        assert sink.events_written == 0

class TestBus:
    def test_fan_out_to_multiple_sinks(self):
        bus = TraceBus()
        first = bus.add_sink(ListSink())
        second = bus.add_sink(ListSink())
        bus.emit(SAMPLE_EVENTS[0])
        assert first.events == second.events == SAMPLE_EVENTS[:1]
        assert bus.events_emitted == 1

    def test_close_closes_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        bus = TraceBus()
        bus.add_sink(JsonlSink(str(path)))
        bus.emit(SAMPLE_EVENTS[0])
        bus.close()
        assert read_jsonl(str(path)) == SAMPLE_EVENTS[:1]

    def test_enabled_flags(self):
        assert TraceBus().enabled is True
        assert NullTraceBus().enabled is False
        assert NULL_TRACE.enabled is False

    def test_null_bus_discards(self):
        NULL_TRACE.emit(SAMPLE_EVENTS[0])  # must not raise
        NULL_TRACE.close()


class TestEngineWiring:
    def test_simulator_defaults_to_null_trace(self):
        assert Simulator().trace is NULL_TRACE
