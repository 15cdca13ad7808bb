"""The trace-event vocabulary: serialisation, sinks, bus, engine wiring."""

from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    EVENT_TYPES,
    InvariantChecker,
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
            MetricsReset(time=float("nan")),
            NodeOnline(time=1.0, node=True),
            ControllerActuated(time=1.0, policy="p", knob="ttp", value=2, reason=""),
        ]
        for event in odd:
            assert event.to_json() == json.dumps(
                event.to_dict(), separators=(",", ":")
            )


#: A value of each declared field type, the edges each writer branch has
#: to get right included: ints past 2**63, NaN, ±inf, -0.0, 1e-7, quotes,
#: control characters and non-ASCII text.
_TYPED_VALUE = {
    "int": st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**80)),
    "float": st.one_of(
        st.floats(), st.sampled_from([-0.0, 1e-7, math.nan, math.inf, -math.inf])
    ),
    "str": st.one_of(
        st.text(), st.sampled_from(['"', "\\", "\x00\n\t\x1f", "é€😀", "{}"])
    ),
    "bool": st.booleans(),
}
#: Any JSON-ready value: ``None``, one of a declared type or a nested list.
_ANY_VALUE = st.recursive(
    st.one_of(st.none(), *_TYPED_VALUE.values()),
    lambda children: st.lists(children, max_size=3),
    max_leaves=4,
)


def _off_type(declared):
    """A value the writer must not render as a ``declared`` one."""
    return st.one_of(
        st.none(),
        *(values for kind, values in _TYPED_VALUE.items() if kind != declared),
        st.lists(_ANY_VALUE, max_size=3),
    )


@st.composite
def _any_event(draw):
    """An event of any type whose values all have the declared types (the
    compiled line) but at most one, which has another (the guard)."""
    cls = draw(st.sampled_from(sorted(EVENT_TYPES.values(), key=lambda c: c.etype)))
    fields = dataclasses.fields(cls)
    odd = draw(st.sampled_from([None, *fields]))
    return cls(**{
        field.name: draw(_off_type(field.type) if field is odd
                         else _TYPED_VALUE[field.type])
        for field in fields
    })


def _finite(value):
    if isinstance(value, list):
        return all(_finite(item) for item in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestWriterProperty:
    @settings(max_examples=400, deadline=None)
    @given(event=_any_event(), order=st.randoms(use_true_random=False))
    def test_line_is_the_compact_dump_and_reads_back(self, event, order):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.on_event(event)
        line = buffer.getvalue()
        payload = event.to_dict()
        assert line == json.dumps(payload, separators=(",", ":")) + "\n"

        time = event.time
        if type(time) not in (int, float) or not math.isfinite(time):
            return  # the reader rejects it (tested elsewhere)
        (back,) = read_jsonl(io.StringIO(line))
        if all(_finite(value) for value in payload.values()):
            assert back == event
        # Keys out of the writer's order: the keyword path, same event.
        items = list(payload.items())
        order.shuffle(items)
        (shuffled,) = read_jsonl(io.StringIO(json.dumps(dict(items)) + "\n"))
        assert shuffled.to_json() == back.to_json()


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

    @pytest.mark.parametrize("line,message", [
        ("not json", "trace line 2: Expecting value"),
        ("[1, 2]", "trace line 2: trace event must be a JSON object"),
        ('"x"', "trace line 2: trace event must be a JSON object"),
        ("3", "trace line 2: trace event must be a JSON object"),
        ('{"e": "node_online", "time": "soon", "node": 2}', "trace line 2: .* finite"),
        ('{"e": "node_online", "time": true, "node": 2}', "trace line 2: .* finite"),
        ('{"e": "node_online", "time": NaN, "node": 2}', "trace line 2: .* finite"),
        ('{"e": "node_online", "time": -Infinity, "node": 2}', "trace line 2: .* finite"),
        ('{"e": "node_online", "time": null, "node": 2}', "trace line 2: .* finite"),
    ])
    def test_malformed_line_is_a_configuration_error_naming_it(self, line, message):
        good = NodeOnline(time=0, node=1).to_json()
        for reader in (read_jsonl, lambda handle: list(iter_jsonl(handle))):
            with pytest.raises(ConfigurationError, match=message):
                reader(io.StringIO(f"{good}\n{line}\n{good}\n"))

    @pytest.mark.parametrize("payload", [
        [1, 2], "x", 3,
        {"e": "node_online", "time": "soon", "node": 2},
        {"e": "node_online", "time": False, "node": 2},
        {"e": "node_online", "time": float("inf"), "node": 2},
        {"e": ["node_online"], "time": 0.0, "node": 2},
    ])
    def test_from_dict_rejects_non_objects_and_bad_times(self, payload):
        with pytest.raises(ConfigurationError):
            event_from_dict(payload)

    @pytest.mark.parametrize("line", [
        '{"e":"node_online","time":1,"node":2} x',
        '{"e":"node_online","time":1,"node":2}\t\t[]',
        '\ufeff{"e":"node_online","time":1,"node":2}',
        '{"e":"node_online","time":1,',
        '{"e":"node_online" "time":1}',
        '"unterminated',
        "nul",
        "]",
    ])
    def test_json_errors_read_as_json_loads_words_them(self, line):
        """The reader calls the scanner itself; its messages are still
        the ones ``json.loads`` gives for the same line."""
        with pytest.raises(ValueError) as expected:
            json.loads(line)
        for reader in (read_jsonl, lambda handle: list(iter_jsonl(handle))):
            with pytest.raises(ConfigurationError) as raised:
                reader(io.StringIO(f"\n{line}\n"))
            assert str(raised.value) == f"trace line 2: {expected.value}"

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        good = NodeOnline(time=0, node=1).to_json().encode()
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            good + b"\n" + good + b"\n"
            + b'{"e":"relay_demoted","time":1.0,"node":2,"item":3,"reason":"\xff"}\n'
            + good + b"\n"
        )
        for reader in (read_jsonl, lambda source: list(iter_jsonl(source))):
            with pytest.raises(
                ConfigurationError,
                match=r"^trace line 3: 'utf-8' codec can't decode byte 0xff",
            ):
                reader(str(path))

    def test_non_ascii_utf8_reads_back(self, tmp_path):
        path = tmp_path / "utf8.jsonl"
        event = RelayDemoted(time=1.0, node=2, item=3, reason="é€😀")
        path.write_text(
            '{"e":"relay_demoted","time":1.0,"node":2,"item":3,"reason":"é€😀"}\n',
            encoding="utf-8",
        )
        assert read_jsonl(str(path)) == [event]

    def test_float_times_survive_exactly(self):
        event = ReadServed(time=123.456789012345, node=1, item=2, version=3,
                           latency=0.1 + 0.2)
        buffer = io.StringIO()
        _write([event], buffer)
        buffer.seek(0)
        (back,) = read_jsonl(buffer)
        assert back.time == event.time
        assert back.latency == event.latency


def _feed(payload):
    InvariantChecker().feed(payload)


def _read_line(payload):
    read_jsonl(io.StringIO(json.dumps(payload) + "\n"))


def _iter_line(payload):
    list(iter_jsonl(io.StringIO(json.dumps(payload) + "\n")))


#: Every public way a trace event gets in from outside the process.
READERS = {
    "event_from_dict": event_from_dict,
    "InvariantChecker.feed": _feed,
    "read_jsonl": _read_line,
    "iter_jsonl": _iter_line,
}


class TestMissingFields:
    """A line without a field of its type names it instead of reading as a
    default: ``{"e":"node_online","time":1.0}`` is not node 0 going online."""

    @pytest.mark.parametrize("reader", READERS.values(), ids=list(READERS))
    def test_missing_field_is_rejected(self, reader):
        with pytest.raises(
            ConfigurationError, match=r"'node_online' event: missing node$"
        ):
            reader({"e": "node_online", "time": 1.0})

    @pytest.mark.parametrize("reader", READERS.values(), ids=list(READERS))
    def test_every_missing_field_is_named(self, reader):
        payload = SAMPLE_EVENTS[3].to_dict()  # a ReadServed
        for name in ("item", "query_id", "staleness_age"):
            del payload[name]
        with pytest.raises(
            ConfigurationError,
            match=r"'read_served' event: missing item, query_id, staleness_age$",
        ):
            reader(payload)

    @pytest.mark.parametrize("reader", READERS.values(), ids=list(READERS))
    def test_unknown_key_is_still_rejected(self, reader):
        payload = {"e": "node_online", "time": 1.0, "node": 2, "nod": 2}
        with pytest.raises(ConfigurationError, match="unexpected keyword"):
            reader(payload)

    def test_missing_field_names_its_line(self):
        good = NodeOnline(time=0, node=1).to_json()
        with pytest.raises(
            ConfigurationError, match="^trace line 2: malformed 'node_online' event: missing node$"
        ):
            read_jsonl(io.StringIO(f'{good}\n{{"e":"node_online","time":1.0}}\n'))


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
