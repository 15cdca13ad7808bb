"""Typed trace events: the observable vocabulary of a simulation run.

Every protocol-relevant moment — a query being issued, a cache hit, an
invalidation landing at a node, a relay promotion — is captured as one
small slotted dataclass carrying the simulation time plus the
identifiers needed to reconstruct the protocol dynamics afterwards.
Events serialise to flat JSON objects (``{"e": <type>, "time": <time>,
...fields}``), one per JSONL line, and deserialise back through
:func:`event_from_dict` or :func:`iter_jsonl`, so a trace written by one
process can be replayed — e.g. through
:class:`repro.obs.checker.InvariantChecker` — by another.

Loading: the event classes are built on first use, all at once (see
:func:`vocabulary`), so a run that traces nothing builds none of them;
emit sites reach them as ``events.ReadServed(...)`` behind their
``if trace.enabled:`` guard.

Writing: every event class gets one line writer, its ``to_json``,
compiled once at class creation from its dataclass fields (the way
``dataclasses`` builds ``__init__``): a single f-string behind one guard
that every value has its field's declared type — ``int``, finite
``float``, ``str`` or ``bool``, tested with ``type(v) is`` so that a
``bool`` never passes for an ``int``.  Any other value (``None``, NaN,
±inf, a nested value) sends the event through one shared
``JSONEncoder``.  Either way the line is the bytes of
``json.dumps(event.to_dict(), separators=(",", ":"))``.

Reading: each stripped line goes to the C scanner under ``json.loads``
(``JSONDecoder.scan_once``); when the keys come in the writer's order the
event is built positionally, otherwise by keyword.  A line that is not
UTF-8 or not JSON fails with ``json.loads``'s own message, and one with an
unknown tag, an unknown or missing field or a ``time`` that is not a
finite number fails too, each as a :class:`~repro.errors.ConfigurationError`
naming its line.

The taxonomy (see docs/OBSERVABILITY.md):

=====================  =============================================
query lifecycle        :class:`QueryIssued`, :class:`CacheHit`,
                       :class:`CacheMiss`, :class:`ReadServed`
source activity        :class:`SourceUpdate`, :class:`InvalidationSent`
dissemination          :class:`InvalidationReceived`
validation traffic     :class:`PollSent`, :class:`PollAnswered`,
                       :class:`FetchStarted`, :class:`FetchCompleted`
relay overlay          :class:`RelayPromoted`, :class:`RelayDemoted`
node churn             :class:`NodeOnline`, :class:`NodeOffline`
fault injection        :class:`FaultPartitionStarted`,
                       :class:`FaultPartitionEnded`,
                       :class:`FaultNodeCrashed`,
                       :class:`FaultNodeRebooted`,
                       :class:`FaultRelayKilled`
adaptive control       :class:`ControllerSampled`,
                       :class:`ControllerActuated`
bookkeeping            :class:`MetricsReset`
=====================  =============================================
"""

from __future__ import annotations

import dataclasses
import json
from json.encoder import encode_basestring_ascii as _encode_str
from math import inf
from types import MappingProxyType
from typing import Any, ClassVar, Dict, IO, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "TraceEvent",
    "QueryIssued",
    "CacheHit",
    "CacheMiss",
    "ReadServed",
    "SourceUpdate",
    "InvalidationSent",
    "InvalidationReceived",
    "PollSent",
    "PollAnswered",
    "FetchStarted",
    "FetchCompleted",
    "RelayPromoted",
    "RelayDemoted",
    "NodeOnline",
    "NodeOffline",
    "FaultPartitionStarted",
    "FaultPartitionEnded",
    "FaultNodeCrashed",
    "FaultNodeRebooted",
    "FaultRelayKilled",
    "ControllerSampled",
    "ControllerActuated",
    "MetricsReset",
    "EVENT_TYPES",
    "event_from_dict",
    "read_jsonl",
    "vocabulary",
]


#: The names :func:`vocabulary` defines: the event classes and their registry.
_VOCABULARY = frozenset(__all__[: __all__.index("EVENT_TYPES") + 1])
#: What :func:`vocabulary` built, once it has run.
_built: Optional[Mapping[str, Any]] = None

#: What ``json.dumps(..., separators=(",", ":"))`` builds afresh per call.
_encode_value = json.JSONEncoder(separators=(",", ":")).encode
#: The C scanner under ``json.loads``: ``(value, end index)`` of the JSON
#: value starting at an index, ``StopIteration`` where none starts.
_scan = json.JSONDecoder().scan_once
_skip_whitespace = json.decoder.WHITESPACE.match

#: Declared field type -> (guard, f-string rendering) of the value in the
#: local ``{0}``, for the values a compiled writer renders inline.  ``type(v)
#: is`` keeps a ``bool`` out of an ``int`` or ``float`` field and an ``int``
#: out of a ``float`` one; the range test keeps NaN and ±inf out.
_INLINE = {
    "int": ("type({0}) is int", "{{{0}}}"),
    "float": ("type({0}) is float and -inf < {0} < inf", "{{{0}!r}}"),
    "str": ("type({0}) is str", "{{_str({0})}}"),
    "bool": ("type({0}) is bool", "{{_bool[{0}]}}"),
}


def _compile_writer(cls: type) -> Any:
    """``cls.to_json``: one guarded f-string over the fields of ``cls``.

    Built from the dataclass fields the way ``dataclasses`` builds
    ``__init__``.  When every value has its field's declared type (``int``,
    finite ``float``, ``str``, ``bool``) the line is that one f-string; any
    other value sends the whole event through the shared encoder
    (``json.dumps`` of :meth:`TraceEvent.to_dict`).
    """
    fields = dataclasses.fields(cls)
    locals_ = [f"_{index}" for index in range(len(fields))]
    guards, template = [], '{{"e":' + _encode_str(cls.etype)
    for local, field in zip(locals_, fields):
        guard, render = _INLINE[field.type]
        guards.append(guard.format(local))
        template += "," + _encode_str(field.name) + ":" + render.format(local)
    template += "}}"
    attributes = ", ".join(f"self.{field.name}" for field in fields)
    source = (
        "def to_json(self):\n"
        f"    {', '.join(locals_)}, = {attributes},\n"
        f"    if {' and '.join(guards)}:\n"
        f"        return f{template!r}\n"
        "    return _encode_value(self.to_dict())\n"
    )
    namespace = {
        "inf": inf, "_str": _encode_str, "_bool": ("false", "true"),
        "_encode_value": _encode_value,
    }
    exec(source, namespace)
    writer = namespace["to_json"]
    writer.__qualname__ = f"{cls.__qualname__}.to_json"
    writer.__doc__ = _first_to_json.__doc__
    return writer


def _first_to_json(self: "TraceEvent") -> str:
    """One compact JSON object: :meth:`to_dict`, serialised.

    Byte-for-byte what ``json.dumps(self.to_dict(), separators=(",",
    ":"))`` returns; every JSONL writer calls this.  The first call on a
    class compiles its writer, which then is the class's ``to_json``, so
    that an untraced run compiles none.
    """
    cls = type(self)
    cls.to_json = _compile_writer(cls)
    return cls.to_json(self)


def _event(cls: type) -> type:
    """Make ``cls`` a slotted dataclass whose writer compiles on first use."""
    cls.__qualname__ = cls.__name__  # a module-level name, as pickle finds it
    cls = dataclasses.dataclass(slots=True)(cls)
    cls._field_names = tuple(field.name for field in dataclasses.fields(cls))
    cls.to_json = _first_to_json  # its own, so no class runs another's writer
    return cls


def vocabulary() -> Mapping[str, Any]:
    """Every event class by name, and ``EVENT_TYPES``: built on the first call.

    Until then the module holds none of them, so a run that traces nothing
    builds no event class; the first lookup of one (``events.ReadServed``,
    ``from repro.obs.events import ReadServed``) builds them all, as
    module-level classes of this module.
    """
    global _built
    if _built is None:
        classes = _define()
        globals().update(classes)
        _built = MappingProxyType(classes)
    return _built


def __getattr__(name: str) -> Any:
    if name in _VOCABULARY:
        return vocabulary()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted({*globals(), *_VOCABULARY})


def _define() -> Dict[str, Any]:
    """Build the vocabulary: every event class by name, and ``EVENT_TYPES``."""

    @_event
    class TraceEvent:
        """Base class: every event carries the simulation time it occurred."""

        etype: ClassVar[str] = "event"
        #: The dataclass fields in order (``time`` first), as JSON keys.
        _field_names: ClassVar[Tuple[str, ...]]

        time: float

        def to_dict(self) -> Dict[str, Any]:
            """Flat JSON-ready dictionary (``e`` = type tag, then the fields)."""
            payload: Dict[str, Any] = {"e": self.etype}
            for name in self._field_names:
                payload[name] = getattr(self, name)
            return payload

    @_event
    class QueryIssued(TraceEvent):
        """A workload query entered the system at ``node``."""

        etype: ClassVar[str] = "query_issued"
        node: int = 0
        item: int = 0
        level: str = "strong"
        query_id: int = 0

    @_event
    class CacheHit(TraceEvent):
        """The querying node holds a copy (or sources the item)."""

        etype: ClassVar[str] = "cache_hit"
        node: int = 0
        item: int = 0
        version: int = 0

    @_event
    class CacheMiss(TraceEvent):
        """The querying node holds no copy; discovery takes over."""

        etype: ClassVar[str] = "cache_miss"
        node: int = 0
        item: int = 0

    @_event
    class ReadServed(TraceEvent):
        """A query was answered at its issuing node.

        ``fallback`` marks answers served *without* the level's validation
        completing (push give-up, pull poll exhaustion, RPCC forced-stale,
        offline self-serves) — the invariant checker exempts them from the
        strong/Δ contracts but still audits weak monotonicity and validity.
        ``remote`` marks answers fetched from another holder's copy.
        """

        etype: ClassVar[str] = "read_served"
        node: int = 0
        item: int = 0
        version: int = 0
        level: str = "strong"
        query_id: int = 0
        served_locally: bool = False
        remote: bool = False
        fallback: bool = False
        cache_hit: bool = False
        latency: float = 0.0
        staleness_age: float = 0.0

    @_event
    class SourceUpdate(TraceEvent):
        """The source host advanced its master copy to ``version``."""

        etype: ClassVar[str] = "source_update"
        node: int = 0
        item: int = 0
        version: int = 0

    @_event
    class InvalidationSent(TraceEvent):
        """A source flooded an invalidation (``protocol``: push or rpcc)."""

        etype: ClassVar[str] = "invalidation_sent"
        node: int = 0
        item: int = 0
        version: int = 0
        ttl: int = 0
        protocol: str = "rpcc"

    @_event
    class InvalidationReceived(TraceEvent):
        """An invalidation was *delivered* to ``node`` (network layer).

        This is the checker's knowledge feed: once a node received version
        ``v`` it must never serve an older version to a strong read.
        """

        etype: ClassVar[str] = "invalidation_received"
        node: int = 0
        item: int = 0
        version: int = 0

    @_event
    class PollSent(TraceEvent):
        """A validation poll left ``node`` (``stage`` names the ladder rung)."""

        etype: ClassVar[str] = "poll_sent"
        node: int = 0
        item: int = 0
        poll_id: int = 0
        stage: str = "source"
        ttl: int = 0

    @_event
    class PollAnswered(TraceEvent):
        """A poll acknowledgement settled the query at ``node``.

        ``fresh`` is ``True`` when the poller's copy was confirmed current
        (ACK_A / up-to-date reply) and ``False`` when new content came back.
        """

        etype: ClassVar[str] = "poll_answered"
        node: int = 0
        item: int = 0
        poll_id: int = 0
        version: int = 0
        fresh: bool = True

    @_event
    class FetchStarted(TraceEvent):
        """A content refresh was requested from ``target`` (the source)."""

        etype: ClassVar[str] = "fetch_started"
        node: int = 0
        item: int = 0
        target: int = 0
        kind: str = "push-refresh"

    @_event
    class FetchCompleted(TraceEvent):
        """Fresh content landed, the local copy now holds ``version``."""

        etype: ClassVar[str] = "fetch_completed"
        node: int = 0
        item: int = 0
        version: int = 0
        kind: str = "push-refresh"

    @_event
    class RelayPromoted(TraceEvent):
        """``node`` became a relay peer for ``item`` (Fig 5: CANDIDATE→RELAY)."""

        etype: ClassVar[str] = "relay_promoted"
        node: int = 0
        item: int = 0

    @_event
    class RelayDemoted(TraceEvent):
        """``node`` resigned its relay role for ``item``."""

        etype: ClassVar[str] = "relay_demoted"
        node: int = 0
        item: int = 0
        reason: str = "resigned"

    @_event
    class NodeOnline(TraceEvent):
        """``node`` switched on (Section 4.5 churn)."""

        etype: ClassVar[str] = "node_online"
        node: int = 0

    @_event
    class NodeOffline(TraceEvent):
        """``node`` switched off."""

        etype: ClassVar[str] = "node_offline"
        node: int = 0

    @_event
    class FaultPartitionStarted(TraceEvent):
        """A fault-plan partition came into force (``fault.*`` family)."""

        etype: ClassVar[str] = "fault_partition_start"
        mode: str = "spatial"
        name: str = ""

    @_event
    class FaultPartitionEnded(TraceEvent):
        """A fault-plan partition healed; suppressed edges are restored."""

        etype: ClassVar[str] = "fault_partition_end"
        mode: str = "spatial"
        name: str = ""

    @_event
    class FaultNodeCrashed(TraceEvent):
        """``node`` was crashed by the fault plan.

        ``wiped`` distinguishes a crash whose cache did not survive — the
        invariant checker then forgets everything the node knew, since its
        obligations died with its state — from a power-cycle that keeps the
        (possibly stale) copies for the eventual reboot.
        """

        etype: ClassVar[str] = "fault_node_crash"
        node: int = 0
        wiped: bool = False

    @_event
    class FaultNodeRebooted(TraceEvent):
        """``node`` came back after a fault-plan crash."""

        etype: ClassVar[str] = "fault_node_reboot"
        node: int = 0

    @_event
    class FaultRelayKilled(TraceEvent):
        """A targeted relay kill took ``node`` down while relaying ``item``."""

        etype: ClassVar[str] = "fault_relay_kill"
        node: int = 0
        item: int = 0

    @_event
    class ControllerSampled(TraceEvent):
        """The online controller took one observation window."""

        etype: ClassVar[str] = "controller_sampled"
        policy: str = ""
        availability: float = 1.0
        stale_rate: float = 0.0
        query_rate: float = 0.0
        update_rate: float = 0.0
        partitions: int = 0
        relays: int = 0

    @_event
    class ControllerActuated(TraceEvent):
        """The controller changed one protocol knob at the actuation boundary.

        The invariant checker consumes ``knob == "ttp"`` events to move its
        knowledge-relative Δ contract: freshness windows opened *before* the
        actuation keep the old bound until they drain, windows opened after
        it are held to ``value``.
        """

        etype: ClassVar[str] = "controller_actuated"
        policy: str = ""
        knob: str = ""
        value: float = 0.0
        reason: str = ""

    @_event
    class MetricsReset(TraceEvent):
        """The warm-up window closed; metrics were reset."""

        etype: ClassVar[str] = "metrics_reset"

    classes = (
        QueryIssued,
        CacheHit,
        CacheMiss,
        ReadServed,
        SourceUpdate,
        InvalidationSent,
        InvalidationReceived,
        PollSent,
        PollAnswered,
        FetchStarted,
        FetchCompleted,
        RelayPromoted,
        RelayDemoted,
        NodeOnline,
        NodeOffline,
        FaultPartitionStarted,
        FaultPartitionEnded,
        FaultNodeCrashed,
        FaultNodeRebooted,
        FaultRelayKilled,
        ControllerSampled,
        ControllerActuated,
        MetricsReset,
    )
    built: Dict[str, Any] = {cls.__name__: cls for cls in classes}
    built["TraceEvent"] = TraceEvent
    #: Type-tag registry used by :func:`event_from_dict`.
    built["EVENT_TYPES"] = {cls.etype: cls for cls in classes}
    return built



def event_from_dict(payload: Dict[str, Any]) -> TraceEvent:
    """Reconstruct a typed event from its :meth:`~TraceEvent.to_dict` form.

    Anything but an object with a known ``e`` tag, every field of that
    type and no other key (in any order) and a finite ``int``/``float``
    ``time`` raises :class:`~repro.errors.ConfigurationError`.
    """
    vocabulary()
    return _event_from_fields(dict(payload) if isinstance(payload, dict) else payload)


def _event_from_fields(fields: Dict[str, Any]) -> TraceEvent:
    """:func:`event_from_dict` on a dict the caller gives up (``e`` is popped)."""
    try:
        tag = fields.pop("e", None)
    except (AttributeError, TypeError):  # not a dict: no ``pop(key, default)``
        raise ConfigurationError(
            f"trace event must be a JSON object, got {fields!r}"
        ) from None
    try:
        cls = EVENT_TYPES.get(tag)
    except TypeError:  # an unhashable tag
        cls = None
    if cls is None:
        raise ConfigurationError(f"unknown trace event type {tag!r}")
    names = cls._field_names
    if tuple(fields) == names:  # the writer's order: positional
        event = cls(*fields.values())
    else:
        try:
            event = cls(**fields)
        except TypeError as exc:
            raise ConfigurationError(f"malformed {tag!r} event: {exc}") from None
        if len(fields) < len(names):  # every key is a field, some are absent
            missing = ", ".join(name for name in names if name not in fields)
            raise ConfigurationError(f"malformed {tag!r} event: missing {missing}")
    time = event.time
    # One type test per event (the reader is on the replay's hot path);
    # the chained comparison rejects NaN as well as both infinities.
    if type(time) not in (float, int) or not -inf < time < inf:
        raise ConfigurationError(f"{tag!r} event time must be finite, got {time!r}")
    return event


def read_jsonl(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Load a JSONL trace back into typed events."""
    return list(iter_jsonl(source))


def iter_jsonl(source: Union[str, IO[str]]) -> Iterator[TraceEvent]:
    """Stream a JSONL trace as typed events (blank lines are skipped).

    A line that is not UTF-8, not one JSON value or not an event raises
    :class:`~repro.errors.ConfigurationError` naming the line.
    """
    if hasattr(source, "read"):
        yield from _iter_stream(source)  # type: ignore[arg-type]
        return
    # Undecodable bytes become lone surrogates, which no UTF-8 text
    # decodes to: the line that holds one is found, not the whole read.
    with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
        yield from _iter_stream(handle)


def _iter_stream(handle: IO[str]) -> Iterator[TraceEvent]:
    vocabulary()
    for number, line in enumerate(handle, 1):
        try:
            if not line.isascii():
                # Raises the UnicodeDecodeError of the bytes the line came from.
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            line = line.strip()
            if not line:
                continue
            # ``json.loads(line)`` without its wrapper, and with its messages.
            try:
                fields, end = _scan(line, 0)
            except StopIteration as stop:
                if line.startswith("\ufeff"):
                    raise json.JSONDecodeError(
                        "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                    ) from None
                raise json.JSONDecodeError("Expecting value", line, stop.value) from None
            if end != len(line):
                raise json.JSONDecodeError(
                    "Extra data", line, _skip_whitespace(line, end).end()
                )
            event = _event_from_fields(fields)
        except (ValueError, ConfigurationError) as exc:  # JSONDecodeError too
            raise ConfigurationError(f"trace line {number}: {exc}") from None
        yield event
