"""Typed trace events: the observable vocabulary of a simulation run.

Every protocol-relevant moment — a query being issued, a cache hit, an
invalidation landing at a node, a relay promotion — is captured as one
small dataclass carrying the simulation time plus the identifiers needed
to reconstruct the protocol dynamics afterwards.  Events serialise to
flat JSON dictionaries (``{"e": <type>, "t": <time>, ...fields}``), one
per JSONL line, and deserialise back through :func:`event_from_dict`, so
a trace written by one process can be replayed — e.g. through
:class:`repro.obs.checker.InvariantChecker` — by another.

There is one codec per event type, built on first use and shared by
every writer: the field names in order and, beside each, the JSON text
that precedes its value.  :meth:`TraceEvent.to_json` fills that template
with ``int`` / ``str`` / finite ``float`` / ``bool`` values rendered
directly and anything else (``None``, NaN, ±inf, nested values) through
the one module-level encoder — the bytes ``json.dumps(event.to_dict(),
separators=(",", ":"))`` would produce, without a ``JSONEncoder`` and a
``dataclasses.fields()`` walk per event.

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
from math import inf, isfinite
from typing import Any, ClassVar, Dict, IO, Iterator, List, Tuple, Union

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
]


#: What ``json.dumps(..., separators=(",", ":"))`` builds afresh per call.
_encode_value = json.JSONEncoder(separators=(",", ":")).encode

#: Event class -> (field names, JSON text preceding each field's value).
_CODECS: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def _codec(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Field names of ``cls`` (``time`` first) and their key templates."""
    codec = _CODECS.get(cls)
    if codec is None:
        names = ("time",) + tuple(
            field.name for field in dataclasses.fields(cls) if field.name != "time"
        )
        head = '{"e":' + _encode_str(cls.etype)
        prefixes = tuple(
            (head if index == 0 else "") + "," + _encode_str(name) + ":"
            for index, name in enumerate(names)
        )
        codec = _CODECS[cls] = names, prefixes
    return codec


@dataclasses.dataclass
class TraceEvent:
    """Base class: every event carries the simulation time it occurred."""

    etype: ClassVar[str] = "event"

    time: float

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dictionary (``e`` = type tag, then the fields)."""
        payload: Dict[str, Any] = {"e": self.etype}
        for name in _codec(type(self))[0]:
            payload[name] = getattr(self, name)
        return payload

    def to_json(self) -> str:
        """One compact JSON object: :meth:`to_dict`, serialised.

        Byte-for-byte what ``json.dumps(self.to_dict(), separators=(",",
        ":"))`` returns; every JSONL writer calls this.
        """
        names, prefixes = _codec(type(self))
        parts: List[str] = []
        for name, prefix in zip(names, prefixes):
            value = getattr(self, name)
            kind = type(value)
            if kind is int:
                text = int.__repr__(value)
            elif kind is str:
                text = _encode_str(value)
            elif kind is float and isfinite(value):
                text = float.__repr__(value)
            elif kind is bool:
                text = "true" if value else "false"
            else:
                text = _encode_value(value)
            parts.append(prefix)
            parts.append(text)
        parts.append("}")
        return "".join(parts)


@dataclasses.dataclass
class QueryIssued(TraceEvent):
    """A workload query entered the system at ``node``."""

    etype: ClassVar[str] = "query_issued"
    node: int = 0
    item: int = 0
    level: str = "strong"
    query_id: int = 0


@dataclasses.dataclass
class CacheHit(TraceEvent):
    """The querying node holds a copy (or sources the item)."""

    etype: ClassVar[str] = "cache_hit"
    node: int = 0
    item: int = 0
    version: int = 0


@dataclasses.dataclass
class CacheMiss(TraceEvent):
    """The querying node holds no copy; discovery takes over."""

    etype: ClassVar[str] = "cache_miss"
    node: int = 0
    item: int = 0


@dataclasses.dataclass
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


@dataclasses.dataclass
class SourceUpdate(TraceEvent):
    """The source host advanced its master copy to ``version``."""

    etype: ClassVar[str] = "source_update"
    node: int = 0
    item: int = 0
    version: int = 0


@dataclasses.dataclass
class InvalidationSent(TraceEvent):
    """A source flooded an invalidation (``protocol``: push or rpcc)."""

    etype: ClassVar[str] = "invalidation_sent"
    node: int = 0
    item: int = 0
    version: int = 0
    ttl: int = 0
    protocol: str = "rpcc"


@dataclasses.dataclass
class InvalidationReceived(TraceEvent):
    """An invalidation was *delivered* to ``node`` (network layer).

    This is the checker's knowledge feed: once a node received version
    ``v`` it must never serve an older version to a strong read.
    """

    etype: ClassVar[str] = "invalidation_received"
    node: int = 0
    item: int = 0
    version: int = 0


@dataclasses.dataclass
class PollSent(TraceEvent):
    """A validation poll left ``node`` (``stage`` names the ladder rung)."""

    etype: ClassVar[str] = "poll_sent"
    node: int = 0
    item: int = 0
    poll_id: int = 0
    stage: str = "source"
    ttl: int = 0


@dataclasses.dataclass
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


@dataclasses.dataclass
class FetchStarted(TraceEvent):
    """A content refresh was requested from ``target`` (the source)."""

    etype: ClassVar[str] = "fetch_started"
    node: int = 0
    item: int = 0
    target: int = 0
    kind: str = "push-refresh"


@dataclasses.dataclass
class FetchCompleted(TraceEvent):
    """Fresh content landed, the local copy now holds ``version``."""

    etype: ClassVar[str] = "fetch_completed"
    node: int = 0
    item: int = 0
    version: int = 0
    kind: str = "push-refresh"


@dataclasses.dataclass
class RelayPromoted(TraceEvent):
    """``node`` became a relay peer for ``item`` (Fig 5: CANDIDATE→RELAY)."""

    etype: ClassVar[str] = "relay_promoted"
    node: int = 0
    item: int = 0


@dataclasses.dataclass
class RelayDemoted(TraceEvent):
    """``node`` resigned its relay role for ``item``."""

    etype: ClassVar[str] = "relay_demoted"
    node: int = 0
    item: int = 0
    reason: str = "resigned"


@dataclasses.dataclass
class NodeOnline(TraceEvent):
    """``node`` switched on (Section 4.5 churn)."""

    etype: ClassVar[str] = "node_online"
    node: int = 0


@dataclasses.dataclass
class NodeOffline(TraceEvent):
    """``node`` switched off."""

    etype: ClassVar[str] = "node_offline"
    node: int = 0


@dataclasses.dataclass
class FaultPartitionStarted(TraceEvent):
    """A fault-plan partition came into force (``fault.*`` family)."""

    etype: ClassVar[str] = "fault_partition_start"
    mode: str = "spatial"
    name: str = ""


@dataclasses.dataclass
class FaultPartitionEnded(TraceEvent):
    """A fault-plan partition healed; suppressed edges are restored."""

    etype: ClassVar[str] = "fault_partition_end"
    mode: str = "spatial"
    name: str = ""


@dataclasses.dataclass
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


@dataclasses.dataclass
class FaultNodeRebooted(TraceEvent):
    """``node`` came back after a fault-plan crash."""

    etype: ClassVar[str] = "fault_node_reboot"
    node: int = 0


@dataclasses.dataclass
class FaultRelayKilled(TraceEvent):
    """A targeted relay kill took ``node`` down while relaying ``item``."""

    etype: ClassVar[str] = "fault_relay_kill"
    node: int = 0
    item: int = 0


@dataclasses.dataclass
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


@dataclasses.dataclass
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


@dataclasses.dataclass
class MetricsReset(TraceEvent):
    """The warm-up window closed; metrics were reset."""

    etype: ClassVar[str] = "metrics_reset"


#: Type-tag registry used by :func:`event_from_dict`.
EVENT_TYPES: Dict[str, type] = {
    cls.etype: cls
    for cls in (
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
}


def event_from_dict(payload: Dict[str, Any]) -> TraceEvent:
    """Reconstruct a typed event from its :meth:`~TraceEvent.to_dict` form.

    Anything but an object with a known ``e`` tag, the fields of that
    type and a finite ``int``/``float`` ``time`` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    return _event_from_fields(dict(payload) if isinstance(payload, dict) else payload)


def _event_from_fields(fields: Dict[str, Any]) -> TraceEvent:
    """:func:`event_from_dict` on a dict the caller gives up (``e`` is popped)."""
    try:
        tag = fields.pop("e", None)
    except (AttributeError, TypeError):  # not a dict: no ``pop(key, default)``
        raise ConfigurationError(
            f"trace event must be a JSON object, got {fields!r}"
        ) from None
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise ConfigurationError(f"unknown trace event type {tag!r}")
    try:
        event = cls(**fields)
    except TypeError as exc:
        raise ConfigurationError(f"malformed {tag!r} event: {exc}") from None
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
    """Stream a JSONL trace as typed events (blank lines are skipped)."""
    if hasattr(source, "read"):
        yield from _iter_stream(source)  # type: ignore[arg-type]
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield from _iter_stream(handle)


def _iter_stream(handle: IO[str]) -> Iterator[TraceEvent]:
    for number, line in enumerate(handle, 1):
        line = line.strip()
        if line:
            try:
                # The dict json.loads just built is nobody else's: no copy.
                event = _event_from_fields(json.loads(line))
            except (ValueError, ConfigurationError) as exc:  # JSONDecodeError too
                raise ConfigurationError(f"trace line {number}: {exc}") from None
            yield event
