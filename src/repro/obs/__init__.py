"""Observability layer: typed trace events, bus, sinks, invariant checker.

See docs/OBSERVABILITY.md for the event taxonomy and the per-level
consistency contracts the checker enforces.  The event classes are built
on first use (:func:`repro.obs.events.vocabulary`), so an untraced run
builds none of them.
"""

from repro import _lazy_exports
from repro.obs.bus import NULL_TRACE, NullTraceBus, TraceBus
from repro.obs.checker import CheckReport, InvariantChecker, Violation, check_events
from repro.obs.events import event_from_dict, iter_jsonl, read_jsonl
from repro.obs.sinks import JsonlSink, ListSink, TraceSink

__all__ = [
    "TraceBus",
    "NullTraceBus",
    "NULL_TRACE",
    "TraceSink",
    "ListSink",
    "JsonlSink",
    "InvariantChecker",
    "CheckReport",
    "Violation",
    "check_events",
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
    "iter_jsonl",
]

#: Built on first use, so ``from repro.obs import ReadServed`` builds them.
_EXPORTS = dict.fromkeys(
    __all__[__all__.index("TraceEvent"):__all__.index("EVENT_TYPES") + 1], "repro.obs.events"
)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
