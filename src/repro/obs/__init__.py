"""Observability layer: typed trace events, bus, sinks, invariant checker.

See docs/OBSERVABILITY.md for the event taxonomy and the per-level
consistency contracts the checker enforces.  The event classes are built
on first use (:func:`repro.obs.events.vocabulary`), and the checker and the
sinks are imported on first use, so an untraced run builds and loads none
of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Union

from repro import _lazy_exports
from repro.obs.bus import NULL_TRACE, NullTraceBus, TraceBus
from repro.obs.events import event_from_dict, iter_jsonl, read_jsonl

if TYPE_CHECKING:
    from repro.obs.checker import CheckReport
    from repro.obs.events import TraceEvent

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

#: Built on first use, so ``from repro.obs import ReadServed`` builds them;
#: the checker and the sinks are imported on first use too.
_EXPORTS = {
    **dict.fromkeys(("TraceSink", "ListSink", "JsonlSink"), "repro.obs.sinks"),
    **dict.fromkeys(("InvariantChecker", "CheckReport", "Violation"), "repro.obs.checker"),
    **dict.fromkeys(
        __all__[__all__.index("TraceEvent"):__all__.index("EVENT_TYPES") + 1], "repro.obs.events"
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


def check_events(
    events: Iterable[Union[TraceEvent, Dict]],
    delta: float = 240.0,
    slack: float = 1.0,
) -> CheckReport:
    """One-shot convenience: replay ``events`` and return the report.

    Defined here, not in :mod:`repro.obs.checker`, so that it is a plain
    attribute of the package (one that ``inspect.getattr_static`` finds
    and a timing shim can replace) while the checker loads at the first
    check.
    """
    from repro.obs.checker import InvariantChecker

    return InvariantChecker(delta=delta, slack=slack).feed_all(events).finish()
