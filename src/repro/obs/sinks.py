"""Trace sinks: where emitted events end up.

* :class:`ListSink` — in-memory accumulation (tests, digests, ad-hoc
  analysis);
* :class:`JsonlSink` — streaming JSON-Lines export, one event per line,
  readable back via :func:`repro.obs.events.read_jsonl`.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, TextIO, Union

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent

__all__ = ["TraceSink", "ListSink", "JsonlSink"]


class TraceSink(Protocol):
    """Anything that can receive trace events from a bus."""

    def on_event(self, event: TraceEvent) -> None:
        """Receive one event."""

    def close(self) -> None:
        """Flush/close underlying resources."""


class ListSink:
    """Accumulates every event in order (``.events``)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        return None

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Streams events to a JSONL file (or any open text handle)."""

    def __init__(self, target: Union[str, TextIO]) -> None:
        if hasattr(target, "write"):
            self._handle: Optional[TextIO] = target  # type: ignore[assignment]
            self._owns_handle = False
            self.path: Optional[str] = getattr(target, "name", None)
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
            self.path = str(target)
        self.events_written = 0

    def on_event(self, event: TraceEvent) -> None:
        if self._handle is None:
            raise ConfigurationError("trace sink is closed")
        self._handle.write(event.to_json() + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()
        self._handle = None
