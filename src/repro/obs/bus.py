"""The trace bus: where instrumented code hands events to sinks.

Design goal: **near-free when disabled**.  Every emit site in the hot
paths is guarded by ``if trace.enabled:`` where ``trace`` is either a
:class:`TraceBus` (tracing on) or the :data:`NULL_TRACE` singleton
(tracing off, the default).  With the null bus the entire cost of the
observability layer is one attribute load and one branch per site — no
event objects are ever constructed.  The end-to-end benchmark
(``benchmarks/e2e``) times untraced runs on every row and a traced one on
``trace50``.

The bus itself is deliberately dumb: it fans every emitted event out to its
sinks (see :mod:`repro.obs.sinks`) and counts them.  Timestamps travel
*inside* the events — emit sites stamp ``self.now`` at construction — so
the bus needs no clock and can outlive the simulator that fed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.obs import events

if TYPE_CHECKING:
    from repro.obs.events import TraceEvent
    from repro.obs.sinks import TraceSink

__all__ = ["TraceBus", "NullTraceBus", "NULL_TRACE"]


class TraceBus:
    """An enabled trace bus: fans events out to its sinks."""

    #: Emit sites test this before constructing an event.
    enabled: bool = True

    def __init__(self) -> None:
        # An enabled bus is what makes a run traced: build the event classes
        # now, with the world, rather than inside the run's first emit.
        events.vocabulary()
        self._sinks: List[TraceSink] = []
        self.events_emitted = 0

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a sink; every subsequent event reaches it.  Returns it."""
        self._sinks.append(sink)
        return sink

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to every sink."""
        self.events_emitted += 1
        for sink in self._sinks:
            sink.on_event(event)

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self._sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBus(sinks={len(self._sinks)}, emitted={self.events_emitted})"


class NullTraceBus:
    """The disabled bus: emit sites see ``enabled == False`` and skip.

    ``emit`` still exists (and discards) so that code holding a direct
    bus reference never needs an ``is None`` check.
    """

    enabled: bool = False

    def emit(self, event: TraceEvent) -> None:
        """Discard the event."""

    def close(self) -> None:
        """Nothing to close."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTraceBus()"


#: The process-wide disabled bus; ``Simulator.trace`` defaults to this.
NULL_TRACE = NullTraceBus()
