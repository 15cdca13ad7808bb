"""Deterministic discrete-event simulation kernel.

This module is the foundation every other subsystem builds on:

* :class:`Simulator` owns the virtual clock and the pending-event store.
* :class:`EventHandle` is returned by every ``schedule`` call and allows
  the caller to cancel the event before it fires.

The store is one binary heap (``heapq``) of ``(time, seq, handle)``
tuples.  ``seq`` is a monotonically increasing sequence number, unique
per entry, so every comparison inside a sift is settled on two numbers
in C and never reaches the handle: events fire in ``(time, seq)`` order,
ties in time break by scheduling order, and runs are bit-deterministic.
Cancelling marks the handle and leaves its entry in the heap as a
tombstone; tombstones are skipped when they reach the top and the heap
is rebuilt from the survivors once they outnumber the live entries.
The property suite under ``tests/`` holds the engine to a brute-force
reference under randomized schedule/cancel/renew/run interleavings.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(5.0, fired.append, "a")
>>> _ = sim.schedule(1.0, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.errors import SchedulingError, SimulationError
from repro.obs.bus import NULL_TRACE

__all__ = ["EventHandle", "Simulator"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only cancels or inspects
    them.  The event's time and sequence number live in its heap entry.
    Handles of the fire-and-forget :meth:`Simulator.post` path carry no
    cancel hook, which is what returns them to the engine's pool.  The
    recurring timers and clocks of :mod:`repro.sim.timers` subclass this
    class: each is created *fired* (in no structure) and re-arms itself,
    a ``PeriodicTimer`` through :meth:`Simulator.reschedule` and a clock
    of many members (TTN ticks, arrival streams, on/off switches)
    through :meth:`Simulator._file_reserved`.
    """

    __slots__ = ("callback", "args", "cancelled", "fired", "_on_cancel")

    def __init__(
        self,
        callback: Callable[..., Any],
        args: tuple,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._on_cancel = on_cancel

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already fired or was already cancelled.
        """
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
        return True

    @property
    def pending(self) -> bool:
        """``True`` while the event is still waiting to fire."""
        return not (self.fired or self.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"{type(self).__name__}({state})"


class Simulator:
    """Single-threaded discrete-event simulator with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Defaults to 0.
    """

    # Never compact tiny heaps: rebuilding a 20-entry list saves nothing.
    _COMPACT_FLOOR = 64
    # Fire-and-forget handles recycled through ``post`` are pooled up to
    # this many; beyond it they are simply dropped to the allocator.
    _POOL_CAP = 4096

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._seq = itertools.count()
        self._events_processed = 0
        self._pending = 0
        self._running = False
        # (time, seq, handle) entries.  Cancelled entries stay behind as
        # tombstones that compact once they outnumber live entries.
        self._heap: List[tuple] = []
        self._tombstones = 0
        self.heap_compactions = 0
        self._pool: List[EventHandle] = []
        # One bound method shared by every handle instead of one per event.
        self._cancel_hook = self._note_cancel
        #: Trace bus consulted by instrumented subsystems.  Defaults to the
        #: shared no-op bus so emit sites cost one attribute load + branch.
        self.trace = NULL_TRACE

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled events that have neither fired nor been cancelled.

        Maintained as a live counter (adjusted on schedule, cancel and
        fire), so reading it is O(1) rather than a scan of the store.
        """
        return self._pending

    @property
    def heap_size(self) -> int:
        """Physical size of the event store, tombstones included."""
        return len(self._heap)

    @property
    def tombstones(self) -> int:
        """Cancelled entries currently stranded in the heap."""
        return self._tombstones

    def _note_cancel(self) -> None:
        self._pending -= 1
        self._tombstones += 1
        # Cancelled events normally leave the heap lazily, when they reach
        # the top.  Workloads that cancel most of what they schedule (e.g.
        # timers rearmed on every message) can strand far-future tombstones
        # below live events indefinitely, so once tombstones outnumber live
        # entries rebuild the heap from the survivors.  heapify keeps the
        # (time, seq) order, so pop order — and thus determinism — is
        # unchanged.  The list is rebuilt in place: a callback can cancel
        # its way here while the run loop holds a reference to it.
        heap = self._heap
        if self._tombstones * 2 > len(heap) and len(heap) >= self._COMPACT_FLOOR:
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def attach_trace(self, bus) -> None:
        """Route trace events from this simulation into ``bus``.

        Subsystems read ``sim.trace`` lazily at each emit site, so a bus
        may be attached (or swapped) at any point of a run.
        """
        self.trace = bus

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        seq = next(self._seq)
        event = EventHandle(callback, args, self._cancel_hook)
        _heappush(self._heap, (time, seq, event))
        self._pending += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time:.6f} before current time t={self._now:.6f}"
            )
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        seq = next(self._seq)
        event = EventHandle(callback, args, self._cancel_hook)
        _heappush(self._heap, (time, seq, event))
        self._pending += 1
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling on a pooled handle.

        Semantically identical to :meth:`schedule` except that no handle
        is returned: the engine recycles the :class:`EventHandle` through
        a freelist after the callback runs, so hot paths (message
        deliveries, flood fan-out) allocate nothing in steady state.
        Events posted this way cannot be cancelled.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        seq = next(self._seq)
        pool = self._pool
        if pool:
            event = pool.pop()
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
        else:
            event = EventHandle(callback, args)
        _heappush(self._heap, (time, seq, event))
        self._pending += 1

    def reschedule(self, event: EventHandle, delay: float) -> EventHandle:
        """Move a scheduled event to fire ``delay`` seconds from now,
        reusing its callback and args.

        The returned handle is the one to retain.  A *fired* event is
        re-armed in place and returned as-is, which is only safe when the
        caller exclusively owns the handle.  This is how a
        ``PeriodicTimer`` runs: it is its own event, created fired, armed
        here by its ``start()`` and re-armed from inside its own
        callback, so a tick allocates no handle.  Anything else —
        pending or already cancelled — is ``cancel()`` plus
        :meth:`schedule_at`, and a fresh handle comes back.

        Exactly one sequence number is consumed either way, so the
        resulting event order is bit-identical to the
        cancel-and-reschedule idiom.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if event.fired:
            # Firing popped its entry, so the handle is in no structure.
            event.fired = False
            _heappush(self._heap, (time, next(self._seq), event))
            self._pending += 1
            return event
        event.cancel()
        return self.schedule_at(time, event.callback, *event.args)

    def _file_reserved(self, event: EventHandle, time: float, seq: int) -> None:
        """File a fired ``event`` the caller exclusively owns at ``(time, seq)``.

        ``seq`` is one the caller took from ``_seq`` earlier, when the
        tick this entry stands for was armed: a clock of many members
        (``repro.sim.timers``) takes one per member tick and files only
        the earliest, so its entry carries the key an event of the
        member's own would have had.
        Nothing is checked: ``time`` is at or after the clock.
        """
        event.fired = False
        _heappush(self._heap, (time, seq, event))
        self._pending += 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event store drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        return self._run_loop(math.inf, math.inf if max_events is None else max_events)

    def run_until(self, time: float) -> int:
        """Run every event with timestamp ``<= time`` then set the clock to ``time``.

        Returns the number of events processed by this call.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot run until t={time!r}: horizon must be finite")
        if time < self._now:
            raise SimulationError(
                f"cannot run until t={time:.6f}: clock already at t={self._now:.6f}"
            )
        processed = self._run_loop(time, math.inf)
        if self._now < time:
            self._now = time
        return processed

    def _run_loop(self, until: float, max_events: float) -> int:
        """Fire live events in ``(time, seq)`` order while the head is at or
        before ``until`` and fewer than ``max_events`` have fired."""
        if self._running:
            raise SimulationError("simulator is not re-entrant: already running")
        self._running = True
        processed = 0
        heap = self._heap
        pool = self._pool
        pool_cap = self._POOL_CAP
        try:
            while heap and processed < max_events:
                time, _, event = heap[0]
                if event.cancelled:
                    _heappop(heap)
                    self._tombstones -= 1
                    continue
                if time > until:
                    break
                _heappop(heap)
                self._now = time
                event.fired = True
                self._pending -= 1
                self._events_processed += 1
                callback = event.callback
                args = event.args
                if event._on_cancel is None and len(pool) < pool_cap:
                    event.callback = None  # type: ignore[assignment]
                    event.args = ()
                    pool.append(event)
                callback(*args)
                processed += 1
        finally:
            self._running = False
        return processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )

