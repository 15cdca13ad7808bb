"""Deterministic discrete-event simulation kernel.

This module is the foundation every other subsystem builds on.  It
provides a hybrid event engine:

* :class:`Simulator` owns the virtual clock and the pending-event store.
* :class:`EventHandle` is returned by every ``schedule`` call and allows
  the caller to cancel the event before it fires.

The store is a two-level hierarchical timer wheel (a bucketed calendar
queue) backed by two small binary heaps:

* ``_near`` — a heap holding the events of the slot currently being
  drained; its head is always the globally earliest live event.
* ``wheel0`` — 256 fine slots of 0.25 s each (a 64 s horizon).  Filing
  and cancelling are O(1) list operations; no tombstones sift through a
  big heap.
* ``wheel1`` — 256 coarse slots of 64 s each (a 16384 s horizon) that
  cascade into ``wheel0`` as the cursor crosses each 64 s boundary.
  This absorbs the paper's long-period timers (TTR/TTN/TTP/Δ).
* ``_far`` — the classic binary heap, kept only as the fallback for
  events beyond the wheel horizon (and as the whole engine when the
  wheel is disabled via ``Simulator(wheel=False)`` or ``REPRO_WHEEL=0``).

Both engines are *bit-identical*: ties in event time are broken by a
monotonically increasing sequence number, slot widths are powers of two
(so ``floor(time * 4)`` is exact binary-float arithmetic), and every slot
drains through the sorted ``_near`` heap — so the fire order is exactly
the ``(time, seq)`` order of the single-heap engine.  The property suite
in ``tests/test_sim_wheel_property.py`` holds this equivalence under
randomized schedule/cancel/renew/run interleavings.

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
import os
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SchedulingError, SimulationError
from repro.obs.bus import NULL_TRACE

__all__ = ["EventHandle", "Simulator", "StartupBatch"]

_floor = math.floor
_heappush = heapq.heappush
_heappop = heapq.heappop


def _wheel_default() -> bool:
    """Engine selection: the wheel is on unless ``REPRO_WHEEL=0``."""
    return os.environ.get("REPRO_WHEEL", "1") != "0"


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Instances are created exclusively by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only cancels or inspects
    them.  Handles used by the fire-and-forget :meth:`Simulator.post`
    fast path are pooled and recycled after firing — they never escape
    the engine.
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "args",
        "cancelled",
        "fired",
        "_on_cancel",
        "_recycle",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._on_cancel = on_cancel
        self._recycle = False

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

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Single-threaded discrete-event simulator with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Defaults to 0.
    wheel:
        ``True``/``False`` forces the timer-wheel or pure-heap engine;
        ``None`` (the default) follows the ``REPRO_WHEEL`` environment
        variable (wheel on unless set to ``0``).  Both engines fire
        events in an identical order.
    """

    # Never compact tiny heaps: rebuilding a 20-entry list saves nothing.
    _COMPACT_FLOOR = 64
    # Wheel sweeps walk all 512 buckets, so they amortize over a larger
    # floor of dead entries than the far-heap compaction does.
    _SWEEP_FLOOR = 512
    # Fire-and-forget handles recycled through ``post`` are pooled up to
    # this many; beyond it they are simply dropped to the allocator.
    _POOL_CAP = 4096

    # Wheel geometry.  The fine slot width is a power of two so that
    # ``floor(time * 4)`` is exact binary floating-point arithmetic:
    # slot membership never suffers rounding drift.  Level 0 covers
    # 256 x 0.25 s = 64 s; level 1 covers 256 x 64 s = 16384 s.
    _SLOT_INV = 4.0
    _SLOT_WIDTH = 0.25
    _SLOT_BITS = 8
    _SLOT_MASK = 255

    def __init__(self, start_time: float = 0.0, wheel: Optional[bool] = None) -> None:
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._wheel_enabled = _wheel_default() if wheel is None else bool(wheel)
        self._seq = itertools.count()
        self._events_processed = 0
        self._pending = 0
        self._running = False
        # Far heap: events beyond the wheel horizon (or everything when
        # the wheel is disabled).  Cancelled entries become tombstones
        # that compact once they outnumber live entries.
        self._far: List[EventHandle] = []
        self._tombstones = 0
        self.heap_compactions = 0
        # Timer wheel: the current slot drains through the sorted _near
        # heap; future slots are unsorted buckets (lists) drained in
        # (time, seq) order when the cursor reaches them.
        self._near: List[EventHandle] = []
        self._wheel0: List[Optional[List[EventHandle]]] = [None] * 256
        self._wheel1: List[Optional[List[EventHandle]]] = [None] * 256
        self._cursor = _floor(self._now * 4.0)
        self._w0_count = 0
        self._w1_count = 0
        # Physical wheel entries (incl. _near) that no longer are the live
        # filing of a pending event: cancelled handles plus stale bucket
        # refs left behind by in-place reschedules.  They are skipped at
        # drain time and swept in bulk once they dominate.
        self._wheel_dead = 0
        self.wheel_sweeps = 0
        self._pool: List[EventHandle] = []
        # Cached bound hooks: identity-compared to locate an event.
        self._wheel_hook = self._note_wheel_cancel
        self._far_hook = self._note_cancel
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
        """Physical size of the event store (tombstones and dead entries
        included), summed over the far heap and every wheel level."""
        return len(self._far) + len(self._near) + self._w0_count + self._w1_count

    @property
    def tombstones(self) -> int:
        """Cancelled entries currently stranded in the far heap."""
        return self._tombstones

    @property
    def wheel_enabled(self) -> bool:
        """``True`` when this simulator runs the timer-wheel engine."""
        return self._wheel_enabled

    def _note_cancel(self) -> None:
        self._pending -= 1
        self._tombstones += 1
        # Cancelled events normally leave the heap lazily, when they reach
        # the top.  Workloads that cancel most of what they schedule (e.g.
        # timers rearmed on every message) can strand far-future tombstones
        # below live events indefinitely, so once tombstones outnumber live
        # entries rebuild the heap from the survivors.  heapify keeps the
        # (time, seq) order, so pop order — and thus determinism — is
        # unchanged.
        if (
            self._tombstones * 2 > len(self._far)
            and len(self._far) >= self._COMPACT_FLOOR
        ):
            self._far = [event for event in self._far if not event.cancelled]
            heapq.heapify(self._far)
            self._tombstones = 0
            self.heap_compactions += 1

    def _note_wheel_cancel(self) -> None:
        self._pending -= 1
        self._wheel_dead += 1
        dead = self._wheel_dead
        if dead >= self._SWEEP_FLOOR and dead * 2 > (
            len(self._near) + self._w0_count + self._w1_count
        ):
            self._sweep_wheel()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def attach_trace(self, bus) -> None:
        """Route trace events from this simulation into ``bus``.

        Subsystems read ``sim.trace`` lazily at each emit site, so a bus
        may be attached (or swapped) at any point of a run.
        """
        self.trace = bus

    def detach_trace(self) -> None:
        """Restore the no-op bus; subsequent events are discarded."""
        self.trace = NULL_TRACE

    # ------------------------------------------------------------------
    # Filing
    # ------------------------------------------------------------------
    def _file(self, event: EventHandle) -> None:
        """Insert a live event into the structure that owns its timestamp.

        The filing rule keeps one invariant: every entry outside ``_near``
        has a slot strictly beyond the cursor, so the ``_near`` head is
        always the global ``(time, seq)`` minimum.
        """
        if not self._wheel_enabled:
            event._on_cancel = self._far_hook
            _heappush(self._far, event)
            return
        s0 = _floor(event.time * 4.0)
        cursor = self._cursor
        if s0 <= cursor:
            event._on_cancel = self._wheel_hook
            _heappush(self._near, event)
            return
        if s0 - cursor <= 255:
            event._on_cancel = self._wheel_hook
            index = s0 & 255
            bucket = self._wheel0[index]
            if bucket is None:
                self._wheel0[index] = [event]
            else:
                bucket.append(event)
            self._w0_count += 1
            return
        if (s0 >> 8) - (cursor >> 8) <= 255:
            event._on_cancel = self._wheel_hook
            index = (s0 >> 8) & 255
            bucket = self._wheel1[index]
            if bucket is None:
                self._wheel1[index] = [event]
            else:
                bucket.append(event)
            self._w1_count += 1
            return
        event._on_cancel = self._far_hook
        _heappush(self._far, event)

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
        event = EventHandle(time, next(self._seq), callback, args)
        self._file(event)
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
        event = EventHandle(time, next(self._seq), callback, args)
        self._file(event)
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
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = next(self._seq)
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
        else:
            event = EventHandle(time, next(self._seq), callback, args)
            event._recycle = True
        self._file(event)
        self._pending += 1

    def reschedule(self, event: EventHandle, delay: float) -> EventHandle:
        """Move a scheduled event to fire ``delay`` seconds from now,
        reusing its callback and args.

        This is the renewal primitive behind ``CountdownTimer.renew`` and
        ``PeriodicTimer``: in the wheel engine a pending bucket-resident
        event is re-slotted in place — no tombstone, no heap sift, no new
        allocation.  The returned handle is the one to retain; it differs
        from ``event`` only when in-place movement is impossible (the
        event sits in a sorted heap, whose entries must stay immutable,
        or was already cancelled) and the engine falls back to
        cancel-plus-reschedule.

        A *fired* event is re-armed in place, which is only safe when the
        caller exclusively owns the handle (the timers in
        :mod:`repro.sim.timers` do — they re-arm from inside the event's
        own callback).

        Exactly one sequence number is consumed — the same as the
        cancel-and-reschedule idiom this replaces — so the resulting
        event order is bit-identical between the two idioms and between
        both engines.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if event.cancelled:
            return self.schedule_at(time, event.callback, *event.args)
        if event.fired:
            # Re-arm: a fired handle is detached from every structure.
            event.time = time
            event.seq = next(self._seq)
            event.fired = False
            self._file(event)
            self._pending += 1
            return event
        if event._on_cancel is self._wheel_hook:
            s0 = _floor(event.time * 4.0)
            if s0 > self._cursor:
                # Bucket-resident: mutate in place and refile.  The old
                # bucket keeps a stale reference that drain/sweep skips
                # (its recomputed slot no longer matches the bucket).
                event.time = time
                event.seq = next(self._seq)
                self._wheel_dead += 1
                self._file(event)
                dead = self._wheel_dead
                if dead >= self._SWEEP_FLOOR and dead * 2 > (
                    len(self._near) + self._w0_count + self._w1_count
                ):
                    self._sweep_wheel()
                return event
            # Resident in the sorted _near heap: entries there compare by
            # (time, seq) and must not be mutated, so fall through.
        event.cancel()
        return self.schedule_at(time, event.callback, *event.args)

    def schedule_batch(
        self, events: "Iterable[tuple]"
    ) -> List[EventHandle]:
        """Schedule many ``(delay, callback, args)`` events in one call.

        Sequence numbers are assigned in iteration order, so the resulting
        event stream is identical to calling :meth:`schedule` once per
        entry — this is purely a throughput optimisation for bulk
        producers.  ``args`` tuples are used as-is (no defensive copy).
        In the pure-heap engine large batches are appended and
        re-heapified instead of pushed one by one; ``heapify`` preserves
        the ``(time, seq)`` pop order, so determinism is unchanged.
        """
        now = self._now
        seq = self._seq
        batch: List[EventHandle] = []
        for delay, callback, args in events:
            if delay < 0:
                raise SchedulingError(
                    f"cannot schedule into the past (delay={delay!r})"
                )
            time = now + delay
            if not math.isfinite(time):
                raise SchedulingError(f"event time must be finite, got {time!r}")
            if not callable(callback):
                raise SchedulingError(f"callback must be callable, got {callback!r}")
            if type(args) is not tuple:
                args = tuple(args)
            batch.append(EventHandle(time, next(seq), callback, args))
        if not batch:
            return batch
        if self._wheel_enabled:
            file = self._file
            for event in batch:
                file(event)
        else:
            far_hook = self._far_hook
            heap = self._far
            if len(batch) * 8 < len(heap):
                for event in batch:
                    event._on_cancel = far_hook
                    _heappush(heap, event)
            else:
                for event in batch:
                    event._on_cancel = far_hook
                heap.extend(batch)
                heapq.heapify(heap)
        self._pending += len(batch)
        return batch

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _pop_next(self, until: Optional[float]) -> Optional[EventHandle]:
        """Detach and return the earliest live event with time <= until.

        Returns ``None`` when no such event exists.  The clock is not
        touched; firing is the caller's job.
        """
        if not self._wheel_enabled:
            far = self._far
            while far:
                head = far[0]
                if head.cancelled:
                    _heappop(far)
                    self._tombstones -= 1
                    continue
                if until is not None and head.time > until:
                    return None
                return _heappop(far)
            return None
        near = self._near
        while True:
            while near:
                head = near[0]
                if head.cancelled or head.fired:
                    # Cancelled entries, or stale duplicate refs of an
                    # already-fired rescheduled handle.
                    _heappop(near)
                    self._wheel_dead -= 1
                    continue
                if until is not None and head.time > until:
                    return None
                return _heappop(near)
            if not self._refill_near(until):
                return None

    def _refill_near(self, until: Optional[float]) -> bool:
        """Advance the cursor until ``_near`` holds live-candidate events.

        Returns ``False`` when no event at time <= ``until`` remains in
        any structure.  Every advanced slot drains its wheel0 bucket (and
        cascades a wheel1 bucket at each 64 s boundary) into ``_near``;
        far-heap heads migrate in as their slot arrives.
        """
        near = self._near
        far = self._far
        wheel0 = self._wheel0
        while True:
            while far and far[0].cancelled:
                _heappop(far)
                self._tombstones -= 1
            if self._w0_count == 0:
                # wheel0 is physically empty: jump the cursor straight to
                # the next possible source of events — the next coarse
                # cascade boundary (when wheel1 holds anything) or the
                # far-heap head.  No intermediate slot can hold an event,
                # so no cascade is skipped.
                if self._w1_count:
                    target = ((self._cursor >> 8) + 1) << 8
                    if far:
                        far_slot = _floor(far[0].time * 4.0)
                        if far_slot < target:
                            target = far_slot
                elif far:
                    target = _floor(far[0].time * 4.0)
                else:
                    return False
                if target <= self._cursor:
                    target = self._cursor + 1
                slot = target
            else:
                slot = self._cursor + 1
            if until is not None and slot * 0.25 > until:
                # Every remaining event has time >= slot start > until.
                return False
            self._cursor = slot
            if slot & 255 == 0:
                self._cascade(slot >> 8)
            slot_end = (slot + 1) * 0.25
            while far:
                head = far[0]
                if head.cancelled:
                    _heappop(far)
                    self._tombstones -= 1
                    continue
                if head.time >= slot_end:
                    break
                _heappop(far)
                head._on_cancel = self._wheel_hook
                _heappush(near, head)
            index = slot & 255
            bucket = wheel0[index]
            if bucket is not None:
                wheel0[index] = None
                self._w0_count -= len(bucket)
                kept = 0
                for event in bucket:
                    if (
                        event.cancelled
                        or event.fired
                        or _floor(event.time * 4.0) != slot
                    ):
                        # Dead: cancelled, or a stale ref left behind by
                        # an in-place reschedule (the live ref sits where
                        # the *current* time files).
                        self._wheel_dead -= 1
                        continue
                    near.append(event)
                    kept += 1
                if kept:
                    heapq.heapify(near)
            if near:
                return True

    def _cascade(self, coarse: int) -> None:
        """Spill the wheel1 bucket for coarse slot ``coarse`` into wheel0.

        Runs exactly when the cursor enters the first fine slot of the
        64 s window, so every live entry refiles at ``slot > cursor``
        (or ``== cursor`` for the boundary slot itself, which goes to
        ``_near`` and drains immediately).
        """
        index = coarse & 255
        bucket = self._wheel1[index]
        if bucket is None:
            return
        self._wheel1[index] = None
        self._w1_count -= len(bucket)
        near = self._near
        wheel0 = self._wheel0
        cursor = self._cursor
        for event in bucket:
            if event.cancelled or event.fired:
                self._wheel_dead -= 1
                continue
            s0 = _floor(event.time * 4.0)
            if (s0 >> 8) != coarse:
                # Stale ref of a rescheduled handle; live copy elsewhere.
                self._wheel_dead -= 1
                continue
            if s0 <= cursor:
                _heappush(near, event)
                continue
            slot_index = s0 & 255
            fine = wheel0[slot_index]
            if fine is None:
                wheel0[slot_index] = [event]
            else:
                fine.append(event)
            self._w0_count += 1

    def _sweep_wheel(self) -> None:
        """Drop every dead entry from the wheel structures in one pass.

        Renewal-heavy workloads leave cancelled handles and stale
        reschedule refs in buckets far ahead of the cursor; sweeping once
        they dominate bounds wheel memory the same way far-heap
        compaction bounds the heap.  Only physical storage changes —
        live entries keep their (time, seq) — so fire order is
        untouched.
        """
        cursor = self._cursor
        coarse_cursor = cursor >> 8
        seen: set = set()
        for index in range(256):
            bucket = self._wheel0[index]
            if bucket is None:
                continue
            kept: List[EventHandle] = []
            for event in bucket:
                if event.cancelled or event.fired:
                    continue
                s0 = _floor(event.time * 4.0)
                if not (0 < s0 - cursor <= 255) or (s0 & 255) != index:
                    continue
                key = id(event)
                if key in seen:
                    continue
                seen.add(key)
                kept.append(event)
            self._wheel0[index] = kept or None
        for index in range(256):
            bucket = self._wheel1[index]
            if bucket is None:
                continue
            kept = []
            for event in bucket:
                if event.cancelled or event.fired:
                    continue
                s1 = _floor(event.time * 4.0) >> 8
                if not (0 < s1 - coarse_cursor <= 255) or (s1 & 255) != index:
                    continue
                key = id(event)
                if key in seen:
                    continue
                seen.add(key)
                kept.append(event)
            self._wheel1[index] = kept or None
        near = self._near
        if near:
            near[:] = [
                event for event in near if not (event.cancelled or event.fired)
            ]
            heapq.heapify(near)
        self._w0_count = sum(
            len(bucket) for bucket in self._wheel0 if bucket is not None
        )
        self._w1_count = sum(
            len(bucket) for bucket in self._wheel1 if bucket is not None
        )
        self._wheel_dead = 0
        self.wheel_sweeps += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if no event is
        pending.  Cancelled events are discarded silently.
        """
        event = self._pop_next(None)
        if event is None:
            return False
        self._now = event.time
        event.fired = True
        self._pending -= 1
        self._events_processed += 1
        callback = event.callback
        args = event.args
        if event._recycle and len(self._pool) < self._POOL_CAP:
            event.callback = None  # type: ignore[assignment]
            event.args = ()
            self._pool.append(event)
        callback(*args)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event store drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        return self._run_loop(until=None, max_events=max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run every event with timestamp ``<= time`` then set the clock to ``time``.

        Returns the number of events processed by this call.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run until t={time:.6f}: clock already at t={self._now:.6f}"
            )
        processed = self._run_loop(until=time, max_events=max_events)
        if self._now < time:
            self._now = time
        return processed

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("simulator is not re-entrant: already running")
        self._running = True
        processed = 0
        pool = self._pool
        pool_cap = self._POOL_CAP
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    break
                event = self._pop_next(until)
                if event is None:
                    break
                self._now = event.time
                event.fired = True
                self._pending -= 1
                self._events_processed += 1
                callback = event.callback
                args = event.args
                if event._recycle and len(pool) < pool_cap:
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


class StartupBatch:
    """Collector that turns many startup ``schedule`` calls into one batch.

    Simulation start-up arms tens of thousands of timers and arrival
    processes (one TTN timer, one query stream, one update stream, one
    coefficient-period timer and one switching process per host).  Each
    producer calling :meth:`Simulator.schedule` individually pays the
    per-call filing overhead; collecting the ``(delay, callback, args)``
    triples here and flushing them through
    :meth:`Simulator.schedule_batch` files them in one vectorized pass.
    Filing is not the whole cost of arming, though: every handle, timer
    and entry made here stays alive, and at 10 000 hosts that many new
    containers push the cyclic collector through full passes over a heap
    with nothing to free — more time than the filing itself.  The caller
    (:meth:`repro.experiments.runner.Simulation.run`) therefore pauses
    the collector from the first ``add`` to the end of :meth:`flush`.

    Determinism contract: entries are filed in :meth:`add` order and
    :meth:`Simulator.schedule_batch` assigns sequence numbers in
    iteration order, so as long as callers ``add`` in the exact order
    they previously called ``schedule`` — and nothing else schedules
    between the first ``add`` and the :meth:`flush` — the resulting
    event stream is bit-identical to the unbatched path.  Producers that
    need their :class:`EventHandle` back (timers re-arm through it) pass
    an ``adopt`` callable, invoked with the handle at flush time.

    A batch is single-shot: flush it exactly once, before any of its
    producers can observe their handle.
    """

    __slots__ = ("_entries", "_adopters", "flushed")

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._adopters: List[Optional[Callable[[EventHandle], None]]] = []
        self.flushed = False

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        adopt: Optional[Callable[[EventHandle], None]] = None,
    ) -> None:
        """Queue one event; ``adopt`` receives its handle at flush time."""
        if self.flushed:
            raise SchedulingError("StartupBatch already flushed")
        self._entries.append((delay, callback, args))
        self._adopters.append(adopt)

    def flush(self, sim: Simulator) -> List[EventHandle]:
        """File every queued event in one :meth:`Simulator.schedule_batch`."""
        if self.flushed:
            raise SchedulingError("StartupBatch already flushed")
        self.flushed = True
        handles = sim.schedule_batch(self._entries)
        for handle, adopt in zip(handles, self._adopters):
            if adopt is not None:
                adopt(handle)
        self._entries = []
        self._adopters = []
        return handles
