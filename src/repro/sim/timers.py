"""Timer helpers built on top of the event kernel.

Three recurring patterns in the protocols of this reproduction are:

* a *periodic* action (a controller's tick, a sampler) — :class:`PeriodicTimer`;
* the same period at a staggered phase per host (every source host
  flooding ``INVALIDATION`` every TTN seconds) — :class:`StaggeredClock`;
* a *countdown* that is repeatedly renewed (the TTR/TTP freshness windows
  of relay and cache peers) — :class:`CountdownTimer`.

All are allocation-light: a periodic timer is its own event in the
:class:`~repro.sim.engine.Simulator`'s heap, a staggered clock is one
event for all its members, and a countdown schedules nothing.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["PeriodicTimer", "StaggeredClock", "CountdownTimer", "staggered_start"]

#: The golden-ratio fraction: multiples of it modulo 1 spread evenly, so
#: consecutive node ids get well-separated phases.
_GOLDEN = 0.6180339887498949


def staggered_start(period: float, node_id: int) -> float:
    """First-tick delay of a host's :class:`StaggeredClock` member.

    Every source host floods on the same period; staggering the phases by
    node id keeps their floods from all landing in the same instant.  A
    phase of 0 (node 0) starts after one full period instead.
    """
    offset = period * ((node_id * _GOLDEN) % 1.0)
    return offset if offset > 0 else period


class PeriodicTimer(EventHandle):
    """Fire ``callback()`` every ``interval`` seconds once started.

    The timer is its own heap event: each tick re-arms it in place.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    interval:
        Period in seconds; must be positive and finite.  May be changed
        between ticks via :attr:`interval`, which checks the new value
        when it is assigned.
    callback:
        Zero-argument callable invoked on every tick.
    start_offset:
        Delay before the first tick.  Defaults to one full ``interval``.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_start_offset", "ticks")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_offset: Optional[float] = None,
    ) -> None:
        self.interval = interval
        if start_offset is not None and not 0 <= start_offset < math.inf:
            raise SimulationError(f"start_offset must be finite and >= 0, got {start_offset!r}")
        # Unarmed is fired: owned here, in no structure.  The tick method
        # is bound at start(), so an unstarted timer carries none.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._callback = callback
        self._start_offset = interval if start_offset is None else float(start_offset)
        #: Number of times the callback has fired.
        self.ticks = 0

    @property
    def interval(self) -> float:
        """Seconds between ticks; a new value applies from the next re-arm."""
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        if not 0 < value < math.inf:  # NaN fails too
            raise SimulationError(f"timer interval must be finite and > 0, got {value!r}")
        self._interval = float(value)

    @property
    def running(self) -> bool:
        """``True`` while the timer is armed."""
        return self.pending

    def start(self) -> None:
        """Arm the timer.  Idempotent while running."""
        if not self.fired:
            return
        self.callback = self._fire
        self._sim.reschedule(self, self._start_offset)

    def _fire(self) -> None:
        self.ticks += 1
        # Re-arm in place: one heap push per tick, no new EventHandle.
        self._sim.reschedule(self, self._interval)
        self._callback()


class StaggeredClock(EventHandle):
    """Tick every member once per ``interval``, each at its own phase, from
    one heap event.

    Member ``m`` of host ``node_id`` first ticks
    ``staggered_start(interval, node_id)`` after :meth:`start`, then every
    ``interval``: what a :class:`PeriodicTimer` per member would do.  The
    clock keeps every member's next tick in a private min-heap of
    ``(time, seq, member)`` and files only the earliest in the
    simulator's.  Each tick keeps the exact ``(time, seq)`` its member's
    own timer would have had: :meth:`start` takes one sequence number per
    member from the simulator, in member order, where those timers'
    ``start()`` took theirs, and each tick takes the next one before it
    calls back, where ``PeriodicTimer`` re-arms.  The engine orders events
    by ``(time, seq)`` alone, so the event stream is the one the timers
    make, ties included (``docs/decisions/17-one-ttn-clock.md``).

    The contract: every member is armed by :meth:`start`, shares the one
    interval and re-arms only from its own tick; none leaves.

    Parameters
    ----------
    sim:
        The simulator providing the clock and the sequence numbers.
    interval:
        Period in seconds; must be positive and finite.  A new value
        applies from each member's next re-arm, as for ``PeriodicTimer``.
    callback:
        Called as ``callback(member)`` on each of a member's ticks.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_members")

    interval = PeriodicTimer.interval

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[Any], Any]) -> None:
        self.interval = interval
        # Unstarted is fired, as for PeriodicTimer; start() binds the tick.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._callback = callback
        #: ``(time, seq, member)`` of every member's next tick, a min-heap.
        self._members: List[Tuple[float, int, Any]] = []

    def start(self, members: Iterable[Tuple[int, Any]]) -> None:
        """Arm each ``(node_id, member)`` pair, in order, and file the
        earliest tick.  A started clock ignores a second call."""
        if self.callback is not None:
            return
        self.callback = self._tick
        sim = self._sim
        now, interval, seq = sim.now, self._interval, sim._seq
        heap = self._members
        heap.extend(
            (now + staggered_start(interval, node_id), next(seq), member)
            for node_id, member in members
        )
        if heap:
            heapq.heapify(heap)
            sim._file_reserved(self, heap[0][0], heap[0][1])

    def _tick(self) -> None:
        sim = self._sim
        heap = self._members
        member = heap[0][2]
        # Re-arm before the callback, with the sequence number the
        # member's own timer would have taken here.
        heapq.heapreplace(heap, (sim.now + self._interval, next(sim._seq), member))
        sim._file_reserved(self, heap[0][0], heap[0][1])
        self._callback(member)


class CountdownTimer:
    """A renewable freshness window (models the paper's TTN/TTR/TTP fields).

    The timer counts down from ``duration``; :meth:`renew` resets it to the
    full duration.  :attr:`remaining` answers the paper's ``TTx > 0`` tests;
    nothing is scheduled, so renewing costs no event.
    """

    __slots__ = ("_sim", "duration", "_expires_at")

    def __init__(self, sim: Simulator, duration: float) -> None:
        if not duration > 0:  # NaN fails too
            raise SimulationError(f"countdown duration must be positive, got {duration!r}")
        self._sim = sim
        self.duration = float(duration)
        self._expires_at = sim.now  # starts expired until first renew()

    @property
    def remaining(self) -> float:
        """Seconds left in the window; 0 when expired."""
        return max(0.0, self._expires_at - self._sim.now)

    @property
    def expired(self) -> bool:
        """``True`` once the window has closed."""
        return self.remaining <= 0.0

    @property
    def expires_at(self) -> float:
        """Absolute simulation time at which the window closes."""
        return self._expires_at

    def renew(self, duration: Optional[float] = None) -> None:
        """Reset the countdown to ``duration`` (default: the full window)."""
        window = self.duration if duration is None else float(duration)
        if not window >= 0:  # NaN fails too
            raise SimulationError(f"renew duration must be non-negative, got {window!r}")
        self._expires_at = self._sim.now + window

    def expire_now(self) -> None:
        """Force the window closed immediately."""
        self._expires_at = self._sim.now
