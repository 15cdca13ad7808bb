"""Timer helpers built on top of the event kernel.

The recurring patterns in this reproduction are:

* a *periodic* action (a controller's tick, a sampler) — :class:`PeriodicTimer`;
* the same period at a staggered phase per host (every source host
  flooding ``INVALIDATION`` every TTN seconds) — :class:`StaggeredClock`;
* a random stream per host (every host's query and update arrivals) —
  :class:`ArrivalClock`; and a host's online/offline renewal process —
  :class:`SwitchClock`;
* a *countdown* that is repeatedly renewed (the TTR/TTP freshness windows
  of relay and cache peers) — :class:`CountdownTimer`.

All are allocation-light: a periodic timer is its own event in the
:class:`~repro.sim.engine.Simulator`'s heap, each clock is one event for
all its members, and a countdown schedules nothing.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator

__all__ = [
    "PeriodicTimer",
    "StaggeredClock",
    "ArrivalClock",
    "SwitchClock",
    "CountdownTimer",
    "staggered_start",
]

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


class _MemberClock(EventHandle):
    """Many members' recurring ticks from one heap event.

    The clock keeps every member's next tick in a private min-heap of
    ``(time, seq, member)`` and files only the earliest in the
    simulator's (:meth:`Simulator._file_reserved`).  Every ``seq`` is
    taken from the simulator's counter where the member's own event
    would have taken it: one per member at arming, in member order, and
    one per tick at the tick's re-arm.  The engine orders events by
    ``(time, seq)`` alone, so the event stream is the one a heap event
    per member makes, ties included (``docs/decisions/17-one-ttn-clock.md``,
    ``docs/decisions/18-one-clock-per-process-kind.md``).

    The contract: every member is armed by :meth:`_arm`, re-arms once per
    tick and only from its own tick; none leaves.  Each subclass's
    ``_tick`` fixes the re-arm point and the delay.
    """

    __slots__ = ("_sim", "_callback", "_members")

    def __init__(self, sim: Simulator, callback: Callable[[Any], Any]) -> None:
        # Unstarted is fired, as for PeriodicTimer; _arm binds the tick.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._callback = callback
        #: ``(time, seq, member)`` of every member's next tick, a min-heap.
        self._members: List[Tuple[float, int, Any]] = []

    def _arm(self, firsts: Iterable[Tuple[float, Any]]) -> None:
        """Arm each ``(delay, member)`` pair, in order, and file the
        earliest tick.  A started clock ignores a second call."""
        if self.callback is not None:
            return
        self.callback = self._tick
        sim = self._sim
        now, seq = sim.now, sim._seq
        heap = self._members
        heap.extend((now + delay, next(seq), member) for delay, member in firsts)
        if heap:
            heapq.heapify(heap)
            sim._file_reserved(self, heap[0][0], heap[0][1])

    def _rearm(self, member: Any, delay: float) -> None:
        """Move the ticking ``member`` (the private heap's head) ``delay``
        on, under a fresh sequence number, and file the new earliest."""
        sim = self._sim
        heap = self._members
        heapq.heapreplace(heap, (sim.now + delay, next(sim._seq), member))
        sim._file_reserved(self, heap[0][0], heap[0][1])


class StaggeredClock(_MemberClock):
    """Tick every member once per ``interval``, each at its own phase, from
    one heap event.

    Member ``m`` of host ``node_id`` first ticks
    ``staggered_start(interval, node_id)`` after :meth:`start`, then every
    ``interval``: what a :class:`PeriodicTimer` per member would do.  Each
    tick re-arms before it calls back, where ``PeriodicTimer`` re-arms.
    Members share the one interval.

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

    __slots__ = ("_interval",)

    interval = PeriodicTimer.interval

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[Any], Any]) -> None:
        self.interval = interval
        super().__init__(sim, callback)

    def start(self, members: Iterable[Tuple[int, Any]]) -> None:
        """Arm each ``(node_id, member)`` pair, in order, and file the
        earliest tick.  A started clock ignores a second call."""
        interval = self._interval
        self._arm(
            (staggered_start(interval, node_id), member) for node_id, member in members
        )

    def _tick(self) -> None:
        member = self._members[0][2]
        self._rearm(member, self._interval)
        self._callback(member)


class ArrivalClock(_MemberClock):
    """Every member's arrival stream from one heap event.

    A member (:class:`~repro.workload.arrivals.ExponentialProcess`) draws
    its own gaps: ``member.first_delay()`` when :meth:`start` arms it,
    and ``member.arrive()`` (count the arrival now due, draw the gap to
    the next) on each tick, which re-arms *before* it calls
    ``callback(member)``.
    """

    __slots__ = ()

    def start(self, members: Iterable[Any]) -> None:
        """Arm each member, in order.  A started clock ignores a second call."""
        self._arm((member.first_delay(), member) for member in members)

    def _tick(self) -> None:
        member = self._members[0][2]
        self._rearm(member, member.arrive())
        self._callback(member)


class SwitchClock(_MemberClock):
    """Every member's on/off renewal process from one heap event.

    A member (:class:`~repro.peers.switching.SwitchingProcess`) draws its
    own durations: ``member.first_delay()`` when :meth:`start` arms it
    (a member that is not ``enabled`` is left out), and ``member.flip()``
    (change state, draw how long the new state lasts) on each tick,
    which calls ``callback(member)`` and re-arms *after* it: whatever
    the callback schedules precedes the next flip in ``seq``.
    """

    __slots__ = ()

    def start(self, members: Iterable[Any]) -> None:
        """Arm each enabled member, in order.  A started clock ignores a
        second call."""
        self._arm((member.first_delay(), member) for member in members if member.enabled)

    def _tick(self) -> None:
        member = self._members[0][2]
        delay = member.flip()
        self._callback(member)
        self._rearm(member, delay)


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
