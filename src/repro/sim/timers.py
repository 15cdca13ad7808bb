"""Timer helpers built on top of the event kernel.

Two recurring patterns in the protocols of this reproduction are:

* a *periodic* action (the source host flooding ``INVALIDATION`` every TTN
  seconds) — :class:`PeriodicTimer`;
* a *countdown* that is repeatedly renewed (the TTR/TTP freshness windows
  of relay and cache peers) — :class:`CountdownTimer`.

Both are thin, allocation-light wrappers over :class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["PeriodicTimer", "CountdownTimer"]


class PeriodicTimer:
    """Fire ``callback()`` every ``interval`` seconds once started.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    interval:
        Period in seconds; must be positive.  May be changed between ticks
        via :attr:`interval`.
    callback:
        Zero-argument callable invoked on every tick.
    start_offset:
        Delay before the first tick.  Defaults to one full ``interval``.
    """

    __slots__ = ("_sim", "interval", "_callback", "_handle", "_start_offset", "_ticks")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_offset: Optional[float] = None,
    ) -> None:
        # ``not x > 0``, not ``x <= 0``: NaN must fail too.
        if not interval > 0:
            raise SimulationError(f"timer interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = float(interval)
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._start_offset = interval if start_offset is None else float(start_offset)
        self._ticks = 0

    @property
    def running(self) -> bool:
        """``True`` while the timer is armed."""
        return self._handle is not None and self._handle.pending

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    def start(self) -> None:
        """Arm the timer.  Idempotent while running."""
        if self.running:
            return
        self._handle = self._sim.schedule(self._start_offset, self._fire)

    def _fire(self) -> None:
        self._ticks += 1
        # Re-arm the just-fired handle in place: one heap push per tick,
        # no new EventHandle.  Safe because the timer exclusively owns
        # the handle (we are running inside its own callback).
        self._handle = self._sim.reschedule(self._handle, self.interval)
        self._callback()


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
