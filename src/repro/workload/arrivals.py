"""Arrival processes.

The paper's workload: "Each mobile host generates an independent stream of
updates to its source data and its query requests with an exponentially
distributed update interval and an exponentially distributed query
interval."  :class:`ExponentialProcess` is that Poisson stream.

A stream is not a heap event of its own: every stream of a workload is a
member of one :class:`~repro.sim.timers.ArrivalClock`, which keeps each
member's next arrival under the ``(time, seq)`` key the stream's own
event would have had (``docs/decisions/18-one-clock-per-process-kind.md``).
The member carries its host; the clock's one callback does the rest.

At the paper's 20 s query interval a process draws all run long; at the
10k benchmark's 10 000 s it draws its first gap at build and, in most
runs, never again.  So a process holds its generator only once it draws
after the build (``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import WorkloadError
from repro.sim.rng import Stream, seeded

__all__ = ["ExponentialProcess"]


class ExponentialProcess:
    """Poisson arrivals: i.i.d. exponential gaps with the given mean.

    A member of an :class:`~repro.sim.timers.ArrivalClock`: the clock
    asks :meth:`first_delay` when it arms the process and :meth:`arrive`
    on each arrival, and re-arms before its callback runs.  Standalone
    use is a one-member clock.

    Parameters
    ----------
    seed:
        Seed of this process's private stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The first gap is
        drawn here, from a generator that is then dropped; the first
        arrival rebuilds it from the seed (see :attr:`stream`).
    mean_interval:
        Mean gap between arrivals, seconds; positive and finite.
    host:
        What the arrivals are for (the clock's callback reads it).
    """

    __slots__ = ("host", "_seed", "_rng", "_gap", "mean_interval", "arrivals")

    def __init__(self, seed: int, mean_interval: float, host: Any = None) -> None:
        if not 0 < mean_interval < math.inf:  # NaN fails too
            raise WorkloadError(f"mean_interval must be finite and > 0, got {mean_interval!r}")
        self.host = host
        self._seed = seed
        self._rng: Optional[Stream] = None
        self.mean_interval = float(mean_interval)
        self.arrivals = 0
        self._gap: Optional[float] = self._first_gap(seeded(seed))

    def _first_gap(self, rng: Stream) -> float:
        """The build-time draw; :attr:`stream` repeats this very call."""
        return rng.expovariate(1.0 / self.mean_interval)

    @property
    def stream(self) -> Stream:
        """The process's generator: rebuilt from its seed on first use, with
        the build-time draw repeated, so it continues where the build left it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = seeded(self._seed)
            self._first_gap(rng)
        return rng

    def first_delay(self) -> float:
        """The gap to the first arrival, drawn at build; handed out once."""
        gap, self._gap = self._gap, None
        return gap

    def arrive(self) -> float:
        """Count the arrival now due; return the gap to the next."""
        self.arrivals += 1
        return self.stream.expovariate(1.0 / self.mean_interval)
