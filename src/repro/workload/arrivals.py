"""Arrival processes.

The paper's workload: "Each mobile host generates an independent stream of
updates to its source data and its query requests with an exponentially
distributed update interval and an exponentially distributed query
interval."  :class:`ExponentialProcess` is that Poisson stream.

At the paper's 20 s query interval a process draws all run long; at the
10k benchmark's 10 000 s it draws its first gap at build and, in most
runs, never again.  So a process holds its generator only once it draws
after the build (``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import WorkloadError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import Stream, seeded

__all__ = ["ExponentialProcess"]


class ExponentialProcess(EventHandle):
    """Poisson arrivals: i.i.d. exponential gaps with the given mean.

    The process is its own heap event: each arrival re-arms it in place.

    Parameters
    ----------
    sim:
        Event kernel.
    seed:
        Seed of this process's private stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The first gap is
        drawn here, from a generator that is then dropped; the first
        arrival rebuilds it from the seed (see :attr:`stream`).
    mean_interval:
        Mean gap between arrivals, seconds; positive and finite.
    callback:
        Zero-argument callable fired on each arrival.
    """

    __slots__ = ("_sim", "_seed", "_rng", "_gap", "mean_interval", "_callback", "arrivals")

    def __init__(
        self,
        sim: Simulator,
        seed: int,
        mean_interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if not 0 < mean_interval < math.inf:  # NaN fails too
            raise WorkloadError(f"mean_interval must be finite and > 0, got {mean_interval!r}")
        # Unarmed is fired: owned here, in no structure.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._seed = seed
        self._rng: Optional[Stream] = None
        self.mean_interval = float(mean_interval)
        self._callback = callback
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

    def start(self) -> None:
        """Schedule the first arrival.  Idempotent while running."""
        if not self.fired:
            return
        self.callback = self._fire
        gap, self._gap = self._gap, None
        self._sim.reschedule(self, gap)

    def _fire(self) -> None:
        self.arrivals += 1
        gap = self.stream.expovariate(1.0 / self.mean_interval)
        self._sim.reschedule(self, gap)
        self._callback()
