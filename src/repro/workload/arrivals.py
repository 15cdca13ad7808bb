"""Arrival processes.

The paper's workload: "Each mobile host generates an independent stream of
updates to its source data and its query requests with an exponentially
distributed update interval and an exponentially distributed query
interval."  :class:`ExponentialProcess` is that Poisson stream.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.errors import WorkloadError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["ExponentialProcess"]


class ExponentialProcess:
    """Poisson arrivals: i.i.d. exponential gaps with the given mean.

    Parameters
    ----------
    sim:
        Event kernel.
    rng:
        Private random stream of this process.
    mean_interval:
        Mean gap between arrivals, seconds.
    callback:
        Zero-argument callable fired on each arrival.
    """

    __slots__ = ("_sim", "_rng", "mean_interval", "_callback", "_handle", "arrivals")

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        mean_interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if mean_interval <= 0:
            raise WorkloadError(f"mean_interval must be positive, got {mean_interval!r}")
        self._sim = sim
        self._rng = rng
        self.mean_interval = float(mean_interval)
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self.arrivals = 0

    @property
    def running(self) -> bool:
        """``True`` while arrivals are scheduled."""
        return self._handle is not None and self._handle.pending

    def start(self) -> None:
        """Schedule the first arrival.  Idempotent while running."""
        if self.running:
            return
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.expovariate(1.0 / self.mean_interval)
        self._handle = self._sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        self.arrivals += 1
        self._schedule_next()
        self._callback()
