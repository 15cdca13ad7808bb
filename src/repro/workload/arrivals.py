"""Arrival processes.

The paper's workload: "Each mobile host generates an independent stream of
updates to its source data and its query requests with an exponentially
distributed update interval and an exponentially distributed query
interval."  :class:`ExponentialProcess` is that Poisson stream.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable

from repro.errors import WorkloadError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["ExponentialProcess"]


class ExponentialProcess(EventHandle):
    """Poisson arrivals: i.i.d. exponential gaps with the given mean.

    The process is its own heap event: each arrival re-arms it in place.

    Parameters
    ----------
    sim:
        Event kernel.
    rng:
        Private random stream of this process.
    mean_interval:
        Mean gap between arrivals, seconds; positive and finite.
    callback:
        Zero-argument callable fired on each arrival.
    """

    __slots__ = ("_sim", "_rng", "mean_interval", "_callback", "arrivals")

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        mean_interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if not 0 < mean_interval < math.inf:  # NaN fails too
            raise WorkloadError(f"mean_interval must be finite and > 0, got {mean_interval!r}")
        # Unarmed is fired: owned here, in no structure.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._rng = rng
        self.mean_interval = float(mean_interval)
        self._callback = callback
        self.arrivals = 0

    def start(self) -> None:
        """Schedule the first arrival.  Idempotent while running."""
        if not self.fired:
            return
        self.callback = self._fire
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.expovariate(1.0 / self.mean_interval)
        self._sim.reschedule(self, gap)

    def _fire(self) -> None:
        self.arrivals += 1
        self._schedule_next()
        self._callback()
