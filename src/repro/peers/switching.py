"""Online/offline switching of mobile hosts.

Hosts in a MP2P system "disconnect from and/or reconnect to the wireless
network from time to time without giving any notice" (Section 4.5).  We
model this as an alternating renewal process with exponential online and
offline durations.  *Stable* hosts get an infinite mean online time and
never switch — the heterogeneity that makes the CS coefficient
discriminating (see DESIGN.md).

A host stays online for 600 s on average, so in a short run most
switches never flip: each draws its first online duration at build and
holds its generator only once it flips
(``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import Stream, seeded

__all__ = ["SwitchingProcess"]


class SwitchingProcess(EventHandle):
    """Alternating online/offline renewal process for one host.

    The process is its own heap event: each flip re-arms it in place.

    Parameters
    ----------
    sim:
        Event kernel.
    seed:
        Seed of the host's private switching stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The first online
        duration is drawn here, from a generator that is then dropped;
        the first flip rebuilds it from the seed.  A stable host draws
        nothing.
    set_online:
        Callback invoked with the new status on every flip.
    mean_online:
        Mean of the exponential online duration; ``math.inf`` disables
        switching entirely (a stable host).
    mean_offline:
        Mean of the exponential offline duration; positive and finite.
    """

    __slots__ = (
        "_sim",
        "_seed",
        "_rng",
        "_delay",
        "_set_online",
        "mean_online",
        "mean_offline",
        "_currently_online",
        "flips",
    )

    def __init__(
        self,
        sim: Simulator,
        seed: int,
        set_online: Callable[[bool], None],
        mean_online: float = 600.0,
        mean_offline: float = 60.0,
    ) -> None:
        if not mean_online > 0:  # NaN fails too
            raise ConfigurationError(f"mean_online must be positive, got {mean_online!r}")
        if not 0 < mean_offline < math.inf:
            raise ConfigurationError(f"mean_offline must be finite and > 0, got {mean_offline!r}")
        # Unarmed is fired: owned here, in no structure.
        self.callback, self.args, self.cancelled, self.fired = None, (), False, True
        self._on_cancel = sim._cancel_hook
        self._sim = sim
        self._seed = seed
        self._rng: Optional[Stream] = None
        self._set_online = set_online
        self.mean_online = float(mean_online)
        self.mean_offline = float(mean_offline)
        self._currently_online = True
        self.flips = 0
        self._delay: Optional[float] = (
            self._first_delay(seeded(seed)) if self.enabled else None
        )

    def _first_delay(self, rng: Stream) -> float:
        """The build-time draw; :attr:`stream` repeats this very call."""
        return rng.expovariate(1.0 / self.mean_online)

    @property
    def stream(self) -> Stream:
        """The switch's generator: rebuilt from its seed on first use, with
        the build-time draw repeated, so it continues where the build left it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = seeded(self._seed)
            self._first_delay(rng)
        return rng

    @property
    def enabled(self) -> bool:
        """``False`` for stable hosts (infinite mean online time)."""
        return math.isfinite(self.mean_online)

    def start(self) -> None:
        """Arm the first disconnection.  No-op for stable hosts."""
        if not self.enabled or not self.fired:
            return
        self.callback = self._flip
        delay, self._delay = self._delay, None
        self._sim.reschedule(self, delay)

    def _flip(self) -> None:
        self._currently_online = not self._currently_online
        self.flips += 1
        self._set_online(self._currently_online)
        mean = self.mean_online if self._currently_online else self.mean_offline
        delay = self.stream.expovariate(1.0 / mean)
        self._sim.reschedule(self, delay)
