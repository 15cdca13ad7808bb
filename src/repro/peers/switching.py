"""Online/offline switching of mobile hosts.

Hosts in a MP2P system "disconnect from and/or reconnect to the wireless
network from time to time without giving any notice" (Section 4.5).  We
model this as an alternating renewal process with exponential online and
offline durations.  *Stable* hosts get an infinite mean online time and
never switch — the heterogeneity that makes the CS coefficient
discriminating (see DESIGN.md).

A switch is not a heap event of its own: every host's switch is a member
of one :class:`~repro.sim.timers.SwitchClock`, which keeps each member's
next flip under the ``(time, seq)`` key the switch's own event would
have had (``docs/decisions/18-one-clock-per-process-kind.md``).  The
member carries its host; the clock's one callback sets it on- or offline.

A host stays online for 600 s on average, so in a short run most
switches never flip: each draws its first online duration at build and
holds its generator only once it flips
(``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.sim.rng import Stream, seeded

__all__ = ["SwitchingProcess"]


class SwitchingProcess:
    """Alternating online/offline renewal process for one host.

    A member of a :class:`~repro.sim.timers.SwitchClock`: the clock asks
    :meth:`first_delay` when it arms the process and :meth:`flip` on each
    flip, calls back with the new state in :attr:`online`, and re-arms
    after the callback.  Standalone use is a one-member clock.

    Parameters
    ----------
    seed:
        Seed of the host's private switching stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The first online
        duration is drawn here, from a generator that is then dropped;
        the first flip rebuilds it from the seed.  A stable host draws
        nothing.
    mean_online:
        Mean of the exponential online duration; ``math.inf`` disables
        switching entirely (a stable host).
    mean_offline:
        Mean of the exponential offline duration; positive and finite.
    host:
        The host whose status flips (the clock's callback reads it).
    """

    __slots__ = (
        "host",
        "_seed",
        "_rng",
        "_delay",
        "mean_online",
        "mean_offline",
        "online",
        "flips",
    )

    def __init__(
        self,
        seed: int,
        mean_online: float = 600.0,
        mean_offline: float = 60.0,
        host: Any = None,
    ) -> None:
        if not mean_online > 0:  # NaN fails too
            raise ConfigurationError(f"mean_online must be positive, got {mean_online!r}")
        if not 0 < mean_offline < math.inf:
            raise ConfigurationError(f"mean_offline must be finite and > 0, got {mean_offline!r}")
        self.host = host
        self._seed = seed
        self._rng: Optional[Stream] = None
        self.mean_online = float(mean_online)
        self.mean_offline = float(mean_offline)
        #: The state the last flip left (online until the first).
        self.online = True
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

    def first_delay(self) -> float:
        """The first online duration, drawn at build; handed out once."""
        delay, self._delay = self._delay, None
        return delay

    def flip(self) -> float:
        """Change state; return how long the new state lasts."""
        self.online = online = not self.online
        self.flips += 1
        return self.stream.expovariate(1.0 / (self.mean_online if online else self.mean_offline))
