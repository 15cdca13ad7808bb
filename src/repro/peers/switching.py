"""Online/offline switching of mobile hosts.

Hosts in a MP2P system "disconnect from and/or reconnect to the wireless
network from time to time without giving any notice" (Section 4.5).  We
model this as an alternating renewal process with exponential online and
offline durations.  *Stable* hosts get an infinite mean online time and
never switch — the heterogeneity that makes the CS coefficient
discriminating (see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["SwitchingProcess"]


class SwitchingProcess:
    """Alternating online/offline renewal process for one host.

    Parameters
    ----------
    sim:
        Event kernel.
    rng:
        The host's private switching stream.
    set_online:
        Callback invoked with the new status on every flip.
    mean_online:
        Mean of the exponential online duration; ``math.inf`` disables
        switching entirely (a stable host).
    mean_offline:
        Mean of the exponential offline duration.
    """

    __slots__ = (
        "_sim",
        "_rng",
        "_set_online",
        "mean_online",
        "mean_offline",
        "_currently_online",
        "_handle",
        "flips",
    )

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        set_online: Callable[[bool], None],
        mean_online: float = 600.0,
        mean_offline: float = 60.0,
    ) -> None:
        if mean_online <= 0:
            raise ConfigurationError(f"mean_online must be positive, got {mean_online!r}")
        if mean_offline <= 0:
            raise ConfigurationError(f"mean_offline must be positive, got {mean_offline!r}")
        self._sim = sim
        self._rng = rng
        self._set_online = set_online
        self.mean_online = float(mean_online)
        self.mean_offline = float(mean_offline)
        self._currently_online = True
        self._handle: Optional[EventHandle] = None
        self.flips = 0

    @property
    def enabled(self) -> bool:
        """``False`` for stable hosts (infinite mean online time)."""
        return math.isfinite(self.mean_online)

    def start(self) -> None:
        """Arm the first disconnection.  No-op for stable hosts."""
        if not self.enabled or self._handle is not None:
            return
        delay = self._rng.expovariate(1.0 / self.mean_online)
        self._handle = self._sim.schedule(delay, self._flip)

    def _flip(self) -> None:
        self._currently_online = not self._currently_online
        self.flips += 1
        self._set_online(self._currently_online)
        mean = self.mean_online if self._currently_online else self.mean_offline
        delay = self._rng.expovariate(1.0 / mean)
        self._handle = self._sim.schedule(delay, self._flip)
