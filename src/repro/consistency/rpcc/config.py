"""RPCC protocol configuration (Table 1 defaults).

All timer names follow Fig 6(a) of the paper:

* ``TTN`` — time to notify: the source host's invalidation interval;
* ``TTR`` — time to refresh: how long a relay peer trusts its copy;
* ``TTP`` — time to poll: how long a cache peer trusts its copy
  (also the Δ of delta-consistency, Section 4.4).

The fields are exactly what a :class:`~repro.experiments.config.SimulationConfig`
decides; the protocol's remaining numbers are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.peers.coefficients import SelectionThresholds

__all__ = ["RPCCConfig"]

#: Seconds a cache peer waits on each wide-broadcast fallback poll before
#: the next attempt (or the final grace wait).
SOURCE_POLL_TIMEOUT = 4.0
#: Wide-broadcast fallback attempts before the final grace wait.
MAX_SOURCE_POLL_ATTEMPTS = 2
#: Hardened runs: re-push rounds of an ``UPDATE`` a registered relay could
#: not be reached with, unless a newer version supersedes it first.
UPDATE_REPUSH_ATTEMPTS = 2
#: Hardened runs: seconds between two ``UPDATE`` re-push rounds.
UPDATE_REPUSH_INTERVAL = 10.0


@dataclass
class RPCCConfig:
    """Tunable parameters of the RPCC strategy.

    Parameters
    ----------
    ttl_invalidation:
        Flood scope of ``INVALIDATION`` in hops (Table 1: 3; swept in Fig 9).
    ttn:
        Source invalidation interval, seconds (Table 1: 2 minutes).
    ttr:
        Relay freshness window, seconds (Table 1: 1.5 minutes).
    ttp:
        Cache-peer freshness window = Δ, seconds (Table 1: 4 minutes).
    poll_timeout:
        Seconds a cache peer waits on the relay-unicast and relay-flood
        poll stages before escalating to the next stage.
    broadcast_ttl:
        Flood scope of the fallback poll that must reach the source host
        itself (``TTL_BR`` — the same 8 hops the simple strategies use,
        which is what makes low-TTL RPCC degenerate into simple pull in
        Fig 9).
    thresholds:
        The ``mu`` thresholds of eq 4.2.8.
    hardened:
        Robustness hardening (default off = paper-faithful; on exactly
        when a fault plan is active, see docs/ROBUSTNESS.md):

        * a TTN-boundary ``UPDATE`` that cannot be delivered to a
          registered relay is re-pushed up to ``UPDATE_REPUSH_ATTEMPTS``
          times, ``UPDATE_REPUSH_INTERVAL`` seconds apart;
        * a relay that comes back online stops trusting TTR windows that
          were open when it went down and refreshes from the source;
        * a cache peer whose unicast poll to its remembered relay cannot
          even be *routed* forgets that relay and escalates to the
          discovery flood after a token wait.

    Two derived values are fixed once, at construction, from the fields
    as they stand then (the online controller later moves ``ttr``, not
    these):

    * ``poll_ttl`` — flood scope of ``POLL``, equal to
      ``ttl_invalidation``, so cache peers look for relays in the same
      neighbourhood size the invalidation reaches;
    * ``grace_timeout`` — the final silent wait before a poll is served
      stale.  A relay whose TTR expired legitimately *queues* the poll
      until its next ``INVALIDATION`` (Fig 6(c) line 17), so the poller
      grants one TTR dead window (``ttn - ttr``) plus 5 s of slack for
      the late POLL_ACK, and never less than 5 s.
    """

    ttl_invalidation: int = 3
    ttn: float = 120.0
    ttr: float = 90.0
    ttp: float = 240.0
    poll_timeout: float = 4.0
    broadcast_ttl: int = 8
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)
    hardened: bool = False

    def __post_init__(self) -> None:
        if self.ttl_invalidation < 1:
            raise ConfigurationError(
                f"ttl_invalidation must be >= 1, got {self.ttl_invalidation!r}"
            )
        for name in ("ttn", "ttr", "ttp", "poll_timeout"):
            value = getattr(self, name)
            if not value > 0:  # not ``value <= 0``: NaN must fail too
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if self.broadcast_ttl < 1:
            raise ConfigurationError(
                f"broadcast_ttl must be >= 1, got {self.broadcast_ttl!r}"
            )
        # Plain attributes, not fields: a value of its own for either
        # would be one more setting that no public path reaches.
        self.poll_ttl: int = self.ttl_invalidation
        self.grace_timeout: float = max(5.0, self.ttn - self.ttr + 5.0)
