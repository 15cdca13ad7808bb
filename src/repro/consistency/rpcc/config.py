"""RPCC protocol configuration (Table 1 defaults).

All timer names follow Fig 6(a) of the paper:

* ``TTN`` — time to notify: the source host's invalidation interval;
* ``TTR`` — time to refresh: how long a relay peer trusts its copy;
* ``TTP`` — time to poll: how long a cache peer trusts its copy
  (also the Δ of delta-consistency, Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.peers.coefficients import SelectionThresholds

__all__ = ["RPCCConfig"]


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
    poll_ttl:
        Flood scope of ``POLL``; defaults to ``ttl_invalidation`` so cache
        peers look for relays in the same neighbourhood size the
        invalidation reaches.
    poll_timeout:
        Seconds a cache peer waits on the relay-unicast and relay-flood
        poll stages before escalating to the next stage.
    source_poll_timeout:
        Seconds to wait on the wide-broadcast fallback poll before the
        final retry / forced-stale answer.
    max_source_poll_attempts:
        Wide-broadcast fallback attempts before the final grace wait.
    grace_timeout:
        Final silent wait before a poll is served stale.  A relay whose
        TTR expired legitimately *queues* the poll until its next
        ``INVALIDATION`` (Fig 6(c) line 17), so the poller grants one TTR
        dead window (``ttn - ttr``) plus slack for the late POLL_ACK.
        Computed as ``ttn - ttr + 5`` when not given.
    broadcast_ttl:
        Flood scope of the fallback poll that must reach the source host
        itself (``TTL_BR`` — the same 8 hops the simple strategies use,
        which is what makes low-TTL RPCC degenerate into simple pull in
        Fig 9).
    relay_hold_notice:
        When ``True`` (default) a relay that queues a poll (expired TTR)
        unicasts a tiny ``POLL_HOLD`` back, so the poller waits for the
        queued answer instead of escalating into broadcast floods.  A
        reproduction addition beyond Fig 6; see DESIGN.md.
    thresholds:
        The ``mu`` thresholds of eq 4.2.8.
    update_repush_attempts:
        Robustness hardening (default 0 = paper-faithful off): when a
        TTN-boundary ``UPDATE`` cannot be delivered to a registered
        relay, retry it up to this many times, ``update_repush_interval``
        seconds apart, unless a newer version supersedes it first.
        Bounds the window in which a relay that merely lost its route
        (partition, burst loss) keeps validating against an old version.
    update_repush_interval:
        Seconds between bounded ``UPDATE`` re-push attempts.
    resync_on_reconnect:
        Robustness hardening (default off): a relay that comes back
        online stops trusting TTR windows that were open when it went
        down — it missed any ``INVALIDATION`` flooded meanwhile — and
        refreshes from the source before answering polls again.
    fast_relay_failover:
        Robustness hardening (default off): a cache peer whose unicast
        poll to its remembered relay cannot even be *routed* (the relay
        crashed or is partitioned away) forgets that relay and escalates
        to the discovery flood after a token wait, instead of sitting
        out the full poll window for an answer that cannot come.
    """

    ttl_invalidation: int = 3
    ttn: float = 120.0
    ttr: float = 90.0
    ttp: float = 240.0
    poll_ttl: Optional[int] = None
    poll_timeout: float = 4.0
    source_poll_timeout: float = 4.0
    max_source_poll_attempts: int = 2
    grace_timeout: Optional[float] = None
    broadcast_ttl: int = 8
    relay_hold_notice: bool = True
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)
    update_repush_attempts: int = 0
    update_repush_interval: float = 10.0
    resync_on_reconnect: bool = False
    fast_relay_failover: bool = False

    def __post_init__(self) -> None:
        if self.ttl_invalidation < 1:
            raise ConfigurationError(
                f"ttl_invalidation must be >= 1, got {self.ttl_invalidation!r}"
            )
        for name in ("ttn", "ttr", "ttp", "poll_timeout", "source_poll_timeout"):
            value = getattr(self, name)
            if not value > 0:  # not ``value <= 0``: NaN must fail too
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if self.max_source_poll_attempts < 1:
            raise ConfigurationError(
                "max_source_poll_attempts must be >= 1, "
                f"got {self.max_source_poll_attempts!r}"
            )
        if self.broadcast_ttl < 1:
            raise ConfigurationError(
                f"broadcast_ttl must be >= 1, got {self.broadcast_ttl!r}"
            )
        if self.grace_timeout is None:
            self.grace_timeout = max(5.0, self.ttn - self.ttr + 5.0)
        elif not self.grace_timeout > 0:
            raise ConfigurationError(
                f"grace_timeout must be positive, got {self.grace_timeout!r}"
            )
        if self.update_repush_attempts < 0:
            raise ConfigurationError(
                "update_repush_attempts must be >= 0, "
                f"got {self.update_repush_attempts!r}"
            )
        if not self.update_repush_interval > 0:
            raise ConfigurationError(
                "update_repush_interval must be positive, "
                f"got {self.update_repush_interval!r}"
            )
        if self.poll_ttl is None:
            self.poll_ttl = self.ttl_invalidation
        elif self.poll_ttl < 1:
            raise ConfigurationError(f"poll_ttl must be >= 1, got {self.poll_ttl!r}")

    @property
    def delta(self) -> float:
        """The Δ bound of delta-consistency ("in RPCC, TTP is the Δ value")."""
        return self.ttp
