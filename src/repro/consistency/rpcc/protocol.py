"""RPCC: Relay Peer-based Cache Consistency (the paper's contribution).

:class:`RPCCStrategy` builds one :class:`RPCCAgent` per host; each agent
composes the three protocol sides of Fig 6 —
:class:`~repro.consistency.rpcc.source.SourceSide` (6b),
:class:`~repro.consistency.rpcc.relay.RelaySide` (6c) and
:class:`~repro.consistency.rpcc.cache_peer.CachePeerSide` (6d) — plus the
Fig 5 role state machine that governs promotion and demotion.

Promotion flow: a node hears ``INVALIDATION`` for an item it caches; if
its coefficients pass eq 4.2.8 it sends ``APPLY`` and becomes a candidate;
``APPLY_ACK`` (or an ``UPDATE`` that implies the ack was lost) promotes it
to relay.  Demotion happens when coefficients fail at a period boundary
(``CANCEL``) or when the cached item is evicted.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from operator import methodcaller
from typing import Container, Dict, Optional, Set

from repro.cache.item import CachedCopy, MasterCopy
from repro.consistency.base import (
    BaseAgent,
    ConsistencyStrategy,
    QueryJob,
    StrategyContext,
)
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import (
    Apply,
    ApplyAck,
    Cancel,
    GetNew,
    Invalidation,
    Poll,
    PollAckA,
    PollAckB,
    PollHold,
    SendNew,
    Update,
)
from repro.consistency.rpcc.cache_peer import CachePeerSide
from repro.consistency.rpcc.config import (
    MAX_SOURCE_POLL_ATTEMPTS,
    SOURCE_POLL_TIMEOUT,
    RPCCConfig,
)
from repro.consistency.rpcc.relay import RelaySide
from repro.consistency.rpcc.roles import Role, RoleTable
from repro.consistency.rpcc.source import SourceSide
from repro.errors import UnknownItemError
from repro.net.message import Message
from repro.obs import events
from repro.peers.host import MobileHost
from repro.sim.timers import StaggeredClock

__all__ = ["RPCCStrategy", "RPCCAgent"]


class RPCCStrategy(ConsistencyStrategy):
    """Run-global RPCC state: configuration and fleet-wide introspection."""

    name = "rpcc"

    #: A poll is answered by the item's source or one of its relays; an
    #: invalidation is acted on by a relay (even one that lost its copy:
    #: it resigns) or by a holder (which may apply).  A candidate does
    #: nothing with either (``RPCCAgent._handle_poll`` / ``_handle_invalidation``).
    AUDIENCES = {Poll: "poll_audience", Invalidation: "invalidation_audience"}

    def __init__(self, context: StrategyContext, config: Optional[RPCCConfig] = None) -> None:
        super().__init__(context)
        self.config = config if config is not None else RPCCConfig()
        #: item -> hosts relaying it, kept current by every agent's RoleTable.
        self.relays: Dict[int, Set[int]] = {}
        # Online-control state: per-item dissemination overrides (empty
        # means the stock hybrid behaviour everywhere) and the eligibility
        # boost applied on top of the configured selection thresholds.
        self._modes: Dict[int, str] = {}
        self._base_thresholds = self.config.thresholds
        self._relay_boost = 1.0

    def make_agent(self, host: MobileHost) -> "RPCCAgent":
        return RPCCAgent(self, host)

    def poll_audience(self, poll: Poll) -> Container[int]:
        """The polled item's relays and, for a catalogued item, its source."""
        relays = self.relays.get(poll.item_id, ())
        try:
            source = self.context.catalog.source_of(poll.item_id)
        except UnknownItemError:
            return relays
        return {source, *relays} if relays else (source,)

    def invalidation_audience(self, invalidation: Invalidation) -> Container[int]:
        """The invalidated item's relays and holders."""
        holders = self.context.discovery.directory.holder_set(invalidation.item_id)
        relays = self.relays.get(invalidation.item_id)
        # Every relay normally holds a copy: copy the holders (every host,
        # in a single-source world) only when one does not.
        if not relays or relays <= holders:
            return holders
        return holders | relays

    def remote_query_timeout(self) -> float:
        """Clients must outwait the holder's full poll-escalation ladder."""
        config = self.config
        pipeline = (
            2 * config.poll_timeout
            + MAX_SOURCE_POLL_ATTEMPTS * SOURCE_POLL_TIMEOUT
            + config.grace_timeout
        )
        return pipeline + 5.0

    def start(self) -> None:
        """Arm every source host's TTN tick, staggered by node id, on one clock."""
        clock = StaggeredClock(self.context.sim, self.config.ttn, methodcaller("_on_ttn"))
        clock.start(
            (agent.node_id, agent.source)  # type: ignore[attr-defined]
            for agent in self.agents.values()
            if agent.host.source_item is not None
        )

    # ------------------------------------------------------------------
    # Online-control actuation seam (see repro.control)
    # ------------------------------------------------------------------
    def dissemination_mode(self, item_id: int) -> str:
        """Controller-selected dissemination mode for ``item_id``.

        ``"hybrid"`` (the default, and the only value when no controller
        runs) is the stock RPCC behaviour: updates batched until the next
        TTN report, invalidations flooded.  ``"push"`` additionally
        unicasts UPDATE to the relay set the moment the source commits a
        write; ``"pull"`` suppresses the batched content push (relays
        re-sync via GET_NEW after the invalidation) for update-heavy
        items where pushed content would mostly be dead on arrival.
        """
        return self._modes.get(item_id, "hybrid")

    def control_knobs(self) -> Dict[str, float]:
        knobs = super().control_knobs()
        config = self.config
        knobs["ttr"] = config.ttr
        knobs["ttp"] = config.ttp
        knobs["poll_timeout"] = config.poll_timeout
        knobs["relay_boost"] = self._relay_boost
        return knobs

    def apply_control(self, decision) -> Dict[str, float]:
        applied = super().apply_control(decision)
        config = self.config
        for knob in ("ttr", "ttp", "poll_timeout"):
            value = self._knob_target(decision, knob, getattr(config, knob))
            if value is None:
                continue
            # Open windows and armed ladders keep the duration they were
            # granted; only windows opened from now on use the new value.
            setattr(config, knob, value)
            applied[knob] = value
        if "ttp" in applied:
            # Δ is knowledge-relative: reads validated under the old TTP
            # are audited against the bound in force when the knowledge
            # was acquired (the checker keeps the actuation timeline),
            # while fresh audits follow the new bound.
            self.context.delta = config.ttp
        boost = self._knob_target(decision, "relay_boost", self._relay_boost)
        if boost is not None:
            self._relay_boost = boost
            base = self._base_thresholds
            # Eq 4.2.8 gates on car < mu_car, cs > mu_cs, ce > mu_ce:
            # boost > 1 widens all three gates so more peers qualify.
            config.thresholds = dataclass_replace(
                base,
                mu_car=min(1.0, base.mu_car * boost),
                mu_cs=max(1e-9, base.mu_cs / boost),
                mu_ce=max(1e-9, base.mu_ce / boost),
            )
            applied["relay_boost"] = boost
        if decision.modes:
            changed = 0
            for item_id, mode in decision.modes.items():
                if mode not in ("push", "pull", "hybrid"):
                    continue
                current = self._modes.get(item_id, "hybrid")
                if mode == current:
                    continue
                if mode == "hybrid":
                    self._modes.pop(item_id, None)
                else:
                    self._modes[item_id] = mode
                changed += 1
            if changed:
                applied["_modes"] = changed
        return applied

    # ------------------------------------------------------------------
    # Fleet-wide introspection (drives Fig 9 and the relay-count metric)
    # ------------------------------------------------------------------
    def relay_count(self) -> int:
        """Total (node, item) relay relationships currently active."""
        return sum(map(len, self.relays.values()))

    def relay_count_for(self, item_id: int) -> int:
        """Number of hosts currently relaying ``item_id``."""
        return len(self.relays.get(item_id, ()))


class RPCCAgent(BaseAgent):
    """Per-host RPCC endpoint composing the Fig 6 sides."""

    __slots__ = ("config", "roles", "source", "relay", "cache_peer")

    def __init__(self, strategy: RPCCStrategy, host: MobileHost) -> None:
        super().__init__(strategy, host)
        self.config = strategy.config
        self.roles = RoleTable(self.node_id, strategy.relays)
        self.source = SourceSide(self, self.config)
        self.relay = RelaySide(self, self.config)
        self.cache_peer = CachePeerSide(self, self.config)
        # Copies placed before the run starts count as freshly validated.
        for item_id in host.store:
            self.cache_peer.renew_ttp(item_id)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def validate_hit(
        self, copy: CachedCopy, level: ConsistencyLevel, job: QueryJob
    ) -> None:
        if self.roles.is_relay(copy.item_id) and self.relay.ttr_remaining(copy.item_id) > 0:
            # A relay with an open TTR window is authoritative enough for
            # any level: its copy tracks the source within the push period.
            self.answer(job, copy.version, served_locally=True)
            return
        self.cache_peer.on_query(copy, level, job)

    def on_copy_installed(self, copy: CachedCopy) -> None:
        """A fetched copy just landed: open its TTP window."""
        self.cache_peer.renew_ttp(copy.item_id)

    def on_copy_evicted(self, item_id: int) -> None:
        """Replacement pushed out an item: resign any role it carried."""
        if self.roles.role(item_id) is not Role.CACHE_NODE:
            self._resign(item_id, reason="evicted")
        self.cache_peer.forget(item_id)

    def _resign(self, item_id: int, reason: str = "resigned") -> None:
        was_relay = self.roles.is_relay(item_id)
        if was_relay:
            cancel = Cancel(sender=self.node_id, item_id=item_id)
            self.send(self.context.catalog.source_of(item_id), cancel)
        self.roles.demote(item_id)
        self.relay.forget(item_id)
        trace = self.context.sim.trace
        if was_relay and trace.enabled:
            trace.emit(
                events.RelayDemoted(
                    time=self.now, node=self.node_id, item=item_id, reason=reason
                )
            )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    HANDLERS = {
        **BaseAgent.HANDLERS,
        Invalidation: "_handle_invalidation",
        Update: "_handle_update",
        SendNew: "relay.on_send_new",
        GetNew: "source.handle_get_new",
        Apply: "source.handle_apply",
        ApplyAck: "_handle_apply_ack",
        Cancel: "source.handle_cancel",
        Poll: "_handle_poll",
        PollAckA: "cache_peer.on_poll_ack_a",
        PollAckB: "cache_peer.on_poll_ack_b",
        PollHold: "cache_peer.on_poll_hold",
    }

    def handle_protocol_message(self, message: Message) -> None:
        """Unknown floods are bystander noise: already accounted as traffic."""

    def _handle_invalidation(self, message: Invalidation) -> None:
        item_id = message.item_id
        role = self.roles.role(item_id)
        if role is Role.RELAY:
            if item_id in self.host.store:
                self.relay.on_invalidation(message)
            else:
                self._resign(item_id)
            return
        if role is Role.CANDIDATE:
            return  # APPLY outstanding; retried at the next period if lost
        # Plain cache node: Section 4.2 — hearing the INVALIDATION proves we
        # are within TTL hops of the source, the precondition for candidacy.
        if item_id in self.host.store and self.host.tracker.eligible(
            self.config.thresholds
        ):
            self.roles.become_candidate(item_id)
            apply = Apply(sender=self.node_id, item_id=item_id)
            self.send(message.sender, apply)
            self.context.metrics.bump("rpcc_apply_sent")

    def _handle_update(self, message: Update) -> None:
        role = self.roles.role(message.item_id)
        if role is Role.RELAY:
            self.relay.on_update(message)
        elif role is Role.CANDIDATE:
            # Fig 6(d) lines 27-31: the APPLY_ACK was lost but the source
            # clearly added us — accept the promotion.
            self.roles.promote(message.item_id)
            self.context.metrics.bump("rpcc_promoted_via_update")
            trace = self.context.sim.trace
            if trace.enabled:
                trace.emit(
                    events.RelayPromoted(
                        time=self.now, node=self.node_id, item=message.item_id
                    )
                )
            self.relay.on_update(message)
        else:
            self.cache_peer.on_update_as_cache(message)

    def _handle_apply_ack(self, message: ApplyAck) -> None:
        item_id = message.item_id
        if item_id not in self.host.store:
            # Evicted while the ACK was in flight: resign immediately.
            cancel = Cancel(sender=self.node_id, item_id=item_id)
            self.send(message.sender, cancel)
            self.roles.demote(item_id)
            return
        self.roles.promote(item_id)
        self.context.metrics.bump("rpcc_promotions")
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(events.RelayPromoted(time=self.now, node=self.node_id, item=item_id))

    def _handle_poll(self, message: Poll) -> None:
        master = self.host.source_item
        if master is not None and master.item_id == message.item_id:
            self.source.handle_poll(message)
            return
        if self.roles.is_relay(message.item_id):
            self.relay.on_poll(message)
        # Otherwise: flood bystander; traffic already accounted.

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_reconnect(self) -> None:
        """Robustness hardening: distrust TTR windows that span an outage."""
        if self.config.hardened:
            self.relay.resync_after_outage()

    def on_local_update(self, master: MasterCopy) -> None:
        super().on_local_update(master)
        self.source.on_local_update(master)

    def on_period_closed(self) -> None:
        """Fig 5 maintenance at every coefficient/switching period."""
        eligible = self.host.tracker.eligible(self.config.thresholds)
        for item_id in self.roles.tracked_items():
            if item_id not in self.host.store:
                self._resign(item_id, reason="evicted")
                continue
            role = self.roles.role(item_id)
            if not eligible:
                if role is Role.RELAY:
                    self.context.metrics.bump("rpcc_demotions")
                self._resign(item_id, reason="ineligible")
            elif role is Role.CANDIDATE and self.host.online:
                # New switching period: retry the (possibly lost) APPLY.
                apply = Apply(sender=self.node_id, item_id=item_id)
                self.send(self.context.catalog.source_of(item_id), apply)
                self.context.metrics.bump("rpcc_apply_retry")
