"""RPCC relay-peer side (Fig 6(c) of the paper).

A relay peer keeps a TTR freshness window per relayed item.  While TTR is
open it answers ``POLL`` messages immediately (``POLL_ACK_A`` when the
poller is current, ``POLL_ACK_B`` with fresh content when it is stale);
once TTR expires it queues polls and waits for the next ``INVALIDATION``
(Fig 6(c) lines 16-17).  An ``INVALIDATION`` revealing a missed update
triggers ``GET_NEW``; the source's ``SEND_NEW``/``UPDATE`` refresh the
copy, renew TTR and drain the queued polls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.cache.item import CachedCopy
from repro.consistency.messages import (
    GetNew,
    Invalidation,
    Poll,
    PollAckA,
    PollAckB,
    PollHold,
    SendNew,
    Update,
)
from repro.consistency.rpcc.config import RPCCConfig
from repro.obs.events import FetchCompleted, FetchStarted
from repro.sim.timers import CountdownTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.rpcc.protocol import RPCCAgent

__all__ = ["RelaySide"]


class RelaySide:
    """Relay behaviour for every item this host currently relays."""

    __slots__ = ("agent", "config", "_ttr", "_queued_polls", "_awaiting_get_new")

    def __init__(self, agent: "RPCCAgent", config: RPCCConfig) -> None:
        self.agent = agent
        self.config = config
        self._ttr: Dict[int, CountdownTimer] = {}
        self._queued_polls: Dict[int, List[Poll]] = {}
        # A set of item ids, kept as a dict's keys: there is one per host
        # and it is nearly always empty — 64 bytes as a dict, 216 as a set.
        self._awaiting_get_new: Dict[int, None] = {}

    # ------------------------------------------------------------------
    # TTR management
    # ------------------------------------------------------------------
    def ttr_remaining(self, item_id: int) -> float:
        """Seconds left in the item's TTR window (0 when expired/absent)."""
        timer = self._ttr.get(item_id)
        return 0.0 if timer is None else timer.remaining

    def renew_ttr(self, item_id: int) -> None:
        """Open a fresh TTR window for ``item_id``.

        The duration is read from the live config at every renewal so a
        controller-actuated TTR change applies to the *next* window while
        windows already open keep the span they were granted.
        """
        timer = self._ttr.get(item_id)
        if timer is None:
            timer = CountdownTimer(self.agent.context.sim, self.config.ttr)
            self._ttr[item_id] = timer
        timer.renew(self.config.ttr)

    def forget(self, item_id: int) -> None:
        """Drop all relay state for ``item_id`` (demotion or eviction)."""
        timer = self._ttr.pop(item_id, None)
        if timer is not None:
            timer.expire_now()
        self._queued_polls.pop(item_id, None)
        self._awaiting_get_new.pop(item_id, None)

    def resync_after_outage(self) -> None:
        """Reconnect hardening: stop trusting pre-outage TTR windows.

        A relay that was offline (crash, churn) may have missed any
        number of ``INVALIDATION`` floods; its TTR countdowns kept
        running while it was away, so an open window proves nothing
        about freshness any more.  Expire every window and ask the
        source for current content — polls arriving meanwhile queue
        under the normal expired-TTR rule and drain when the refresh
        lands, so the relay never vouches for a copy it cannot trust.
        Gated behind ``resync_on_reconnect`` by the caller.
        """
        for item_id, timer in list(self._ttr.items()):
            if not self.agent.roles.is_relay(item_id):
                continue
            if timer.remaining > 0:
                timer.expire_now()
            self.agent.context.metrics.bump("rpcc_relay_resync")
            self._send_get_new(item_id)

    # ------------------------------------------------------------------
    # Push-side message handling
    # ------------------------------------------------------------------
    def on_invalidation(self, message: Invalidation) -> None:
        """Fig 6(c) lines 1-8 + Section 4.5 reconnection handling."""
        item_id = message.item_id
        copy = self.agent.host.store.peek(item_id)
        if copy is None:
            return  # eviction raced the flood; the agent will demote
        if copy.version < message.version:
            # Missed one or more updates (e.g. while disconnected).  The
            # copy is now *known* stale, so close the TTR window at once —
            # otherwise an open TTR would keep answering polls with the
            # stale copy until the refresh lands.
            timer = self._ttr.get(item_id)
            if timer is not None:
                timer.expire_now()
            self._send_get_new(item_id)
        else:
            self.renew_ttr(item_id)
            self._drain(item_id, copy)

    def _send_get_new(self, item_id: int) -> None:
        if item_id in self._awaiting_get_new:
            return
        source = self.agent.context.catalog.source_of(item_id)
        request = GetNew(sender=self.agent.node_id, item_id=item_id)
        if self.agent.send(source, request):
            trace = self.agent.context.sim.trace
            if trace.enabled:
                trace.emit(
                    FetchStarted(
                        time=self.agent.now,
                        node=self.agent.node_id,
                        item=item_id,
                        target=source,
                        kind="get-new",
                    )
                )
            self._awaiting_get_new[item_id] = None
        # On failure: Section 4.5 — wait for the next INVALIDATION and retry.

    def on_update(self, message: Update) -> None:
        """Fig 6(c) lines 23-25: the source pushed fresh content."""
        copy = self.agent.host.store.peek(message.item_id)
        if copy is None:
            return
        if message.version > copy.version:
            copy.refresh(message.version, self.agent.now)
        self.renew_ttr(message.item_id)
        self._awaiting_get_new.pop(message.item_id, None)
        self._drain(message.item_id, copy)

    def on_send_new(self, message: SendNew) -> None:
        """Fig 6(c) lines 19-22: fresh content after GET_NEW."""
        copy = self.agent.host.store.peek(message.item_id)
        self._awaiting_get_new.pop(message.item_id, None)
        if copy is None:
            return
        if message.version > copy.version:
            copy.refresh(message.version, self.agent.now)
        trace = self.agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                FetchCompleted(
                    time=self.agent.now,
                    node=self.agent.node_id,
                    item=message.item_id,
                    version=copy.version,
                    kind="get-new",
                )
            )
        self.renew_ttr(message.item_id)
        self._drain(message.item_id, copy)

    # ------------------------------------------------------------------
    # Pull-side message handling
    # ------------------------------------------------------------------
    def on_poll(self, message: Poll) -> None:
        """Fig 6(c) lines 9-18: validate a cache peer's copy."""
        item_id = message.item_id
        copy = self.agent.host.store.peek(item_id)
        if copy is None:
            return
        self.agent.host.tracker.record_access()
        if self.ttr_remaining(item_id) > 0:
            self._reply(message, copy)
            return
        # Stale at the relay: hold the poll until the next refresh.
        self._queued_polls.setdefault(item_id, []).append(message)
        self.agent.context.metrics.bump("rpcc_poll_queued_at_relay")
        if self.config.relay_hold_notice:
            hold = PollHold(
                sender=self.agent.node_id, item_id=item_id, poll_id=message.poll_id
            )
            self.agent.send(message.sender, hold)

    def _reply(self, poll: Poll, copy: CachedCopy) -> None:
        if poll.version >= copy.version:
            reply: object = PollAckA(
                sender=self.agent.node_id,
                item_id=copy.item_id,
                version=copy.version,
                poll_id=poll.poll_id,
            )
        else:
            reply = PollAckB(
                sender=self.agent.node_id,
                item_id=copy.item_id,
                version=copy.version,
                poll_id=poll.poll_id,
                content_size=copy.content_size,
            )
        self.agent.send(poll.sender, reply)

    def _drain(self, item_id: int, copy: CachedCopy) -> None:
        for poll in self._queued_polls.pop(item_id, []):
            self._reply(poll, copy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queued_poll_count(self, item_id: int) -> int:
        """Polls currently held for ``item_id`` (testing/diagnostics)."""
        return len(self._queued_polls.get(item_id, ()))
