"""RPCC source-host side (Fig 6(b) of the paper).

Each host is the source of exactly one item.  At every TTN boundary the
source pushes ``UPDATE`` to the relay peers in its relay table (only when
the master copy changed during the period — Fig 6(b) lines 1-6) and then
floods ``INVALIDATION`` with the configured TTL.  It also serves
``GET_NEW``, negotiates promotions (``APPLY``/``APPLY_ACK``), processes
``CANCEL``, and answers direct fallback ``POLL`` messages from cache peers
that found no relay nearby.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from repro.cache.item import MasterCopy
from repro.consistency.messages import (
    Apply,
    ApplyAck,
    Cancel,
    GetNew,
    Invalidation,
    Poll,
    PollAckA,
    PollAckB,
    SendNew,
    Update,
)
from repro.consistency.rpcc.config import (
    UPDATE_REPUSH_ATTEMPTS,
    UPDATE_REPUSH_INTERVAL,
    RPCCConfig,
)
from repro.obs.events import InvalidationSent
from repro.sim.timers import PeriodicTimer, staggered_start

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.rpcc.protocol import RPCCAgent

__all__ = ["SourceSide"]


class SourceSide:
    """Source-host behaviour for the one item this host owns."""

    __slots__ = ("agent", "config", "_relay_table", "_last_pushed_version", "_timer")

    def __init__(self, agent: "RPCCAgent", config: RPCCConfig) -> None:
        self.agent = agent
        self.config = config
        # Created by the first APPLY: an empty set is 216 bytes, every
        # host is a source, and most sources never have a relay.
        self._relay_table: Optional[Set[int]] = None
        self._last_pushed_version = 0
        self._timer: Optional[PeriodicTimer] = None

    @property
    def relay_table(self) -> Set[int]:
        """Relay peers of this host's item."""
        table = self._relay_table
        if table is None:
            table = self._relay_table = set()
        return table

    # ------------------------------------------------------------------
    # Timer
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the TTN timer (staggered deterministically per host)."""
        if self.agent.host.source_item is None or self._timer is not None:
            return
        self._timer = PeriodicTimer(
            self.agent.context.sim,
            self.config.ttn,
            self._on_ttn,
            start_offset=staggered_start(self.config.ttn, self.agent.node_id),
        )
        self._timer.start()

    def _mode(self, item_id: int) -> str:
        """Controller-selected dissemination mode (``"hybrid"`` when none)."""
        strategy = self.agent.strategy
        mode = getattr(strategy, "dissemination_mode", None)
        return mode(item_id) if mode is not None else "hybrid"

    def _on_ttn(self) -> None:
        """Fig 6(b) lines 1-8: push batched UPDATE, then flood INVALIDATION."""
        master = self.agent.host.source_item
        if master is None or not self.agent.host.online:
            return
        if master.version > self._last_pushed_version:
            # In controller-selected "pull" mode the batched content push
            # is suppressed (relays re-sync via GET_NEW); the
            # INVALIDATION flood below is NEVER suppressed — it is what
            # keeps every freshness contract sound.
            if self._mode(master.item_id) == "pull":
                self._last_pushed_version = master.version
            else:
                self._push_update(master)
        invalidation = Invalidation(
            sender=self.agent.node_id, item_id=master.item_id, version=master.version
        )
        trace = self.agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                InvalidationSent(
                    time=self.agent.now,
                    node=self.agent.node_id,
                    item=master.item_id,
                    version=master.version,
                    ttl=self.config.ttl_invalidation,
                    protocol="rpcc",
                )
            )
        self.agent.flood(invalidation, self.config.ttl_invalidation)

    def _push_update(self, master: MasterCopy) -> None:
        update = Update(
            sender=self.agent.node_id,
            item_id=master.item_id,
            version=master.version,
            content_size=master.content_size,
        )
        unreachable = []
        for relay_id in sorted(self._relay_table or ()):
            if not self.agent.send(relay_id, update):
                # The relay will resynchronise via INVALIDATION + GET_NEW.
                self.agent.context.metrics.bump("rpcc_update_undeliverable")
                unreachable.append(relay_id)
        self._last_pushed_version = master.version
        if unreachable and self.config.hardened:
            self._schedule_repush(master.version, unreachable, attempt=1)

    # ------------------------------------------------------------------
    # Bounded UPDATE re-push (hardened runs only)
    # ------------------------------------------------------------------
    def _schedule_repush(self, version: int, relays: list, attempt: int) -> None:
        self.agent.context.sim.schedule(
            UPDATE_REPUSH_INTERVAL,
            self._repush,
            version,
            relays,
            attempt,
        )

    def _repush(self, version: int, relays: list, attempt: int) -> None:
        """Retry an undeliverable ``UPDATE`` to the relays that missed it.

        Gives up silently when the pushed version has been superseded
        (the next TTN boundary carries the newer one anyway) or when the
        source itself is down; relays that resigned in the meantime are
        skipped.  At most ``UPDATE_REPUSH_ATTEMPTS`` rounds, so a relay
        that stays unreachable costs a bounded number of extra sends.
        """
        master = self.agent.host.source_item
        if (
            master is None
            or master.version != version
            or not self.agent.host.online
        ):
            return
        update = Update(
            sender=self.agent.node_id,
            item_id=master.item_id,
            version=master.version,
            content_size=master.content_size,
        )
        still_unreachable = []
        for relay_id in relays:
            if relay_id not in self.relay_table:
                continue
            if self.agent.send(relay_id, update):
                self.agent.context.metrics.bump("rpcc_update_repushed")
            else:
                still_unreachable.append(relay_id)
        if still_unreachable and attempt < UPDATE_REPUSH_ATTEMPTS:
            self._schedule_repush(version, still_unreachable, attempt + 1)

    def on_local_update(self, master: MasterCopy) -> None:
        """Push the update immediately in controller-selected "push" mode."""
        if not self.agent.host.online:
            return
        if self._mode(master.item_id) == "push":
            self._push_update(master)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _owns(self, item_id: int) -> bool:
        master = self.agent.host.source_item
        return master is not None and master.item_id == item_id

    def handle_get_new(self, message: GetNew) -> None:
        """Fig 6(b) lines 9-11: a relay missed updates; ship fresh content."""
        if not self._owns(message.item_id):
            return
        master = self.agent.host.source_item
        assert master is not None
        reply = SendNew(
            sender=self.agent.node_id,
            item_id=master.item_id,
            version=master.version,
            content_size=master.content_size,
        )
        self.agent.send(message.sender, reply)

    def handle_apply(self, message: Apply) -> None:
        """Fig 6(b) lines 12-15: approve a candidate's promotion."""
        if not self._owns(message.item_id):
            return
        self.relay_table.add(message.sender)
        ack = ApplyAck(
            sender=self.agent.node_id,
            item_id=message.item_id,
            relay_id=message.sender,
        )
        if not self.agent.send(message.sender, ack):
            # Fig 6(b) lines 16-18 / Section 4.5: the candidate became
            # unreachable (detected at the MAC layer); drop it again.
            self.relay_table.discard(message.sender)
            self.agent.context.metrics.bump("rpcc_apply_ack_undeliverable")

    def handle_cancel(self, message: Cancel) -> None:
        """Fig 6(b) lines 16-18: a relay resigned."""
        if self._relay_table is not None:
            self._relay_table.discard(message.sender)

    def handle_poll(self, message: Poll) -> None:
        """Fallback direct poll from a cache peer that found no relay."""
        if not self._owns(message.item_id):
            return
        master = self.agent.host.source_item
        assert master is not None
        self.agent.host.tracker.record_access()
        if message.version >= master.version:
            reply: object = PollAckA(
                sender=self.agent.node_id,
                item_id=master.item_id,
                version=master.version,
                poll_id=message.poll_id,
            )
        else:
            reply = PollAckB(
                sender=self.agent.node_id,
                item_id=master.item_id,
                version=master.version,
                poll_id=message.poll_id,
                content_size=master.content_size,
            )
        self.agent.send(message.sender, reply)
