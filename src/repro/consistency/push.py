"""Simple push-based invalidation (the paper's first baseline).

Every source host periodically floods an invalidation report carrying the
current version of its item (TTL ``TTL_BR`` = 8 hops, period ``TTN``).
A query at a cache node cannot be answered until the *next* report proves
the copy current (or exposes it as stale, triggering a content refresh
from the source) — hence the paper's observation that "the average query
latency is longer than half of the invalidation interval".

Weakness faithfully reproduced: a node that misses reports (offline, or
outside the flood's TTL scope) waits in vain; after ``WAIT_FACTOR x TTN``
it gives up and serves its possibly-stale local copy, which is exactly the
stale-data-on-reconnection problem Section 4 attributes to pure push.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cache.item import CachedCopy
from repro.consistency.base import (
    BaseAgent,
    ConsistencyStrategy,
    PendingQuery,
    QueryJob,
    StrategyContext,
)
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import (
    FetchReply,
    FetchRequest,
    PushInvalidation,
    next_fetch_id,
)
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.obs.events import FetchCompleted, FetchStarted, InvalidationSent
from repro.peers.host import MobileHost
from repro.sim.timers import PeriodicTimer, staggered_start

__all__ = ["PushStrategy", "PushAgent"]

#: A waiting query gives up after ``WAIT_FACTOR * ttn`` seconds and serves
#: its local copy stale.
WAIT_FACTOR = 2.5


class PushStrategy(ConsistencyStrategy):
    """Run-global configuration and timer management for simple push.

    Parameters
    ----------
    context:
        Shared strategy plumbing.
    ttn:
        Invalidation-report period in seconds (Table 1: 2 minutes).
    ttl:
        Flood scope of the report in hops (Table 1: ``TTL_BR`` = 8).
    """

    name = "push"

    def __init__(
        self,
        context: StrategyContext,
        ttn: float = 120.0,
        ttl: int = 8,
    ) -> None:
        super().__init__(context)
        if ttn <= 0:
            raise ProtocolError(f"ttn must be positive, got {ttn!r}")
        if ttl < 1:
            raise ProtocolError(f"ttl must be >= 1, got {ttl!r}")
        self.ttn = float(ttn)
        self.ttl = int(ttl)
        self._timers: List[PeriodicTimer] = []

    def remote_query_timeout(self) -> float:
        """Clients must outwait the holder's worst-case report wait."""
        return WAIT_FACTOR * self.ttn + 10.0

    def control_knobs(self) -> Dict[str, float]:
        knobs = super().control_knobs()
        knobs["ttn"] = self.ttn
        return knobs

    def apply_control(self, decision) -> Dict[str, float]:
        applied = super().apply_control(decision)
        ttn = self._knob_target(decision, "ttn", self.ttn)
        if ttn is not None:
            self.ttn = ttn
            # Each armed tick fires as scheduled; only the *next*
            # re-arm reads the new interval (actuation-seam rule).
            for timer in self._timers:
                timer.interval = ttn
            applied["ttn"] = ttn
        return applied

    def make_agent(self, host: MobileHost) -> "PushAgent":
        return PushAgent(self, host)

    def start(self) -> None:
        """Arm one staggered invalidation-report timer per source host."""
        for agent in self.agents.values():
            host = agent.host
            if host.source_item is None:
                continue
            timer = PeriodicTimer(
                self.context.sim,
                self.ttn,
                agent.broadcast_report,  # type: ignore[attr-defined]
                start_offset=staggered_start(self.ttn, host.node_id),
            )
            timer.start()
            self._timers.append(timer)

class PushAgent(BaseAgent):
    """Per-host endpoint of the simple push strategy."""

    __slots__ = ("push", "_waiting", "_refreshing", "_refresh_ids")

    def __init__(self, strategy: PushStrategy, host: MobileHost) -> None:
        super().__init__(strategy, host)
        self.push: PushStrategy = strategy
        # item_id -> queries waiting for the next invalidation report
        self._waiting: Dict[int, List[PendingQuery]] = {}
        # items with a content refresh from the source in flight
        self._refreshing: Set[int] = set()
        self._refresh_ids: Dict[int, int] = {}  # fetch_id -> item_id

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def broadcast_report(self) -> None:
        """Flood this host's invalidation report (periodic timer hook)."""
        master = self.host.source_item
        if master is None or not self.host.online:
            return
        report = PushInvalidation(
            sender=self.node_id, item_id=master.item_id, version=master.version
        )
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                InvalidationSent(
                    time=self.now,
                    node=self.node_id,
                    item=master.item_id,
                    version=master.version,
                    ttl=self.push.ttl,
                    protocol="push",
                )
            )
        self.flood(report, self.push.ttl)

    # ------------------------------------------------------------------
    # Cache side
    # ------------------------------------------------------------------
    def validate_hit(
        self, copy: CachedCopy, level: ConsistencyLevel, job: QueryJob
    ) -> None:
        """Queue the query until the next report proves the copy's status."""
        pending = PendingQuery(job)
        self._waiting.setdefault(copy.item_id, []).append(pending)
        deadline = WAIT_FACTOR * self.push.ttn
        pending.timeout_handle = self.context.sim.schedule(
            deadline, self._give_up, copy.item_id, pending
        )

    def _give_up(self, item_id: int, pending: PendingQuery) -> None:
        waiters = self._waiting.get(item_id)
        if not waiters or pending not in waiters:
            return
        waiters.remove(pending)
        copy = self.host.store.peek(item_id)
        if copy is None:
            self.context.metrics.bump("push_giveup_no_copy")
            return
        self.context.metrics.bump("push_fallback_stale")
        self.answer(pending.job, copy.version, fallback=True)

    HANDLERS = {
        **BaseAgent.HANDLERS,
        PushInvalidation: "_handle_report",
        FetchRequest: "_handle_fetch_request",
        FetchReply: "_handle_fetch_reply",
    }

    def handle_protocol_message(self, message: Message) -> None:
        raise ProtocolError(f"push agent cannot handle {message.type_name} messages")

    def _handle_report(self, message: PushInvalidation) -> None:
        item_id = message.item_id
        copy = self.host.store.peek(item_id)
        if copy is None:
            return
        if copy.version >= message.version:
            # Copy confirmed current: drain every waiting query.
            for pending in self._waiting.pop(item_id, []):
                pending.cancel_timeout()
                self.answer(pending.job, copy.version)
            return
        # Copy is stale.  Refresh the content from the source when queries
        # are waiting on it; all waiters drain when the new copy lands.
        if self._waiting.get(item_id) and item_id not in self._refreshing:
            self._start_refresh(item_id)

    # ------------------------------------------------------------------
    # Content refresh (source -> holder)
    # ------------------------------------------------------------------
    def _start_refresh(self, item_id: int) -> None:
        fetch_id = next_fetch_id()
        source = self.context.catalog.source_of(item_id)
        request = FetchRequest(sender=self.node_id, item_id=item_id, fetch_id=fetch_id)
        if self.send(source, request):
            trace = self.context.sim.trace
            if trace.enabled:
                trace.emit(
                    FetchStarted(
                        time=self.now,
                        node=self.node_id,
                        item=item_id,
                        target=source,
                        kind="push-refresh",
                    )
                )
            self._refreshing.add(item_id)
            self._refresh_ids[fetch_id] = item_id
            # If the reply never comes, the next report retries the refresh.
            self.context.sim.schedule(
                self.push.ttn, self._refresh_timeout, fetch_id
            )
        # When the source is unreachable the waiters simply keep waiting;
        # their give-up timers bound the damage.

    def _refresh_timeout(self, fetch_id: int) -> None:
        item_id = self._refresh_ids.pop(fetch_id, None)
        if item_id is not None:
            self._refreshing.discard(item_id)

    def _handle_fetch_request(self, message: FetchRequest) -> None:
        master = self.host.source_item
        if master is None or master.item_id != message.item_id:
            return
        reply = FetchReply(
            sender=self.node_id,
            item_id=master.item_id,
            version=master.version,
            fetch_id=message.fetch_id,
            content_size=master.content_size,
        )
        self.send(message.sender, reply)

    def _handle_fetch_reply(self, message: FetchReply) -> None:
        item_id = self._refresh_ids.pop(message.fetch_id, None)
        if item_id is None:
            return
        self._refreshing.discard(item_id)
        copy = self.host.store.peek(item_id)
        if copy is None:
            return
        if message.version > copy.version:
            copy.refresh(message.version, self.now)
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                FetchCompleted(
                    time=self.now,
                    node=self.node_id,
                    item=item_id,
                    version=copy.version,
                    kind="push-refresh",
                )
            )
        for pending in self._waiting.pop(item_id, []):
            pending.cancel_timeout()
            self.answer(pending.job, copy.version)

    def waiting_count(self, item_id: int) -> int:
        """Queries currently waiting for a report on ``item_id`` (tests)."""
        return len(self._waiting.get(item_id, ()))
