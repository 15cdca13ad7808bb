"""Simple pull-based invalidation (the paper's second baseline).

Every query at a cache node triggers an on-demand poll of the item's
source host.  Lacking a routing substrate, the poll is *flooded* with
``TTL_BR`` = 8 hops (Table 1 lists that TTL for both simple strategies);
the source answers with a unicast reply that carries fresh content when
the poller's copy was stale.

This gives the short latency and the heavy per-query traffic the paper
reports for pure pull.  When the source is unreachable the poller retries
and finally serves its local copy stale (counted separately).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cache.item import CachedCopy
from repro.consistency.base import (
    BaseAgent,
    ConsistencyStrategy,
    PendingQuery,
    QueryJob,
    StrategyContext,
)
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import PullPoll, PullReply, next_poll_id
from repro.errors import ProtocolError, UnknownItemError
from repro.net.message import Message
from repro.obs import events
from repro.peers.host import MobileHost

__all__ = ["PullStrategy", "PullAgent"]

#: Poll attempts before a query is served stale from the local copy.
MAX_POLL_ATTEMPTS = 2


class PullStrategy(ConsistencyStrategy):
    """Run-global configuration for simple pull.

    Parameters
    ----------
    context:
        Shared strategy plumbing.
    ttl:
        Flood scope of each poll in hops (Table 1: ``TTL_BR`` = 8).
    poll_timeout:
        Seconds a poller waits for the source's reply before retrying.
    """

    name = "pull"

    #: Only the item's source answers a poll (``PullAgent._handle_poll``).
    AUDIENCES = {PullPoll: "poll_audience"}

    def __init__(
        self,
        context: StrategyContext,
        ttl: int = 8,
        poll_timeout: float = 4.0,
    ) -> None:
        super().__init__(context)
        if ttl < 1:
            raise ProtocolError(f"ttl must be >= 1, got {ttl!r}")
        if poll_timeout <= 0:
            raise ProtocolError(f"poll_timeout must be positive, got {poll_timeout!r}")
        self.ttl = int(ttl)
        self.poll_timeout = float(poll_timeout)

    def remote_query_timeout(self) -> float:
        """Clients must outwait the holder's full poll-and-retry cycle."""
        return MAX_POLL_ATTEMPTS * self.poll_timeout + 5.0

    def control_knobs(self) -> Dict[str, float]:
        knobs = super().control_knobs()
        knobs["poll_timeout"] = self.poll_timeout
        return knobs

    def apply_control(self, decision) -> Dict[str, float]:
        applied = super().apply_control(decision)
        timeout = self._knob_target(decision, "poll_timeout", self.poll_timeout)
        if timeout is not None:
            # Armed poll timeouts fire as scheduled; only polls sent
            # after this point wait the new duration.
            self.poll_timeout = timeout
            applied["poll_timeout"] = timeout
        return applied

    def make_agent(self, host: MobileHost) -> "PullAgent":
        return PullAgent(self, host)

    def poll_audience(self, poll: PullPoll) -> Tuple[int, ...]:
        """The source of the polled item (nobody for an unknown item)."""
        try:
            return (self.context.catalog.source_of(poll.item_id),)
        except UnknownItemError:
            return ()


class PullAgent(BaseAgent):
    """Per-host endpoint of the simple pull strategy."""

    __slots__ = ("pull", "_pending_polls")

    def __init__(self, strategy: PullStrategy, host: MobileHost) -> None:
        super().__init__(strategy, host)
        self.pull: PullStrategy = strategy
        self._pending_polls: Dict[int, PendingQuery] = {}

    # ------------------------------------------------------------------
    # Cache side
    # ------------------------------------------------------------------
    def validate_hit(
        self, copy: CachedCopy, level: ConsistencyLevel, job: QueryJob
    ) -> None:
        """Every held copy is validated by polling the source."""
        self._send_poll(PendingQuery(job), copy)

    def _send_poll(self, pending: PendingQuery, copy: CachedCopy) -> None:
        pending.attempts += 1
        if pending.attempts > MAX_POLL_ATTEMPTS:
            self.context.metrics.bump("pull_fallback_stale")
            self.answer(pending.job, copy.version, fallback=True)
            return
        poll_id = next_poll_id()
        self._pending_polls[poll_id] = pending
        poll = PullPoll(
            sender=self.node_id,
            item_id=copy.item_id,
            version=copy.version,
            poll_id=poll_id,
        )
        self.flood(poll, self.pull.ttl)
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                events.PollSent(
                    time=self.now,
                    node=self.node_id,
                    item=copy.item_id,
                    poll_id=poll_id,
                    stage="source",
                    ttl=self.pull.ttl,
                )
            )
        pending.timeout_handle = self.context.sim.schedule(
            self.pull.poll_timeout, self._poll_timeout, poll_id
        )

    def _poll_timeout(self, poll_id: int) -> None:
        pending = self._pending_polls.pop(poll_id, None)
        if pending is None:
            return
        copy = self.host.store.peek(pending.item_id)
        if copy is None:
            self.context.metrics.bump("pull_copy_lost")
            return
        if pending.attempts < MAX_POLL_ATTEMPTS:
            self.context.metrics.bump("pull_retry")
        self._send_poll(pending, copy)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    HANDLERS = {
        **BaseAgent.HANDLERS,
        PullPoll: "_handle_poll",
        PullReply: "_handle_reply",
    }

    def handle_protocol_message(self, message: Message) -> None:
        raise ProtocolError(f"pull agent cannot handle {message.type_name} messages")

    def _handle_poll(self, message: PullPoll) -> None:
        master = self.host.source_item
        if master is None or master.item_id != message.item_id:
            return  # the flood reached a non-source node; ignore
        self.host.tracker.record_access()
        up_to_date = message.version >= master.version
        reply = PullReply(
            sender=self.node_id,
            item_id=master.item_id,
            version=master.version,
            poll_id=message.poll_id,
            up_to_date=up_to_date,
            content_size=master.content_size,
        )
        self.send(message.sender, reply)

    def _handle_reply(self, message: PullReply) -> None:
        pending = self._pending_polls.pop(message.poll_id, None)
        if pending is None:
            return  # duplicate or post-timeout reply
        pending.cancel_timeout()
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                events.PollAnswered(
                    time=self.now,
                    node=self.node_id,
                    item=message.item_id,
                    poll_id=message.poll_id,
                    version=message.version,
                    fresh=message.up_to_date,
                )
            )
        copy = self.host.store.peek(message.item_id)
        if message.up_to_date:
            version = copy.version if copy is not None else message.version
            self.answer(pending.job, version)
            return
        if copy is not None:
            copy.refresh(message.version, self.now)
        self.answer(pending.job, message.version)
