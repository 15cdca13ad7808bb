"""RPCC cache-peer side (Fig 6(d) and Section 4.4 of the paper).

Query handling implements the adaptive consistency logic:

* **weak** — answer immediately from the local copy;
* **delta** — answer immediately while the TTP window (= Δ) is open,
  otherwise poll;
* **strong** — always poll.

Poll pipeline.  Fig 6(d) line 8 says "Broadcast POLL"; finding "the
nearest relay peer" (Section 4.1) is realised as an escalation ladder:

1. ``relay`` — unicast the peer that answered last time (cheap, common);
2. ``flood`` — TTL-limited broadcast so any nearby relay can answer;
3. ``broadcast`` (xN) — a ``TTL_BR``-wide flood that reaches the source
   host itself, which is what makes low-TTL RPCC degenerate into simple
   pull in Fig 9;
4. ``grace`` — a silent wait: a relay whose TTR expired legitimately
   *queues* the poll until its next ``INVALIDATION`` (Fig 6(c) line 17),
   so its late ``POLL_ACK`` must still be accepted;
5. finally the local copy is served stale and counted as such.

Every stage registers its own poll id against the same pending query, so
an acknowledgement of *any* earlier stage answers the query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cache.item import CachedCopy
from repro.consistency.base import QueryJob
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import (
    Cancel,
    Poll,
    PollAckA,
    PollAckB,
    PollHold,
    Update,
    next_poll_id,
)
from repro.consistency.rpcc.config import RPCCConfig
from repro.obs.events import PollAnswered, PollSent
from repro.sim.engine import EventHandle
from repro.sim.timers import CountdownTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.rpcc.protocol import RPCCAgent

__all__ = ["CachePeerSide"]


class _PollState:
    """One query working its way down the poll escalation ladder."""

    __slots__ = ("job", "item_id", "stages", "stage_index", "poll_ids",
                 "timeout_handle", "done", "known_relay")

    def __init__(self, job: QueryJob, item_id: int) -> None:
        self.job = job
        self.item_id = item_id
        self.stages: List[str] = []
        self.stage_index = -1
        self.poll_ids: List[int] = []
        self.timeout_handle: Optional[EventHandle] = None
        self.done = False
        self.known_relay: Optional[int] = None

    @property
    def current_stage(self) -> str:
        """Name of the stage currently waiting."""
        return self.stages[self.stage_index]

    def cancel_timeout(self) -> None:
        """Disarm the stage timer."""
        if self.timeout_handle is not None:
            self.timeout_handle.cancel()
            self.timeout_handle = None


class CachePeerSide:
    """Cache-peer behaviour: queries, TTP windows, polls and fallbacks."""

    __slots__ = ("agent", "config", "_ttp", "_pending", "_known_relay")

    def __init__(self, agent: "RPCCAgent", config: RPCCConfig) -> None:
        self.agent = agent
        self.config = config
        self._ttp: Dict[int, CountdownTimer] = {}
        self._pending: Dict[int, _PollState] = {}
        # item_id -> the relay that last answered a poll
        self._known_relay: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # TTP management
    # ------------------------------------------------------------------
    def ttp_remaining(self, item_id: int) -> float:
        """Seconds left in the item's TTP window (0 when expired/absent)."""
        timer = self._ttp.get(item_id)
        return 0.0 if timer is None else timer.remaining

    def renew_ttp(self, item_id: int) -> None:
        """Open a fresh TTP window for ``item_id``.

        The duration is read from the live config at every renewal so a
        controller-actuated TTP change applies to the *next* window while
        windows already open keep the span they were granted.
        """
        timer = self._ttp.get(item_id)
        if timer is None:
            timer = CountdownTimer(self.agent.context.sim, self.config.ttp)
            self._ttp[item_id] = timer
        timer.renew(self.config.ttp)

    def forget(self, item_id: int) -> None:
        """Drop TTP and relay-memory state for an evicted item."""
        timer = self._ttp.pop(item_id, None)
        if timer is not None:
            timer.expire_now()
        self._known_relay.pop(item_id, None)

    # ------------------------------------------------------------------
    # Query handling (Section 4.4)
    # ------------------------------------------------------------------
    def on_query(
        self, copy: CachedCopy, level: ConsistencyLevel, job: QueryJob
    ) -> None:
        """Serve a held copy according to its consistency requirement."""
        if level is ConsistencyLevel.WEAK:
            self.agent.answer(job, copy.version, served_locally=True)
            return
        if level is ConsistencyLevel.DELTA and self.ttp_remaining(copy.item_id) > 0:
            self.agent.answer(job, copy.version, served_locally=True)
            return
        self._begin_poll(job, copy)

    # ------------------------------------------------------------------
    # Poll escalation ladder
    # ------------------------------------------------------------------
    def _begin_poll(self, job: QueryJob, copy: CachedCopy) -> None:
        state = _PollState(job, copy.item_id)
        known = self._known_relay.get(copy.item_id)
        if known is not None and not self._relay_in_reach(known):
            # "Find the NEAREST relay peer" (Section 4.1): the relay
            # overlay only serves its neighbourhood.  A relay farther than
            # the poll TTL does not count — this is exactly what makes
            # TTL=1 RPCC degenerate into simple pull in Fig 9.
            known = None
        if known is not None and known != self.agent.node_id:
            state.known_relay = known
            state.stages.append("relay")
        state.stages.append("flood")
        state.stages.extend(["broadcast"] * self.config.max_source_poll_attempts)
        state.stages.append("grace")
        self._advance(state)

    def _relay_in_reach(self, relay_id: int) -> bool:
        """``True`` when ``relay_id`` is within the poll TTL right now."""
        snapshot = self.agent.context.network.snapshot()
        me = self.agent.node_id
        if me not in snapshot:
            return False
        reach = self.config.poll_ttl or 1
        return snapshot.nearest(me, (relay_id,), reach) is not None

    def _advance(self, state: _PollState) -> None:
        if state.done:
            return
        state.stage_index += 1
        if state.stage_index >= len(state.stages):
            self._finish_stale(state)
            return
        stage = state.current_stage
        if stage == "grace":
            # Send nothing: wait out a queuing relay's INVALIDATION cycle.
            state.timeout_handle = self.agent.context.sim.schedule(
                self.config.grace_timeout, self._stage_timeout, state
            )
            return
        copy = self.agent.host.store.peek(state.item_id)
        if copy is None:
            self._abort(state, "rpcc_copy_lost")
            return
        poll_id = next_poll_id()
        state.poll_ids.append(poll_id)
        self._pending[poll_id] = state
        poll = Poll(
            sender=self.agent.node_id,
            item_id=state.item_id,
            version=copy.version,
            poll_id=poll_id,
        )
        if stage == "relay":
            assert state.known_relay is not None
            sent = self.agent.send(state.known_relay, poll)
            stage_ttl = 0
            timeout = self.config.poll_timeout
            if not sent and self.config.fast_relay_failover:
                # The unicast could not even be routed: the remembered
                # relay crashed or sits across a partition.  Forget it and
                # escalate to the discovery flood after a token wait
                # instead of sitting out the full poll window.
                self._known_relay.pop(state.item_id, None)
                self.agent.context.metrics.bump("rpcc_relay_failover_fast")
                timeout = min(0.5, timeout)
        elif stage == "flood":
            stage_ttl = self.config.poll_ttl or 1
            self.agent.flood(poll, stage_ttl)
            timeout = self.config.poll_timeout
        else:  # "broadcast"
            self.agent.context.metrics.bump("rpcc_poll_fallback_source")
            stage_ttl = self.config.broadcast_ttl
            self.agent.flood(poll, stage_ttl)
            timeout = self.config.source_poll_timeout
        trace = self.agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                PollSent(
                    time=self.agent.now,
                    node=self.agent.node_id,
                    item=state.item_id,
                    poll_id=poll_id,
                    stage=stage,
                    ttl=stage_ttl,
                )
            )
        state.timeout_handle = self.agent.context.sim.schedule(
            timeout, self._stage_timeout, state
        )

    def _stage_timeout(self, state: _PollState) -> None:
        if state.done:
            return
        if state.current_stage == "relay":
            # The remembered relay stopped answering: forget it.
            self._known_relay.pop(state.item_id, None)
        self._advance(state)

    def _finish_stale(self, state: _PollState) -> None:
        copy = self.agent.host.store.peek(state.item_id)
        if copy is None:
            self._abort(state, "rpcc_copy_lost")
            return
        self._close(state)
        self.agent.context.metrics.bump("rpcc_forced_stale")
        self.agent.answer(state.job, copy.version, fallback=True)

    def _abort(self, state: _PollState, counter: str) -> None:
        self._close(state)
        self.agent.context.metrics.bump(counter)

    def _close(self, state: _PollState) -> None:
        state.done = True
        state.cancel_timeout()
        for poll_id in state.poll_ids:
            self._pending.pop(poll_id, None)

    def on_poll_hold(self, message: PollHold) -> None:
        """A relay queued our poll: skip escalation, await its answer."""
        state = self._pending.get(message.poll_id)
        if state is None or state.done:
            return
        if state.current_stage == "grace":
            return  # already waiting
        self.agent.context.metrics.bump("rpcc_poll_held")
        state.cancel_timeout()
        state.stage_index = len(state.stages) - 2  # jump to just before grace
        self._advance(state)

    # ------------------------------------------------------------------
    # Acknowledgement handling (Fig 6(d) lines 12-20)
    # ------------------------------------------------------------------
    def on_poll_ack_a(self, message: PollAckA) -> None:
        """Local copy confirmed current: answer and renew TTP."""
        # Learn relays even from duplicate/late acknowledgements: the
        # source may have answered first, but only relays are remembered.
        self._remember_relay(message.item_id, message.sender)
        state = self._pending.get(message.poll_id)
        if state is None or state.done:
            return  # duplicate answer or already-settled poll
        self._close(state)
        trace = self.agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                PollAnswered(
                    time=self.agent.now,
                    node=self.agent.node_id,
                    item=message.item_id,
                    poll_id=message.poll_id,
                    version=message.version,
                    fresh=True,
                )
            )
        self.renew_ttp(message.item_id)
        copy = self.agent.host.store.peek(message.item_id)
        version = copy.version if copy is not None else message.version
        self.agent.answer(state.job, version)

    def on_poll_ack_b(self, message: PollAckB) -> None:
        """Local copy was stale: install fresh content, answer, renew TTP."""
        self._remember_relay(message.item_id, message.sender)
        state = self._pending.get(message.poll_id)
        if state is None or state.done:
            return
        self._close(state)
        trace = self.agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                PollAnswered(
                    time=self.agent.now,
                    node=self.agent.node_id,
                    item=message.item_id,
                    poll_id=message.poll_id,
                    version=message.version,
                    fresh=False,
                )
            )
        copy = self.agent.host.store.peek(message.item_id)
        if copy is not None and message.version > copy.version:
            copy.refresh(message.version, self.agent.now)
        self.renew_ttp(message.item_id)
        self.agent.answer(state.job, message.version)

    def _remember_relay(self, item_id: int, responder: int) -> None:
        """Keep the answering *relay*; the next poll unicasts it first.

        The source host also answers fallback polls but is deliberately
        not remembered: unicast-polling the source forever would turn RPCC
        into a cut-price pull and erase the Fig 9 TTL trade-off.
        """
        if responder == self.agent.node_id:
            return
        if responder == self.agent.context.catalog.source_of(item_id):
            return
        self._known_relay[item_id] = responder

    # ------------------------------------------------------------------
    # UPDATE received while plain cache node (Fig 6(d) lines 32-35)
    # ------------------------------------------------------------------
    def on_update_as_cache(self, message: Update) -> None:
        """The owner missed our CANCEL: refresh, renew TTP, re-send CANCEL."""
        copy = self.agent.host.store.peek(message.item_id)
        if copy is not None and message.version > copy.version:
            copy.refresh(message.version, self.agent.now)
        self.renew_ttp(message.item_id)
        cancel = Cancel(sender=self.agent.node_id, item_id=message.item_id)
        self.agent.send(message.sender, cancel)
