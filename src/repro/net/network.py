"""The simulated multi-hop wireless network.

This module glues the topology, link and node layers into the two
primitives every consistency strategy in the paper uses:

* :meth:`Network.unicast` — multi-hop delivery along a shortest path
  (the substitute for DSR routing, see DESIGN.md);
* :meth:`Network.flood` — TTL-limited flooding, used for ``INVALIDATION``
  and ``POLL`` broadcasts.

Traffic accounting counts *per-hop transmissions*: a unicast over 3 hops
costs 3 transmissions, a flood costs one transmission per forwarding node.
That is the quantity the paper's "network traffic" figures integrate.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Mapping, Optional, Protocol, Set

from repro.errors import RoutingError, TopologyError
from repro.net.link import LinkModel
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.net.routing import Router, ShortestPathRouter
from repro.net import soa
from repro.net.topology import TopologyService, TopologySnapshot
from repro.obs import events
from repro.sim.engine import Simulator

__all__ = ["Network", "TrafficObserver", "Audience"]

#: For one flood copy, the ids of the nodes whose handler can act on it.
Audience = Callable[[Message], Container[int]]


class TrafficObserver(Protocol):
    """Sink for per-hop transmission accounting."""

    def record_transmissions(self, message: Message, transmissions: int) -> None:
        """Record that ``message`` caused ``transmissions`` hop transmissions."""


class Network:
    """Multi-hop wireless network over a dynamic disc-model topology.

    Parameters
    ----------
    sim:
        The discrete-event simulator (clock + scheduling).
    radio_range:
        Disc-model communication range in metres (``C_Range`` in Table 1).
    link:
        Per-hop delay/loss model; a lossless 2 Mbps default when omitted.
    traffic:
        Observer receiving per-hop transmission counts
        (:class:`~repro.metrics.counters.MessageCounters` when nothing
        else needs them).
    topology_quantum:
        Seconds for which a computed topology snapshot is reused.
    """

    def __init__(
        self,
        sim: Simulator,
        radio_range: float = 250.0,
        link: Optional[LinkModel] = None,
        *,
        traffic: TrafficObserver,
        topology_quantum: float = 1.0,
        router: Optional[Router] = None,
    ) -> None:
        self.sim = sim
        self.link = link if link is not None else LinkModel()
        self.router: Router = router if router is not None else ShortestPathRouter()
        self.traffic = traffic
        self._nodes: Dict[int, NetworkNode] = {}
        # Ids of the registered nodes that are offline, kept by the churn
        # notices: the level batch reads it instead of asking each node.
        self._offline: Set[int] = set()
        # One bound method handed to every node, not one per registration.
        self._node_listener = self._on_node_state_change
        # Positions, online flags and validity windows in contiguous
        # arrays: a node is re-sampled only once its window expires, and
        # the topology service reads each refresh's diff from here.
        self._soa_ledger = soa.SoAPositionLedger()
        self.topology = TopologyService(
            lambda: sim.now, self._soa_ledger, radio_range, topology_quantum
        )
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_undeliverable = 0
        # Flooded type -> its audience (declare_audiences), and an
        # exact-type memo of the declared entry each type resolves to.
        self._audiences: Dict[type, Audience] = {}
        self._audience_of: Dict[type, Optional[Audience]] = {}
        # Optional fault-injection hooks (repro.faults.FaultInjector).
        # None — the default — keeps every code path byte-identical to a
        # fault-free build: no extra draws, no extra scheduled events.
        self.faults = None

    # ------------------------------------------------------------------
    # Node registry
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Add ``node`` to the network.  Node ids must be unique.

        Registration binds the node's state listener so that online/offline
        flips mark the cached topology snapshot stale immediately —
        otherwise unicasts for the rest of the quantum could route through
        a node that just went offline.  The churn notice makes the next
        refresh re-diff the ledger even inside the current quantum.
        """
        if node.node_id in self._nodes:
            raise TopologyError(f"node id {node.node_id!r} already registered")
        self._nodes[node.node_id] = node
        self._soa_ledger.add(node)
        if not node.online:
            self._offline.add(node.node_id)
        node.bind_state_listener(self._node_listener)

    def _on_node_state_change(self, node: NetworkNode) -> None:
        self._soa_ledger.note_state(node)
        self.topology.note_churn(node.node_id)
        online = node.online
        if online:
            self._offline.discard(node.node_id)
        else:
            self._offline.add(node.node_id)
        trace = self.sim.trace
        if trace.enabled:
            if online:
                trace.emit(events.NodeOnline(time=self.sim.now, node=node.node_id))
            else:
                trace.emit(events.NodeOffline(time=self.sim.now, node=node.node_id))

    def node(self, node_id: int) -> NetworkNode:
        """Look up a registered node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id!r}") from None

    @property
    def node_ids(self) -> List[int]:
        """All registered node ids, in registration order."""
        return list(self._nodes)

    def snapshot(self) -> TopologySnapshot:
        """Connectivity graph at the current instant."""
        return self.topology.current()

    # ------------------------------------------------------------------
    # Unicast
    # ------------------------------------------------------------------
    def unicast(self, source: int, target: int, message: Message) -> bool:
        """Send ``message`` from ``source`` to ``target`` along a shortest path.

        Returns ``True`` when a route exists and delivery was scheduled
        (delivery can still fail if the target goes offline in flight or a
        hop is lost).  Returns ``False`` when the nodes are partitioned or
        either endpoint is offline.
        """
        self.messages_sent += 1
        sender = self.node(source)
        if not sender.online:
            self.messages_undeliverable += 1
            return False
        snapshot = self.snapshot()
        if source not in snapshot or target not in snapshot:
            self.messages_undeliverable += 1
            return False
        path = self.router.find_route(snapshot, source, target, self.sim.now)
        if path is None:
            self.messages_undeliverable += 1
            return False
        hops = len(path) - 1
        if hops == 0:
            # Local delivery: no radio transmission involved.  Deliveries
            # are fire-and-forget, so they ride the pooled fast path.
            self.sim.post(0.0, self._deliver, target, message)
            return True
        faults = self.faults
        nodes = self._nodes
        transmissions = 0
        for hop_index in range(hops):
            transmissions += 1
            nodes[path[hop_index]].on_transmit(message)
            nodes[path[hop_index + 1]].on_receive(message)
            if self.link.hop_is_lost() or (
                faults is not None
                and faults.unicast_hop_lost(path[hop_index], path[hop_index + 1])
            ):
                self.traffic.record_transmissions(message, transmissions)
                self.messages_undeliverable += 1
                return False
        self.traffic.record_transmissions(message, transmissions)
        delay = self.link.path_delay(message.size_bytes, hops)
        if faults is not None:
            delay += faults.extra_delay()
            if faults.duplicate():
                # Deliver a second copy one hop-delay behind the first:
                # protocols must treat repeated messages as idempotent.
                self.sim.post(
                    delay + self.link.hop_delay(message.size_bytes),
                    self._deliver,
                    target,
                    message,
                )
        self.sim.post(delay, self._deliver, target, message)
        return True

    def route_hops(self, source: int, target: int) -> Optional[int]:
        """Hop count of the current shortest route, or ``None`` if none."""
        snapshot = self.snapshot()
        if source not in snapshot or target not in snapshot:
            return None
        return snapshot.hop_distance(source, target)

    # ------------------------------------------------------------------
    # Flooding
    # ------------------------------------------------------------------
    def flood(self, source: int, message: Message, ttl: int) -> int:
        """TTL-limited flood of ``message`` from ``source``.

        Every online node within ``ttl`` hops receives the message after a
        depth-proportional delay.  Each node that receives the flood with
        remaining TTL rebroadcasts once; the transmission count is therefore
        ``1 (source) + |nodes at depth 1 .. ttl-1|``.

        Returns the number of nodes that will receive the message.
        """
        if ttl < 0:
            raise RoutingError(f"ttl must be >= 0, got {ttl!r}")
        self.messages_sent += 1
        sender = self.node(source)
        if not sender.online or ttl == 0:
            if ttl == 0 and sender.online:
                # A TTL of 0 never leaves the sender: one wasted transmission.
                sender.on_transmit(message)
                self.traffic.record_transmissions(message, 1)
            else:
                self.messages_undeliverable += 1
            return 0
        snapshot = self.snapshot()
        if source not in snapshot:
            self.messages_undeliverable += 1
            return 0
        order, prefix = snapshot.flood_levels(source, ttl)
        hop_delay = self.link.hop_delay(message.size_bytes)
        nodes = self._nodes
        post = self.sim.post
        batch_deliver = self._deliver_batch
        sender.on_transmit(message)
        # One pooled event per BFS level, posted in depth order: the same
        # sequence numbers as one event per recipient, and every per-node
        # delivery inside a level in the same order.
        relays = 0
        for depth in range(1, len(prefix)):
            level = order[prefix[depth - 1] : prefix[depth]]
            if depth < ttl:
                relays += len(level)
                for node_id in level:
                    nodes[node_id].on_relay(message)
            else:
                for node_id in level:
                    nodes[node_id].on_receive(message)
            post(depth * hop_delay, batch_deliver, level, message)
        self.traffic.record_transmissions(message, 1 + relays)
        return len(order) - 1

    def flood_reach(self, source: int, ttl: int) -> List[int]:
        """Ids of nodes a flood from ``source`` with ``ttl`` would reach now."""
        snapshot = self.snapshot()
        if source not in snapshot:
            return []
        return snapshot.flood_levels(source, ttl)[0][1:]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def declare_audiences(self, audiences: Mapping[type, Audience]) -> None:
        """Name who can act on each flooded message type.

        ``audiences[T](message)`` returns, for one copy of a ``T`` (or of
        a subclass without an entry of its own), the ids of the nodes
        whose handler can act on it, read from live state when the copy
        lands.  :meth:`_deliver_batch` runs the handler at those nodes
        only.  A type with no entry reaches every handler.
        """
        self._audiences = dict(audiences)
        self._audience_of = {}

    def audience(self, message: Message) -> Optional[Container[int]]:
        """The declared audience of ``message`` now, or ``None`` for all.

        A type without an entry takes its nearest base class's entry.
        """
        message_type = type(message)
        try:
            audience_of = self._audience_of[message_type]
        except KeyError:
            declared = self._audiences
            audience_of = self._audience_of[message_type] = next(
                (declared[base] for base in message_type.__mro__ if base in declared),
                None,
            )
        return None if audience_of is None else audience_of(message)

    def _deliver_batch(self, targets: List[int], message: Message) -> None:
        """Deliver one flood level: ``message`` to every node in ``targets``.

        Semantically identical to firing one :meth:`_deliver` per target
        back-to-back at the same instant: node liveness is re-checked per
        target in order, so a delivery earlier in the batch that flips a
        later target offline is observed exactly as it was with
        per-recipient events.  Only members of the message's
        :meth:`audience` go through :meth:`_deliver` and their handler;
        every other copy is booked here, in target order — the online
        check (against the churn notices' record), the delivery counters,
        the host's ``messages_handled`` and its ``InvalidationReceived`` —
        because its handler would return without acting.  A handler changes only its own host's state and
        a level's targets are distinct, so the audience read when the
        level lands holds for all of it.
        """
        deliver = self._deliver
        audience = self.audience(message)
        if audience is None:
            for target in targets:
                deliver(target, message)
            return
        nodes = self._nodes
        offline = self._offline
        trace = self.sim.trace
        receipts = trace.enabled and message.is_invalidation
        delivered = undeliverable = 0
        for target in targets:
            if target in audience:
                # Flushed first: the handler may read or bump the counters.
                self.messages_delivered += delivered
                self.messages_undeliverable += undeliverable
                delivered = undeliverable = 0
                deliver(target, message)
                continue
            if target in offline:
                undeliverable += 1
                continue
            delivered += 1
            nodes[target].messages_handled += 1
            if receipts:
                self._receipt(target, message)
        self.messages_delivered += delivered
        self.messages_undeliverable += undeliverable

    def _deliver(self, target: int, message: Message) -> None:
        try:
            node = self._nodes[target]
        except KeyError:
            node = None
        if node is None or not node.online:
            self.messages_undeliverable += 1
            return
        self.messages_delivered += 1
        if message.is_invalidation and self.sim.trace.enabled:
            self._receipt(target, message)
        node.deliver(message)

    def _receipt(self, target: int, message: Message) -> None:
        """Trace an invalidation landing at ``target``."""
        self.sim.trace.emit(
            events.InvalidationReceived(
                time=self.sim.now,
                node=target,
                item=getattr(message, "item_id", -1),
                version=getattr(message, "version", -1),
            )
        )
