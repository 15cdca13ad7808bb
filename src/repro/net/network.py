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

from typing import Dict, List, Optional, Protocol

from repro.errors import RoutingError, TopologyError
from repro.net.link import LinkModel
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.net.routing import Router, ShortestPathRouter
from repro.net import soa
from repro.net.topology import TopologyService, TopologySnapshot
from repro.obs.events import InvalidationReceived, NodeOffline, NodeOnline
from repro.sim.engine import Simulator

__all__ = ["Network", "TrafficObserver"]


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
        node.bind_state_listener(self._node_listener)

    def _on_node_state_change(self, node: NetworkNode) -> None:
        self._soa_ledger.note_state(node)
        self.topology.note_churn(node.node_id)
        trace = self.sim.trace
        if trace.enabled:
            if node.online:
                trace.emit(NodeOnline(time=self.sim.now, node=node.node_id))
            else:
                trace.emit(NodeOffline(time=self.sim.now, node=node.node_id))

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
        levels = snapshot.bfs_levels(source, max_depth=ttl)
        transmissions = 0
        hop_delay = self.link.hop_delay(message.size_bytes)
        nodes = self._nodes
        post = self.sim.post
        batch_deliver = self._deliver_batch
        # BFS discovery order is nondecreasing in depth, so recipients at
        # the same depth are contiguous: coalesce each depth level into a
        # single pooled event instead of one EventHandle per recipient.
        # Depth groups are posted in depth order, so their relative
        # sequence — and every per-node delivery inside a group — matches
        # the per-recipient schedule stream exactly.
        recipients = 0
        group: List[int] = []
        group_depth = 0
        for node_id, depth in levels.items():
            node = nodes[node_id]
            if depth == 0:
                transmissions += 1
                node.on_transmit(message)
                continue
            if depth < ttl:
                transmissions += 1
                node.on_relay(message)
            else:
                node.on_receive(message)
            if depth != group_depth:
                if group:
                    post(group_depth * hop_delay, batch_deliver, group, message)
                group = [node_id]
                group_depth = depth
            else:
                group.append(node_id)
            recipients += 1
        if group:
            post(group_depth * hop_delay, batch_deliver, group, message)
        self.traffic.record_transmissions(message, transmissions)
        return recipients

    def flood_reach(self, source: int, ttl: int) -> List[int]:
        """Ids of nodes a flood from ``source`` with ``ttl`` would reach now."""
        snapshot = self.snapshot()
        if source not in snapshot:
            return []
        levels = snapshot.bfs_levels(source, max_depth=ttl)
        return [node_id for node_id, depth in levels.items() if depth > 0]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_batch(self, targets: List[int], message: Message) -> None:
        """Deliver ``message`` to every node in ``targets`` as one event.

        Semantically identical to firing one :meth:`_deliver` per target
        back-to-back at the same instant: node liveness is re-checked per
        target in order, so a delivery earlier in the batch that flips a
        later target offline is observed exactly as it was with
        per-recipient events.  Dispatching through :meth:`_deliver` keeps
        the per-target seam that fault hooks and tests override.
        """
        deliver = self._deliver
        for target in targets:
            deliver(target, message)

    def _deliver(self, target: int, message: Message) -> None:
        try:
            node = self._nodes[target]
        except KeyError:
            node = None
        if node is None or not node.online:
            self.messages_undeliverable += 1
            return
        self.messages_delivered += 1
        trace = self.sim.trace
        if trace.enabled and message.is_invalidation:
            trace.emit(
                InvalidationReceived(
                    time=self.sim.now,
                    node=target,
                    item=getattr(message, "item_id", -1),
                    version=getattr(message, "version", -1),
                )
            )
        node.deliver(message)
