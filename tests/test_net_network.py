"""Unit tests for unicast, flooding and traffic accounting."""

import pytest

from repro.errors import RoutingError, TopologyError
from repro.metrics.counters import MessageCounters
from repro.mobility.terrain import Point
from repro.net.link import LinkModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.sim.engine import Simulator


class StubNode(NetworkNode):
    """Stationary test node recording deliveries and radio activity."""

    def __init__(self, node_id, point, online=True):
        self._id = node_id
        self._point = point
        self._online = online
        self.inbox = []
        self.transmits = 0
        self.receives = 0

    @property
    def node_id(self):
        return self._id

    @property
    def online(self):
        return self._online

    def set_online(self, flag):
        self._online = flag
        self.notify_state_change()  # what MobileHost.set_online does

    def current_position(self):
        return self._point

    def deliver(self, message):
        self.inbox.append(message)

    def on_transmit(self, message):
        self.transmits += 1

    def on_receive(self, message):
        self.receives += 1

    def on_relay(self, message):
        self.on_receive(message)
        self.on_transmit(message)

    def position_valid_until(self):
        return float("-inf")


def make_net(coords, radio_range=150.0, latency=0.01):
    sim = Simulator()
    counters = MessageCounters()
    net = Network(
        sim,
        radio_range=radio_range,
        link=LinkModel(latency=latency, bandwidth_bps=8_000_000),
        traffic=counters,
    )
    nodes = [StubNode(i, Point(x, y)) for i, (x, y) in enumerate(coords)]
    for node in nodes:
        net.register(node)
    return sim, net, nodes, counters


LINE4 = [(0, 0), (100, 0), (200, 0), (300, 0)]


class TestRegistry:
    def test_duplicate_id_rejected(self):
        sim, net, nodes, _ = make_net([(0, 0)])
        with pytest.raises(TopologyError):
            net.register(StubNode(0, Point(1, 1)))

    def test_unknown_node_lookup(self):
        sim, net, _, _ = make_net([(0, 0)])
        with pytest.raises(TopologyError):
            net.node(42)

    def test_node_ids(self):
        _, net, _, _ = make_net(LINE4)
        assert net.node_ids == [0, 1, 2, 3]


class TestUnicast:
    def test_delivery_along_path(self):
        sim, net, nodes, _ = make_net(LINE4)
        msg = Message(sender=0, size_bytes=100)
        assert net.unicast(0, 3, msg)
        sim.run()
        assert nodes[3].inbox == [msg]

    def test_delay_proportional_to_hops(self):
        sim, net, nodes, _ = make_net(LINE4, latency=0.01)
        net.unicast(0, 3, Message(sender=0, size_bytes=0))
        sim.run()
        assert sim.now == pytest.approx(3 * 0.01)

    def test_transmissions_equal_hops(self):
        sim, net, nodes, counters = make_net(LINE4)
        net.unicast(0, 3, Message(sender=0))
        assert counters.transmissions() == 3

    def test_partitioned_returns_false(self):
        sim, net, nodes, _ = make_net([(0, 0), (1000, 0)])
        assert not net.unicast(0, 1, Message(sender=0))
        assert net.messages_undeliverable == 1

    def test_offline_sender_fails(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[0].set_online(False)
        assert not net.unicast(0, 1, Message(sender=0))

    def test_offline_target_fails(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[1].set_online(False)
        net.topology.invalidate()
        assert not net.unicast(0, 1, Message(sender=0))

    def test_offline_intermediate_blocks_route(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[1].set_online(False)
        net.topology.invalidate()
        assert not net.unicast(0, 2, Message(sender=0))

    def test_self_delivery_costs_nothing(self):
        sim, net, nodes, counters = make_net(LINE4)
        assert net.unicast(0, 0, Message(sender=0))
        sim.run()
        assert nodes[0].inbox
        assert counters.transmissions() == 0

    def test_target_going_offline_in_flight_drops(self):
        sim, net, nodes, _ = make_net(LINE4, latency=1.0)
        net.unicast(0, 3, Message(sender=0))
        sim.schedule(1.5, nodes[3].set_online, False)
        sim.run()
        assert nodes[3].inbox == []

    def test_energy_hooks_fire_per_hop(self):
        sim, net, nodes, _ = make_net(LINE4)
        net.unicast(0, 2, Message(sender=0))
        assert nodes[0].transmits == 1
        assert nodes[1].transmits == 1  # forwarding hop
        assert nodes[1].receives == 1
        assert nodes[2].receives == 1

    def test_route_hops(self):
        _, net, _, _ = make_net(LINE4)
        assert net.route_hops(0, 3) == 3
        assert net.route_hops(0, 0) == 0

    def test_route_hops_partitioned(self):
        _, net, _, _ = make_net([(0, 0), (1000, 0)])
        assert net.route_hops(0, 1) is None


class TestTopologyInvalidation:
    """Online/offline flips must drop the cached snapshot mid-quantum."""

    def test_offline_flip_invalidates_cached_snapshot(self):
        sim, net, nodes, _ = make_net(LINE4)
        before = net.snapshot()
        nodes[1].set_online(False)
        after = net.snapshot()
        assert after is not before
        assert 1 not in after

    def test_unicast_does_not_route_through_fresh_offline_relay(self):
        # Same quantum, no manual invalidate: the registration hook alone
        # must keep the route off the node that just went offline.
        sim, net, nodes, _ = make_net(LINE4)
        assert net.unicast(0, 2, Message(sender=0))  # caches the snapshot
        nodes[1].set_online(False)
        assert not net.unicast(0, 2, Message(sender=0))
        assert nodes[1].receives == 1  # only the pre-flip unicast touched it

    def test_reconnect_flip_restores_reachability(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[1].set_online(False)
        assert not net.unicast(0, 2, Message(sender=0))
        nodes[1].set_online(True)
        assert net.unicast(0, 2, Message(sender=0))

    def test_unregistered_node_flip_is_harmless(self):
        node = StubNode(7, Point(0, 0))
        node.set_online(False)  # no listener bound: must not raise
        assert not node.online

    def test_flip_counts_one_invalidation(self):
        sim, net, nodes, _ = make_net(LINE4)
        invalidations = net.topology.invalidations
        nodes[3].set_online(False)
        assert net.topology.invalidations == invalidations + 1


class TestFlood:
    def test_reaches_nodes_within_ttl(self):
        sim, net, nodes, _ = make_net(LINE4)
        delivered = net.flood(0, Message(sender=0), ttl=2)
        sim.run()
        assert delivered == 2
        assert nodes[1].inbox and nodes[2].inbox
        assert not nodes[3].inbox

    def test_ttl_large_reaches_all(self):
        sim, net, nodes, _ = make_net(LINE4)
        assert net.flood(0, Message(sender=0), ttl=8) == 3

    def test_transmission_count(self):
        sim, net, nodes, counters = make_net(LINE4)
        # Depths: 1,2,3 with ttl=3 -> forwarders are source + depth 1,2.
        net.flood(0, Message(sender=0), ttl=3)
        assert counters.transmissions() == 3

    def test_source_always_transmits_once(self):
        sim, net, nodes, counters = make_net(LINE4)
        net.flood(0, Message(sender=0), ttl=1)
        assert counters.transmissions() == 1
        assert nodes[0].transmits == 1

    def test_ttl_zero_never_leaves_sender(self):
        sim, net, nodes, counters = make_net(LINE4)
        assert net.flood(0, Message(sender=0), ttl=0) == 0
        sim.run()
        assert all(not n.inbox for n in nodes)

    def test_negative_ttl_rejected(self):
        sim, net, _, _ = make_net(LINE4)
        with pytest.raises(RoutingError):
            net.flood(0, Message(sender=0), ttl=-1)

    def test_offline_source_floods_nothing(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[0].set_online(False)
        assert net.flood(0, Message(sender=0), ttl=3) == 0

    def test_offline_node_does_not_forward(self):
        sim, net, nodes, _ = make_net(LINE4)
        nodes[1].set_online(False)
        net.topology.invalidate()
        assert net.flood(0, Message(sender=0), ttl=8) == 0

    def test_delivery_delay_by_depth(self):
        sim, net, nodes, _ = make_net(LINE4, latency=0.01)
        net.flood(0, Message(sender=0, size_bytes=0), ttl=3)
        sim.run()
        assert sim.now == pytest.approx(0.03)

    def test_flood_reach_preview(self):
        _, net, _, _ = make_net(LINE4)
        assert sorted(net.flood_reach(0, 2)) == [1, 2]

    def test_branching_topology_counts(self):
        # Star: center 0 with three leaves.
        sim, net, nodes, counters = make_net(
            [(0, 0), (100, 0), (0, 100), (-100, 0)]
        )
        delivered = net.flood(0, Message(sender=0), ttl=1)
        assert delivered == 3
        assert counters.transmissions() == 1  # only the center transmits
