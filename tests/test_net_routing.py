"""Unit tests for routing policies, including the DSR-style route cache."""

import pytest

from repro.mobility.terrain import Point
from repro.net.routing import CachingRouter, ShortestPathRouter
from repro.net.topology import TopologySnapshot


def snapshot_of(coords, radio_range=150.0):
    return TopologySnapshot(
        {i: Point(x, y) for i, (x, y) in enumerate(coords)}, radio_range
    )


LINE5 = [(0, 0), (100, 0), (200, 0), (300, 0), (400, 0)]


class TestShortestPathRouter:
    def test_finds_optimal_route(self):
        router = ShortestPathRouter()
        route = router.find_route(snapshot_of(LINE5), 0, 4, now=0.0)
        assert route == [0, 1, 2, 3, 4]

    def test_partition_returns_none(self):
        router = ShortestPathRouter()
        snap = snapshot_of([(0, 0), (1000, 0)])
        assert router.find_route(snap, 0, 1, now=0.0) is None


class TestCachingRouter:
    def test_first_lookup_is_a_miss(self):
        router = CachingRouter()
        router.find_route(snapshot_of(LINE5), 0, 4, now=0.0)
        assert router.misses == 1
        assert router.hits == 0

    def test_second_lookup_hits(self):
        router = CachingRouter()
        snap = snapshot_of(LINE5)
        first = router.find_route(snap, 0, 4, now=0.0)
        second = router.find_route(snap, 0, 4, now=1.0)
        assert second == first
        assert router.hits == 1

    def test_reverse_route_primed(self):
        router = CachingRouter()
        snap = snapshot_of(LINE5)
        router.find_route(snap, 0, 4, now=0.0)
        reverse = router.find_route(snap, 4, 0, now=1.0)
        assert reverse == [4, 3, 2, 1, 0]
        assert router.hits == 1

    def test_broken_link_invalidates(self):
        router = CachingRouter()
        router.find_route(snapshot_of(LINE5), 0, 4, now=0.0)
        # Node 2 moved away: the cached route's middle link is gone.
        broken = snapshot_of([(0, 0), (100, 0), (200, 900), (300, 0), (400, 0)])
        route = router.find_route(broken, 0, 4, now=1.0)
        assert route is None  # and no stale route was returned
        assert router.invalidations == 1

    def test_departed_node_invalidates(self):
        router = CachingRouter()
        router.find_route(snapshot_of(LINE5), 0, 4, now=0.0)
        without_node_2 = TopologySnapshot(
            {i: Point(x, y) for i, (x, y) in enumerate(LINE5) if i != 2},
            radio_range=150.0,
        )
        assert router.find_route(without_node_2, 0, 4, now=1.0) is None
        assert router.invalidations == 1

    def test_ttl_expiry_forces_rediscovery(self):
        router = CachingRouter(route_ttl=10.0)
        snap = snapshot_of(LINE5)
        router.find_route(snap, 0, 4, now=0.0)
        router.find_route(snap, 0, 4, now=20.0)
        assert router.invalidations == 1
        assert router.misses == 2

    def test_cached_route_survives_new_shortcut(self):
        # DSR realism: a cached (valid) route is reused even if a shorter
        # one has appeared.
        router = CachingRouter()
        router.find_route(snapshot_of(LINE5), 0, 4, now=0.0)
        with_shortcut = snapshot_of(LINE5 + [(200, 100)])
        route = router.find_route(with_shortcut, 0, 4, now=1.0)
        assert route == [0, 1, 2, 3, 4]
        assert router.hits == 1

    def test_returns_copies_not_aliases(self):
        router = CachingRouter()
        snap = snapshot_of(LINE5)
        first = router.find_route(snap, 0, 4, now=0.0)
        first.append(999)
        second = router.find_route(snap, 0, 4, now=1.0)
        assert 999 not in second

    def test_failed_discovery_not_cached(self):
        router = CachingRouter()
        snap = snapshot_of([(0, 0), (1000, 0)])
        assert router.find_route(snap, 0, 1, now=0.0) is None
        assert router.cached_routes == 0


class TestNetworkWithCachingRouter:
    def test_unicast_through_caching_router(self):
        from repro.metrics.counters import MessageCounters
        from repro.net.message import Message
        from repro.net.network import Network
        from repro.sim.engine import Simulator
        from tests.test_net_network import StubNode

        sim = Simulator()
        router = CachingRouter()
        net = Network(sim, radio_range=150.0, traffic=MessageCounters(),
                      router=router)
        nodes = [StubNode(i, Point(x, y)) for i, (x, y) in enumerate(LINE5)]
        for node in nodes:
            net.register(node)
        assert net.unicast(0, 4, Message(sender=0))
        assert net.unicast(0, 4, Message(sender=0))
        sim.run()
        assert len(nodes[4].inbox) == 2
        assert router.hits == 1
