"""Property tests for the topology refresh: reuse, rebuild, churn.

Every test drives a :class:`TopologyService` through randomized sequences
of movement, churn and quiet quanta, and asserts that each snapshot it
hands out is *indistinguishable* from the brute-force oracle's graph
(``tests/oracle.py``): same node set in the same registration order, same
adjacency lists in the same neighbour order, same BFS levels and discovery
order, same components.  The refresh counters are held to exact counts:
one ``build_csr`` per refresh in which something changed, one reuse per
refresh in which nothing did.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.metrics.counters import MessageCounters
from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net import soa
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import TopologySnapshot
from repro.sim.engine import Simulator

from tests.oracle import (
    BruteForceSnapshot,
    StubWorld,
    assert_matches_oracle,
    sample_positions,
)

RANGE = 150.0


def assert_both_builds_match(snapshot, oracle, depths=(None,)):
    """``snapshot`` (reused or rebuilt — whatever the service chose) and
    a from-scratch build of the same positions, each held to the oracle:
    equal to it, hence to each other."""
    assert_matches_oracle(snapshot, oracle, depths)
    assert_matches_oracle(TopologySnapshot(oracle.positions, RANGE), oracle, depths)


class RefreshCounts:
    """What the service should have counted, from the oracle's side.

    :meth:`refresh` calls ``current`` once and classifies the refresh by
    whether the online positions differ from the previous refresh's;
    ``builds`` counts the ``build_csr`` calls made inside ``current``.
    """

    def __init__(self) -> None:
        self.changed = self.empty = self.builds = 0
        self._last = None

    def refresh(self, current, positions):
        with mock.patch.object(soa, "build_csr", wraps=soa.build_csr) as spy:
            snapshot = current()
        self.builds += spy.call_count
        if positions == self._last:
            self.empty += 1
        else:
            self.changed += 1
        self._last = positions
        return snapshot

    def assert_counted_by(self, service) -> None:
        assert service.snapshots_built == self.changed == self.builds
        assert service.snapshots_reused == self.empty


class TestRandomizedEquivalence:
    """Service-level sequences over a mutable node-state table."""

    N = 30
    SIZE = 600.0

    def drive(self, seed, steps=45):
        rng = random.Random(seed)
        # node id -> [position, online], read by the ledger each refresh.
        states = {
            i: [Point(rng.uniform(0, self.SIZE), rng.uniform(0, self.SIZE)), True]
            for i in range(self.N)
        }
        world = StubWorld(states, RANGE)
        service = world.service
        counts = RefreshCounts()
        counts.refresh(service.current, world.oracle().positions)
        for _ in range(steps):
            if rng.random() < 0.25:
                advanced = False  # stay inside the bucket: churn only
                movers = []
            else:
                advanced = True
                world.now += rng.choice([1.0, 1.0, 2.5, 7.0])
                count = rng.choice([0, 0, 1, 2, 4, self.N // 3, self.N])
                movers = rng.sample(range(self.N), count)
            for i in movers:
                states[i][0] = Point(
                    rng.uniform(0, self.SIZE), rng.uniform(0, self.SIZE)
                )
            churned = False
            if rng.random() < 0.4:
                i = rng.randrange(self.N)
                world.set_online(i, not states[i][1])
                churned = True
            if not churned and not advanced:
                continue  # nothing would trigger a refresh this step
            oracle = world.oracle()
            snapshot = counts.refresh(service.current, oracle.positions)
            assert_both_builds_match(snapshot, oracle)
            # Warm the BFS cache: a reused snapshot serves these records.
            online_ids = [i for i, (_, online) in states.items() if online]
            for source in rng.sample(online_ids, min(6, len(online_ids))):
                snapshot.bfs_levels(source)
        return service, counts

    @pytest.mark.parametrize("seed", range(6))
    def test_refreshes_match_fresh(self, seed):
        service, counts = self.drive(seed)
        counts.assert_counted_by(service)

    def test_builds_and_reuses_are_counted_exactly(self):
        built = reused = 0
        for seed in range(6):
            service, counts = self.drive(seed)
            counts.assert_counted_by(service)
            built += service.snapshots_built
            reused += service.snapshots_reused
        assert built > 6  # at least the initial builds plus changed quanta
        assert reused > 0


class _RoamingNode(NetworkNode):
    """Network stand-in whose position comes from a real mobility model."""

    def __init__(self, node_id, sim, model):
        self._id = node_id
        self._sim = sim
        self._model = model
        self._online = True

    @property
    def node_id(self):
        return self._id

    @property
    def online(self):
        return self._online

    def set_online(self, flag):
        if flag != self._online:
            self._online = flag
            self.notify_state_change()

    def current_position(self):
        return self._model.position(self._sim.now)

    def position_valid_until(self):
        return self._model.position_valid_until(self._sim.now)

    def on_relay(self, message):
        return None

    def deliver(self, message):
        return None


class TestThroughNetwork:
    """End-to-end: ledger + churn notices + topology service."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_network_snapshots_match_fresh_builds(self, seed):
        rng = random.Random(seed)
        terrain = Terrain(900.0, 900.0)
        sim = Simulator()
        net = Network(sim, radio_range=RANGE, traffic=MessageCounters())
        nodes = [
            _RoamingNode(
                i,
                sim,
                # Pause-heavy: legs take ~30 s, pauses 120 s, so once the
                # initial all-moving transient passes most ticks see only
                # a handful of movers, and some none at all.
                RandomWaypoint(
                    terrain,
                    seed * 1000 + i,
                    speed_min=10.0,
                    speed_max=20.0,
                    pause_time=120.0,
                ),
            )
            for i in range(20)
        ]
        for node in nodes:
            net.register(node)
        counts = RefreshCounts()
        for tick in range(1, 240):
            sim.run_until(float(tick))
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(False)
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(True)
            positions = sample_positions(nodes)
            snapshot = counts.refresh(net.snapshot, positions)
            if snapshot.positions:  # warm one tree for the reuses to serve
                snapshot.bfs_levels(next(iter(snapshot.positions)))
            assert_both_builds_match(snapshot, BruteForceSnapshot(positions, RANGE))
        counts.assert_counted_by(net.topology)
        assert counts.changed > 0 and counts.empty > 0


def test_from_delta_is_a_rebuild_no_refresh_reaches():
    """The name the end-to-end harness still times builds from scratch,
    and no service refresh calls it (the harness predicts 0 calls)."""
    with mock.patch.object(TopologySnapshot, "from_delta", side_effect=AssertionError):
        TestRandomizedEquivalence().drive(seed=0)
    rng = random.Random(5)
    before, after = (
        {i: Point(rng.uniform(0, 600.0), rng.uniform(0, 600.0)) for i in range(25)}
        for _ in range(2)
    )
    snapshot = TopologySnapshot.from_delta(TopologySnapshot(before, RANGE), after)
    assert_matches_oracle(snapshot, BruteForceSnapshot(after, RANGE), (None,))
