"""Property tests for the incremental topology pipeline.

Every test drives a :class:`TopologyService` through randomized sequences
of movement, churn and quiet quanta, and asserts that each snapshot it
hands out is *indistinguishable* from the brute-force oracle's graph
(``tests/oracle.py``): same node set in the same registration order, same
adjacency lists in the same neighbour order, same BFS levels and discovery
order, same components.  Retention of
memoised BFS trees is verified against per-component edge fingerprints
(``service.verify_retention``), so copy-on-write aliasing bugs fail loudly
instead of producing subtly stale routes.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
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
    """``snapshot`` (patched, reused or rebuilt — whatever the service
    chose) and a from-scratch build of the same positions, each held to
    the oracle: equal to it, hence to each other."""
    assert_matches_oracle(snapshot, oracle, depths)
    assert_matches_oracle(TopologySnapshot(oracle.positions, RANGE), oracle, depths)


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
        service.verify_retention = True
        service.current()
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
            snapshot = service.current()
            assert_both_builds_match(snapshot, world.oracle())
            # Warm the BFS cache so later deltas exercise tree retention.
            online_ids = [i for i, (_, online) in states.items() if online]
            for source in rng.sample(online_ids, min(6, len(online_ids))):
                snapshot.bfs_levels(source)
        return service

    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_matches_fresh(self, seed):
        self.drive(seed)

    def test_all_fast_paths_are_exercised(self):
        built = reused = patched = retained = 0
        for seed in range(6):
            service = self.drive(seed)
            built += service.snapshots_built
            reused += service.snapshots_reused
            patched += service.incremental_updates
            retained += service.bfs_trees_retained
        assert built > 6  # at least the initial builds plus large deltas
        assert reused > 0
        assert patched > 0
        assert retained > 0


class TestDeltaEdgeCases:
    def make_positions(self, coords):
        return {i: Point(x, y) for i, (x, y) in enumerate(coords)}

    def test_from_delta_never_mutates_prev(self):
        prev = TopologySnapshot(
            self.make_positions([(0, 0), (100, 0), (200, 0), (600, 600)]), RANGE
        )
        prev.bfs_levels(0)
        before_adj = {n: list(prev.neighbors(n)) for n in prev.positions}
        before_grid = {k: list(v) for k, v in prev._grid.items()}
        positions = dict(prev.positions)
        positions[1] = Point(100, 50)
        TopologySnapshot.from_delta(prev, positions, [1], verify_retention=True)
        assert {n: list(prev.neighbors(n)) for n in prev.positions} == before_adj
        assert {k: list(v) for k, v in prev._grid.items()} == before_grid

    def test_far_component_bfs_tree_is_retained(self):
        prev = TopologySnapshot(
            self.make_positions([(0, 0), (100, 0), (600, 600), (700, 600)]), RANGE
        )
        prev.bfs_levels(2)  # warm the far component's tree
        positions = dict(prev.positions)
        positions[1] = Point(50, 50)
        snap = TopologySnapshot.from_delta(prev, positions, [1], verify_retention=True)
        assert snap.bfs_cache_size == 1
        assert snap.bfs_levels(2) == {2: 0, 3: 1}

    def test_touched_component_bfs_tree_is_dropped(self):
        prev = TopologySnapshot(
            self.make_positions([(0, 0), (100, 0), (600, 600), (700, 600)]), RANGE
        )
        prev.bfs_levels(0)
        positions = dict(prev.positions)
        positions[1] = Point(50, 50)
        snap = TopologySnapshot.from_delta(prev, positions, [1], verify_retention=True)
        assert snap.bfs_cache_size == 0

    def test_node_appears_and_departs(self):
        prev = TopologySnapshot(self.make_positions([(0, 0), (100, 0)]), RANGE)
        # Node 2 appears next to 1; node 0 departs.
        positions = {1: prev.positions[1], 2: Point(150, 0)}
        snap = TopologySnapshot.from_delta(prev, positions, [0, 2])
        assert_both_builds_match(snap, BruteForceSnapshot(positions, RANGE))

    def test_simultaneous_movers_share_an_edge(self):
        # Both endpoints of a fresh edge are in the delta: the edge must be
        # discovered exactly once, whichever attaches second.
        prev = TopologySnapshot(
            self.make_positions([(0, 0), (500, 0), (1000, 0)]), RANGE
        )
        positions = dict(prev.positions)
        positions[1] = Point(60, 0)
        positions[2] = Point(120, 0)
        snap = TopologySnapshot.from_delta(prev, positions, [1, 2])
        assert_both_builds_match(snap, BruteForceSnapshot(positions, RANGE))


class TestPartialRecordsAcrossPatches:
    """A traversal record grown part-way on ``prev`` crosses a patch as a
    copy: resumed on the new snapshot it walks the new graph, and ``prev``
    goes on answering for the old one."""

    def test_resuming_a_carried_record_never_extends_prev(self):
        # A line 0..5 and a far pair 6-7; node 5 leaves the end of the line.
        coords = [(100 * i, 0) for i in range(6)] + [(0, 900), (100, 900)]
        prev = TopologySnapshot(dict(enumerate(Point(x, y) for x, y in coords)), RANGE)
        old = BruteForceSnapshot(prev.positions, RANGE)
        assert prev.bfs_levels(0, max_depth=1) == {0: 0, 1: 1}  # incomplete
        assert prev.hop_distance(3, 4) == 1  # incomplete, and 4 is touched
        assert prev.bfs_levels(6) == {6: 0, 7: 1}  # complete
        positions = dict(prev.positions)
        positions[5] = Point(2000, 0)
        snap = TopologySnapshot.from_delta(prev, positions, [5], verify_retention=True)
        assert set(snap._bfs_cache) == {0, 6}
        assert snap._bfs_cache[6] is prev._bfs_cache[6]  # complete: shared
        assert snap._bfs_cache[0] is not prev._bfs_cache[0]  # incomplete: a copy
        assert snap._bfs_cache[0] == prev._bfs_cache[0]
        assert snap.bfs_levels(0) == {node: node for node in range(5)}
        assert prev.bfs_levels(0) == {node: node for node in range(6)}
        assert_both_builds_match(snap, BruteForceSnapshot(positions, RANGE))
        assert_matches_oracle(prev, old)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=40, max_value=200),
        st.integers(min_value=0, max_value=2**20),
        st.sampled_from((0.7, 1.0, 1.4)),  # one big component ... many small
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=2**16)),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**16),
                st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_patched_records_resume_like_fresh_ones(
        self, count, seed, spread, changes, warm
    ):
        rng = random.Random(seed)
        side = spread * RANGE * count ** 0.5

        def somewhere():
            return Point(rng.uniform(0, side), rng.uniform(0, side))

        states = {i: [somewhere(), rng.random() < 0.85] for i in range(count)}
        world = StubWorld(states, RANGE)
        service = world.service
        service.verify_retention = True
        prev, old = service.current(), world.oracle()
        online = list(prev.positions)
        for pick, depth in warm:  # grow a few records, most of them part-way
            source = online[pick % len(online)]
            assert prev.bfs_levels(source, depth) == old.bfs_levels(source, depth)
        discovered = {s: set(record[0]) for s, record in prev._bfs_cache.items()}
        incomplete = {s for s, record in prev._bfs_cache.items() if record[3]}

        for moves, pick in changes:  # move one, or switch it (on: appears)
            node = pick % count
            if moves:
                states[node][0] = somewhere()
            else:
                world.set_online(node, not states[node][1])
        world.now += 1.0
        snap, new = service.current(), world.oracle()
        changed = {
            node
            for node in old.positions.keys() | new.positions.keys()
            if old.positions.get(node) != new.positions.get(node)
        }
        assume(changed)  # else the service hands prev out again
        assert service.incremental_updates == 1 and snap is not prev

        # (c) A record goes iff it discovered a node whose row the patch
        # rewrote: a changed node, or a neighbour of one before or after.
        touched = set(changed)
        for node in changed:
            touched.update(old.adjacency.get(node, ()), new.adjacency.get(node, ()))
        carried = {s for s, nodes in discovered.items() if nodes.isdisjoint(touched)}
        assert set(snap._bfs_cache) == carried
        # (d) ... and the service counted exactly those, of either kind.
        assert service.bfs_trees_retained == len(carried)
        for source in carried:
            shared = snap._bfs_cache[source] is prev._bfs_cache[source]
            assert shared == (source not in incomplete)
        # (a) Resumed on the new snapshot — one level on, then to the end —
        # a carried record walks the new graph.
        for source in carried:
            depth = len(snap._bfs_cache[source][2])
            found = snap.bfs_levels(source, depth)
            assert found == new.bfs_levels(source, depth)
            assert list(found) == list(new.bfs_levels(source, depth))
        assert_both_builds_match(snap, new, (None, 2))
        # (b) ... and prev, its records resumed only now, the old one.
        assert_matches_oracle(prev, old, (None, 2))


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

    def deliver(self, message):
        return None


class TestThroughNetwork:
    """End-to-end: ledger + churn notices + incremental service."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_network_snapshots_match_fresh_builds(self, seed):
        rng = random.Random(seed)
        terrain = Terrain(900.0, 900.0)
        sim = Simulator()
        net = Network(sim, radio_range=RANGE)
        nodes = [
            _RoamingNode(
                i,
                sim,
                # Pause-heavy: legs take ~30 s, pauses 120 s, so once the
                # initial all-moving transient passes most ticks see only
                # a handful of movers — the incremental path's sweet spot.
                RandomWaypoint(
                    terrain,
                    random.Random(seed * 1000 + i),
                    speed_min=10.0,
                    speed_max=20.0,
                    pause_time=120.0,
                ),
            )
            for i in range(20)
        ]
        for node in nodes:
            net.register(node)
        net.topology.verify_retention = True
        for tick in range(1, 240):
            sim.run_until(float(tick))
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(False)
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(True)
            snapshot = net.snapshot()
            if snapshot.positions:  # warm one tree to exercise retention
                snapshot.bfs_levels(next(iter(snapshot.positions)))
            assert_both_builds_match(
                snapshot, BruteForceSnapshot(sample_positions(nodes), RANGE)
            )
        stats = net.topology.stats()
        assert stats["incremental_updates"] > 0
        assert stats["snapshots_reused"] > 0
