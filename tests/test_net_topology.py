"""Unit tests for the disc-model connectivity graph."""

import random

import pytest

from repro.errors import TopologyError
from repro.mobility.terrain import Point
from repro.net import soa
from repro.net.topology import TopologySnapshot, TopologyService

from tests.oracle import (
    BruteForceSnapshot,
    StubWorld,
    assert_matches_oracle,
    count_row_reads,
)


def snapshot_of(coords, radio_range=150.0):
    positions = {i: Point(x, y) for i, (x, y) in enumerate(coords)}
    return TopologySnapshot(positions, radio_range)


class TestTopologySnapshot:
    def test_neighbors_within_range(self):
        snap = snapshot_of([(0, 0), (100, 0), (400, 0)])
        assert snap.neighbors(0) == [1]
        assert snap.neighbors(2) == []

    def test_range_boundary_inclusive(self):
        snap = snapshot_of([(0, 0), (150, 0)])
        assert snap.neighbors(0) == [1]

    def test_unknown_node_raises(self):
        snap = snapshot_of([(0, 0)])
        with pytest.raises(TopologyError):
            snap.neighbors(99)

    def test_degree(self):
        snap = snapshot_of([(0, 0), (100, 0), (100, 100)])
        assert snap.degree(0) == 2

    def test_shortest_path_line(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0), (300, 0)])
        assert snap.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_shortest_path_self(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert snap.shortest_path(0, 0) == [0]

    def test_shortest_path_partitioned_returns_none(self):
        snap = snapshot_of([(0, 0), (1000, 0)])
        assert snap.shortest_path(0, 1) is None

    def test_shortest_path_unknown_target(self):
        snap = snapshot_of([(0, 0)])
        assert snap.shortest_path(0, 42) is None

    def test_shortest_path_prefers_fewer_hops(self):
        # 0-1-2 direct chain plus a detour 0-3-4-2.
        snap = snapshot_of([(0, 0), (100, 0), (200, 0), (0, 100), (150, 100)])
        assert snap.shortest_path(0, 2) == [0, 1, 2]

    def test_hop_distance(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0)])
        assert snap.hop_distance(0, 2) == 2
        assert snap.hop_distance(0, 0) == 0

    def test_bfs_levels_depth_limited(self):
        snap = snapshot_of([(i * 100, 0) for i in range(6)])
        levels = snap.bfs_levels(0, max_depth=2)
        assert levels == {0: 0, 1: 1, 2: 2}

    def test_bfs_levels_unlimited(self):
        snap = snapshot_of([(i * 100, 0) for i in range(4)])
        assert snap.bfs_levels(0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_connected_components(self):
        snap = snapshot_of([(0, 0), (100, 0), (1000, 0), (1100, 0)])
        components = sorted(sorted(c) for c in snap.connected_components())
        assert components == [[0, 1], [2, 3]]

    def test_is_connected(self):
        assert snapshot_of([(0, 0), (100, 0)]).is_connected()
        assert not snapshot_of([(0, 0), (500, 0)]).is_connected()
        assert TopologySnapshot({}, 100.0).is_connected()

    def test_edge_count(self):
        snap = snapshot_of([(0, 0), (100, 0), (100, 100)])
        assert snap.edge_count() == 3

    def test_nodes_property(self):
        assert snapshot_of([(0, 0), (1, 1)]).nodes == {0, 1}


class TestGridEquivalence:
    """The array build must be indistinguishable from brute force."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count,side,radio_range", [
        (25, 500.0, 150.0),     # dense: most pairs in range
        (60, 1500.0, 150.0),    # paper-like density
        (60, 1500.0, 250.0),    # Table-1 range
        (120, 4000.0, 100.0),   # sparse, many isolated nodes
    ])
    def test_randomized_matches_brute_force(self, seed, count, side, radio_range):
        rng = random.Random(seed)
        positions = {
            i: Point(rng.uniform(0, side), rng.uniform(0, side))
            for i in range(count)
        }
        snap = TopologySnapshot(positions, radio_range)
        expected = BruteForceSnapshot(positions, radio_range).adjacency
        for node in positions:
            assert snap.neighbors(node) == expected[node]

    def test_negative_coordinates(self):
        rng = random.Random(99)
        positions = {
            i: Point(rng.uniform(-800, 800), rng.uniform(-800, 800))
            for i in range(50)
        }
        snap = TopologySnapshot(positions, 200.0)
        assert_matches_oracle(snap, BruteForceSnapshot(positions, 200.0))

    def test_boundary_distance_pairs(self):
        # Exact-range pairs straddling grid cells in every direction.
        r = 150.0
        snap = snapshot_of([(0, 0), (r, 0), (0, r), (-r, 0), (0, -r)], r)
        assert snap.neighbors(0) == [1, 2, 3, 4]
        assert snap.neighbors(1) == [0]

    def test_just_beyond_boundary_excluded(self):
        snap = snapshot_of([(0, 0), (150.0000001, 0)], 150.0)
        assert snap.neighbors(0) == []

    def test_coincident_nodes_are_neighbors(self):
        snap = snapshot_of([(10, 10), (10, 10), (10, 10)], 150.0)
        assert snap.neighbors(0) == [1, 2]
        assert snap.edge_count() == 3

    def test_empty_snapshot(self):
        snap = TopologySnapshot({}, 150.0)
        assert snap.nodes == set()
        assert snap.edge_count() == 0

    def test_single_node(self):
        snap = snapshot_of([(5, 5)])
        assert snap.neighbors(0) == []
        assert snap.shortest_path(0, 0) == [0]

    def test_nonpositive_radio_range_direct_construction(self):
        # Only coincident nodes connect when the disc has zero radius.
        snap = TopologySnapshot({0: Point(0, 0), 1: Point(0, 0), 2: Point(1, 0)}, 0.0)
        assert snap.neighbors(0) == [1]
        assert snap.neighbors(2) == []

    def test_ids_outside_int64_are_refused_by_name(self):
        """No build handles them, so the one build says so — with the id."""
        for ids, bad in ((("a", 7), "a"), ((1, 2**63), 2**63)):
            positions = {node: Point(0, 0) for node in ids}
            with pytest.raises(TopologyError) as raised:
                TopologySnapshot(positions, 150.0)
            assert f"{bad!r} ({type(bad).__name__})" in str(raised.value)
            with pytest.raises(TopologyError):
                soa.build_csr(positions, 150.0)


class TestBFSMemoization:
    """Memoised BFS answers must equal the oracle's per-call traversals."""

    def random_snapshot(self, seed, count=60, side=1500.0, radio_range=250.0):
        rng = random.Random(seed)
        positions = {
            i: Point(rng.uniform(0, side), rng.uniform(0, side))
            for i in range(count)
        }
        return TopologySnapshot(positions, radio_range)

    @pytest.mark.parametrize("seed", range(5))
    def test_bfs_levels_match_fresh_bfs(self, seed):
        snap = self.random_snapshot(seed)
        oracle = BruteForceSnapshot(snap.positions, snap.radio_range)
        for source in (0, 17, 42):
            for max_depth in (None, 0, 1, 3, 8):
                memoized = snap.bfs_levels(source, max_depth=max_depth)
                fresh = oracle.bfs_levels(source, max_depth)
                assert memoized == fresh
                # Flood scheduling iterates this dict: order matters too.
                assert list(memoized) == list(fresh)

    @pytest.mark.parametrize("seed", range(5))
    def test_shortest_path_consistent_with_levels(self, seed):
        snap = self.random_snapshot(seed)
        levels = BruteForceSnapshot(snap.positions, snap.radio_range).bfs_levels(0)
        for target in snap.nodes:
            path = snap.shortest_path(0, target)
            if target in levels:
                assert path[0] == 0 and path[-1] == target
                assert len(path) - 1 == levels[target]
                for hop_a, hop_b in zip(path, path[1:]):
                    assert snap.has_edge(hop_a, hop_b)
            else:
                assert path is None

    def test_repeated_queries_reuse_cache(self):
        snap = self.random_snapshot(1)
        first = snap.shortest_path(0, 42)
        assert snap.bfs_cache_size == 1
        assert snap.shortest_path(0, 42) == first
        snap.bfs_levels(0, max_depth=3)
        assert snap.bfs_cache_size == 1  # same source, same tree
        snap.hop_distance(0, 17)
        assert snap.bfs_cache_size == 1

    @pytest.mark.parametrize("count", (50, 600))
    def test_negative_max_depth_is_the_source_alone_at_every_size(
        self, monkeypatch, count
    ):
        """Clamped before the branch is chosen: neither the dict nor the
        array traversal walks a component to answer ``{source: 0}``."""
        snap = self.random_snapshot(count, count, 1500.0 * (count / 50.0) ** 0.5)
        bounds = []
        real_bfs = soa.bfs_from_csr

        def bounded_bfs(csr, source, max_depth=None):
            bounds.append(max_depth)
            return real_bfs(csr, source, max_depth)

        monkeypatch.setattr(soa, "bfs_from_csr", bounded_bfs)
        assert snap.bfs_levels(0, max_depth=-1) == {0: 0}
        # At 600 the array branch serves it, bounded at depth 0.
        assert bounds == [0] * (count >= soa.ARRAY_REFRESH_MIN_NODES)
        read = count_row_reads(snap)
        assert snap.nearest(0, (0, 1), max_depth=-1) == 0
        assert snap.nearest(0, (1,), max_depth=-7) is None
        assert snap.bfs_levels(0, max_depth=-3) == {0: 0}  # the dict record now
        assert read == [] and len(bounds) <= 1

    def test_returned_levels_are_copies(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0)])
        levels = snap.bfs_levels(0)
        levels[99] = 99  # caller mutation must not poison the cache
        assert 99 not in snap.bfs_levels(0)

    def test_hop_distance_raises_for_offline_source(self):
        snap = snapshot_of([(0, 0)])
        with pytest.raises(TopologyError):
            snap.hop_distance(42, 0)


class TestResumableTraversal:
    """One record per source, grown only as far as each query needs."""

    def test_search_stops_at_the_answer_and_resumes(self):
        """The gate that fails if the traversal stops stopping: which
        adjacency rows a query reads is its work, and it is counted."""
        snap = snapshot_of([(100 * i, 0) for i in range(50)])  # a line, 0..49
        read = count_row_reads(snap)
        assert snap.shortest_path(0, 2) == [0, 1, 2]
        assert read == [0, 1] and snap.bfs_cache_size == 1
        assert snap.nearest(0, {3, 40}) == 3
        assert read == [0, 1, 2] and snap.bfs_cache_size == 1
        assert snap.nearest(0, {3, 40}) == 3  # already there: nothing read
        assert snap.shortest_path(0, 1) == [0, 1]
        assert snap.bfs_levels(0, max_depth=2) == {0: 0, 1: 1, 2: 2}
        assert read == [0, 1, 2]
        assert snap.hop_distance(0, 49) == 49
        assert read == list(range(49))  # resumed: rows 0-2 not read again
        assert snap.bfs_levels(0) == {node: node for node in range(50)}
        assert read == list(range(50)) and snap.bfs_cache_size == 1
        snap.bfs_levels(0)
        assert read == list(range(50))  # complete: nothing left to read

    def test_nearest_takes_the_first_level_with_a_candidate(self):
        # 1 and 2 both one hop from 0, 3 two hops, 4 out of reach, 9 offline.
        snap = snapshot_of([(0, 0), (100, 0), (0, 100), (200, 0), (900, 900)])
        assert snap.nearest(0, [3, 2, 1]) == 1  # ties go to the smallest id
        assert snap.nearest(0, {3}) == 3
        assert snap.nearest(0, {3}, max_depth=1) is None
        assert snap.nearest(0, {3}, max_depth=2) == 3
        assert snap.nearest(0, {0, 1}) == 0  # the source is a candidate too
        assert snap.nearest(0, {4, 9}) is None
        with pytest.raises(TopologyError):
            snap.nearest(9, {0})

    def test_nearest_of_nothing_online_walks_nothing(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0)])
        assert snap.nearest(0, ()) is None
        assert snap.nearest(0, {7, 8}) is None
        assert snap.bfs_cache_size == 0


class TestHasEdge:
    def test_symmetric(self):
        snap = snapshot_of([(0, 0), (100, 0), (400, 0)])
        assert snap.has_edge(0, 1) and snap.has_edge(1, 0)
        assert not snap.has_edge(0, 2)

    def test_offline_endpoint_is_false_not_error(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert not snap.has_edge(0, 99)
        assert not snap.has_edge(99, 0)

    def test_no_self_edges(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert not snap.has_edge(0, 0)

    def test_matches_neighbor_lists(self):
        rng = random.Random(5)
        positions = {
            i: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(40)
        }
        snap = TopologySnapshot(positions, 200.0)
        for a in positions:
            neighbors = set(snap.neighbors(a))
            for b in positions:
                assert snap.has_edge(a, b) == (b in neighbors)


class TestCsrPointQueries:
    """``has_edge``/``degree``/``edge_count`` straight off the CSR arrays
    agree with the dict-backed answers and materialise nothing."""

    @staticmethod
    def pair(seed, count, ids=None):
        """The same random graph as an unmaterialised CSR snapshot and as
        one serving from its dicts and sets (offline nodes simply absent)."""
        rng = random.Random(seed)
        side = 1500.0 * (count / 50.0) ** 0.5
        ids = list(ids) if ids is not None else list(range(count))
        positions = {
            node: Point(rng.uniform(0, side), rng.uniform(0, side)) for node in ids
        }
        vec = TopologySnapshot(positions, 250.0)
        assert vec._csr is not None and vec._adjacency_store is None
        ref = TopologySnapshot(positions, 250.0)
        expected = BruteForceSnapshot(positions, 250.0).adjacency
        assert ref._adjacency == expected  # materialises the lists ...
        assert ref._neighbor_sets.keys() == expected.keys()  # ... and the sets
        return vec, ref

    @pytest.mark.parametrize("seed,count", [(1, 64), (2, 200), (3, 700)])
    def test_agree_with_dict_answers(self, seed, count):
        # Even ids only: odd ones stand for offline nodes, 10**6 and a
        # string for identifiers the network never registered.
        vec, ref = self.pair(seed, count, ids=range(0, 2 * count, 2))
        assert vec.edge_count() == ref.edge_count() > 0
        rng = random.Random(seed)
        probes = [1, 2 * count + 1, 10**6, -4, "ghost", None]
        for node in ref.positions:
            assert vec.degree(node) == ref.degree(node)
        vec._csr_edge_queries = 10**9  # keep every answer on the CSR
        for node in rng.sample(list(ref.positions), 40):
            for other in ref.neighbors(node):
                assert vec.has_edge(node, other) and vec.has_edge(other, node)
            for other in rng.sample(list(ref.positions), 40) + probes:
                assert vec.has_edge(node, other) == ref.has_edge(node, other)
                assert vec.has_edge(other, node) == ref.has_edge(other, node)
        for probe in probes:
            assert not vec.has_edge(probe, probe)
            with pytest.raises(TopologyError):
                vec.degree(probe)
        assert vec._adjacency_store is None and vec._sets_store is None

    def test_unsorted_ids_use_the_rank_table(self):
        ids = list(range(100))
        random.Random(9).shuffle(ids)
        vec, ref = self.pair(4, 100, ids=ids)
        vec._csr_edge_queries = 10**9
        for node in ids:
            assert vec.degree(node) == ref.degree(node)
            for other in ids[:25]:
                assert vec.has_edge(node, other) == ref.has_edge(node, other)
        assert not vec.has_edge(0, 1000) and not vec.has_edge(1000, 0)

    def test_sustained_has_edge_traffic_builds_the_sets(self):
        """The CSR serves a bounded number of queries per snapshot; a
        snapshot that keeps being asked switches to the O(1) sets."""
        vec, ref = self.pair(5, 400)
        allowance = vec._csr_edge_queries
        assert 0 < allowance < 400
        for query in range(allowance):
            vec.has_edge(query % 400, (query * 13 + 7) % 400)
        assert vec._sets_store is None
        for query in range(allowance, 4 * allowance):
            a, b = query % 400, (query * 13 + 7) % 400
            assert vec.has_edge(a, b) == ref.has_edge(a, b)
        assert vec._sets_store is not None
        assert vec._neighbor_sets == ref._neighbor_sets


class TestTopologyService:
    def make_world(self, states, quantum=1.0):
        """``states``: ``(node_id, position, online)`` rows of the table."""
        table = {node: [position, online] for node, position, online in states}
        return StubWorld(table, 150.0, quantum)

    def test_offline_nodes_excluded(self):
        world = self.make_world([(0, Point(0, 0), True), (1, Point(100, 0), False)])
        assert world.service.current().nodes == {0}

    def test_snapshot_cached_within_quantum(self):
        world = self.make_world([(0, Point(0, 0), True)])
        first = world.service.current()
        world.now = 0.5
        assert world.service.current() is first
        assert world.service.snapshots_built == 1

    def test_unmoved_snapshot_reused_after_quantum(self):
        # The node is re-sampled where it was, so the new bucket diffs to
        # an empty delta and hands back the previous snapshot.
        world = self.make_world([(0, Point(0, 0), True)])
        first = world.service.current()
        world.now = 1.5
        assert world.service.current() is first
        assert world.service.snapshots_built == 1
        assert world.service.snapshots_reused == 1

    def test_moved_node_rebuilds_after_quantum(self):
        world = self.make_world([(0, Point(0, 0), True), (1, Point(100, 0), True)])
        service = world.service
        first = service.current()
        world.now = 1.5
        world.table[0][0] = Point(10, 0)
        second = service.current()
        assert second is not first
        assert second.neighbors(0) == [1]
        assert second.positions[0] == Point(10, 0)
        assert service.snapshots_built == 2

    def test_note_churn_rediffs_within_quantum(self):
        world = self.make_world([(0, Point(0, 0), True), (1, Point(100, 0), True)])
        service = world.service
        first = service.current()
        assert first.nodes == {0, 1}
        world.set_online(1, False)
        second = service.current()
        assert second.nodes == {0}
        assert service.invalidations == 1
        # The rebuilt snapshot is cached: same bucket, no further churn.
        assert service.current() is second

    def test_invalidate_forces_rebuild(self):
        world = self.make_world([(0, Point(0, 0), True)])
        world.service.current()
        world.service.invalidate()
        world.service.current()
        assert world.service.snapshots_built == 2

    def test_new_edge_filter_is_honoured_without_invalidate(self):
        # Nothing moves, so only the filter-identity check stands between
        # the next bucket and a reuse of the unfiltered snapshot.
        world = self.make_world([(0, Point(0, 0), True), (1, Point(100, 0), True)])
        service = world.service
        assert service.current().neighbors(0) == [1]
        service.edge_filter = lambda a, b, pa, pb: False
        world.now = 1.5
        cut = service.current()
        assert cut.neighbors(0) == []
        assert service.snapshots_built == 2 and service.snapshots_reused == 0

    def test_invalid_parameters(self):
        ledger = soa.SoAPositionLedger()
        for bad in (0.0, -1.0, float("nan")):  # NaN must fail too
            with pytest.raises(TopologyError, match="radio_range"):
                TopologyService(lambda: 0.0, ledger, radio_range=bad)
            with pytest.raises(TopologyError, match="quantum"):
                TopologyService(lambda: 0.0, ledger, radio_range=100.0, quantum=bad)
