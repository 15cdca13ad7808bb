"""Property tests: every path of the per-quantum core against the oracle.

Each test builds a world and asserts that everything the network layer
can observe of it — positions, neighbour lists, BFS levels and discovery
order, depth-bounded floods, edge counts and connected components — is
equal *and in the same order* as the brute-force oracle's
(``tests/oracle.py``: all-pairs distance test, FIFO BFS, per-node
``current_position()`` sampling).  Where two shipped paths compute the
same thing (grid and all-pairs candidate stages, CSR and dict BFS, pair
list and list-less build) both are held to the oracle on the same world.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.counters import MessageCounters
from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.terrain import Point, Terrain
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from repro.net import soa
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import TopologySnapshot
from repro.sim.engine import Simulator

from tests.oracle import (
    BruteForceSnapshot,
    assert_full_tree,
    assert_matches_oracle,
    sample_positions,
)

RANGE = 250.0


# ----------------------------------------------------------------------
# Adjacency builds
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=2000.0),
        ),
        max_size=40,
    ),
    st.floats(min_value=10.0, max_value=800.0),
)
def test_csr_build_matches_oracle(points, radio_range):
    positions = {i: Point(x, y) for i, (x, y) in enumerate(points)}
    snap = TopologySnapshot(positions, radio_range)
    assert snap._csr is not None
    assert_matches_oracle(snap, BruteForceSnapshot(positions, radio_range))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_csr_build_matches_oracle_at_paper_density(seed):
    rng = random.Random(seed)
    count = rng.randrange(1, 120)
    side = 1500.0 * (count / 50.0) ** 0.5
    terrain = Terrain(side, side)
    positions = {i: terrain.random_point(rng) for i in range(count)}
    snap = TopologySnapshot(positions, 350.0)
    assert snap._csr is not None
    assert_matches_oracle(snap, BruteForceSnapshot(positions, 350.0))


@contextlib.contextmanager
def _pinned(constant: str, value: int):
    """Pin one of :mod:`soa`'s size crossovers for the duration of the block."""
    saved = getattr(soa, constant)
    setattr(soa, constant, value)
    try:
        yield
    finally:
        setattr(soa, constant, saved)


def _grid_from(min_nodes: int):
    return _pinned("GRID_MIN_NODES", min_nodes)


#: The degenerate populations, and the ones around the stage crossover.
_STAGE_SIZES = (
    0, 1, 2, 3, 17,
    soa.GRID_MIN_NODES - 1, soa.GRID_MIN_NODES, soa.GRID_MIN_NODES + 1,
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_STAGE_SIZES), st.integers(min_value=0, max_value=2**20))
def test_all_pairs_and_grid_stages_match_oracle(count, seed):
    """Every pair, or the pairs of adjacent grid cells: both candidate
    stages are supersets of the in-range pairs, so either one ends in the
    oracle's neighbour lists, key order and BFS trees — including
    coincident points and pairs at exactly the radio range."""
    np = soa.np
    rng = random.Random(seed)
    side = max(1500.0 * (count / 50.0) ** 0.5, RANGE)
    points = [Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(count)]
    if count >= 2:
        # Whole-number coordinates keep the distances below exact.
        points[0] = Point(float(rng.randrange(int(side))), float(rng.randrange(int(side))))
        points[1] = points[0]  # coincident
    if count >= 17:
        points[5] = Point(points[0].x + RANGE, points[0].y)  # exactly in range
        points[16] = Point(points[0].x + 0.6 * RANGE, points[0].y + 0.8 * RANGE)  # too
        points[9] = Point(points[0].x, points[0].y + RANGE + 2.0 ** -20)  # just outside
    positions = dict(enumerate(points))
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)

    oracle = BruteForceSnapshot(positions, RANGE)
    if count >= 17:
        assert 5 in oracle.adjacency[0] and 16 in oracle.adjacency[1]
        assert 9 not in oracle.adjacency[0]
    every_pair = count * (count - 1) // 2
    for grid_from in (0, count + 1):  # the grid stage, then the all-pairs stage
        with _grid_from(grid_from):
            vec = TopologySnapshot(dict(positions), RANGE)
            assert vec._csr is not None
            if count:  # the stage under test is the one that ran
                listed = soa._candidate_pairs(xs, ys, RANGE)[0].shape[0]
                if grid_from:
                    assert listed == every_pair
                else:  # ~90 cells at the larger sizes: most pairs are far apart
                    assert listed < every_pair or count <= 17
            assert vec._adjacency == oracle.adjacency
            assert list(vec._adjacency) == list(oracle.adjacency)
            for source in positions:
                levels, parents, items, prefix = soa.bfs_from_csr(vec._csr, source)
                dict_tree = vec._bfs_from(source)  # under 4 096 nodes: the dict BFS
                assert dict_tree == [levels, parents, prefix, []]
                assert items == list(dict_tree[0].items())  # levels, in order
                assert list(parents) == list(dict_tree[1])  # parents, in order
            assert_matches_oracle(vec, oracle)


def test_all_pairs_stage_serves_every_size_from_one_triangle():
    """Smaller populations read a prefix of the cached triangle: views,
    not copies, ordered so that the prefix is exactly the pairs below n."""
    big_a, big_b = soa._all_pairs_below(40)
    for count in (0, 1, 2, 7, 39):
        cand_a, cand_b = soa._all_pairs_below(count)
        assert cand_a.base is big_a.base and cand_b.base is big_b.base
        assert not cand_a.flags.writeable and not cand_b.flags.writeable
        listed = set(zip(cand_a.tolist(), cand_b.tolist()))
        assert listed == {(a, b) for b in range(count) for a in range(b)}
        assert len(listed) == cand_a.shape[0]


# ----------------------------------------------------------------------
# One resumable traversal per source: any interleaving, one answer
# ----------------------------------------------------------------------
_QUERY_SIZES = (1, 2, 3, 17, 50, 129)

#: ``(query, source pick, target picks, depth)``; picks index the id list,
#: which ends in two ids that are not online.
_queries = st.tuples(
    st.sampled_from(("shortest_path", "hop_distance", "bfs_levels", "nearest")),
    st.integers(min_value=0, max_value=2**16),
    st.lists(st.integers(min_value=0, max_value=2**16), max_size=4),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=9)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_QUERY_SIZES),
    st.integers(min_value=0, max_value=2**20),
    st.sampled_from((0.5, 1.0, 2.5)),  # crowded, the paper's density, sparse
    st.booleans(),
    st.lists(_queries, min_size=1, max_size=30),
)
def test_interleaved_queries_answer_like_fresh_full_traversals(
    count, seed, spread, filtered, queries
):
    """Whatever a source's record was grown for before, every query on
    it answers — values and iteration order — what the oracle's full
    FIFO traversal does and what a fresh snapshot does, and growing the
    record to the end afterwards still yields the oracle's whole tree."""
    rng = random.Random(seed)
    side = max(1500.0 * spread * (count / 50.0) ** 0.5, RANGE)
    points = [Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(count)]
    for index in range(1, count, 7):
        points[index] = points[index - 1]  # coincident
    positions = dict(enumerate(points))
    cut = (lambda a, b, pos_a, pos_b: (pos_a.x < side / 2) == (pos_b.x < side / 2))
    edge_filter = cut if filtered else None
    oracle = BruteForceSnapshot(positions, RANGE, edge_filter)
    snap = TopologySnapshot(positions, RANGE, edge_filter)
    ids = list(positions) + [count + 5, -3]  # the last two are offline
    # Few sources, so that most queries land on a record an earlier one grew.
    pool = rng.sample(range(count), min(count, 3))
    sources = set()
    for query, source_pick, target_picks, depth in queries:
        source = pool[source_pick % len(pool)]
        sources.add(source)
        targets = [ids[pick % len(ids)] for pick in target_picks]
        if query == "bfs_levels":
            args = (source, depth)
        elif query == "nearest":
            args = (source, targets, depth)  # may be empty, may hold the source
        else:
            args = (source, targets[0] if targets else source)
        expected = getattr(oracle, query)(*args)
        fresh = getattr(TopologySnapshot(positions, RANGE, edge_filter), query)(*args)
        found = getattr(snap, query)(*args)
        assert found == expected == fresh, (query, args)
        if query == "bfs_levels":  # floods iterate it: order is an answer too
            assert list(found) == list(expected) == list(fresh), args
    assert snap.bfs_cache_size <= len(sources)
    for source in sources:
        assert_full_tree(snap, oracle, source)


def test_membership_is_a_python_bool_on_either_side_of_the_crossover():
    """Hash lookup under the array-refresh crossover, binary search from
    it on — same answers, and never a ``numpy.bool_``."""
    np = soa.np
    ids = np.array([2, 3, 5, 8, 13], dtype=np.int64)
    coords = np.zeros(5)
    small = soa.ArrayPositions(ids, coords, coords)
    assert isinstance(small.members(), frozenset)
    with _array_refresh_from(0):
        large = soa.ArrayPositions(ids, coords, coords)
        held = sys.getrefcount(large)
        assert large.members() is large
        # ... without holding itself: a cycle would keep every refresh's
        # arrays alive until the cyclic collector happens by.
        assert sys.getrefcount(large) == held
        unsorted = soa.ArrayPositions(ids[::-1].copy(), coords, coords)
        assert isinstance(unsorted.members(), frozenset)
        empty = soa.ArrayPositions(ids[:0], coords[:0], coords[:0])
        for probe in (-1, 2, 4, 13, 14, 5.0, 5.5, "5", None):
            expected = probe in {2, 3, 5, 8, 13}
            for mapping in (small, large, unsorted):
                assert (probe in mapping) is expected, (probe, mapping.members())
            assert (probe in empty) is False
    csr = soa.CsrAdjacency(np.zeros(6, dtype=np.int64), ids[:0], ids)
    assert [csr.rank_of(node) for node in (2, 8, 13)] == [0, 3, 4]
    for missing in (4, 14, "5"):
        with pytest.raises(KeyError):
            csr.rank_of(missing)


# ----------------------------------------------------------------------
# The full pipeline under movement and churn
# ----------------------------------------------------------------------
class _Node(NetworkNode):
    """Minimal concrete node whose position comes from a mobility model."""

    def __init__(self, node_id: int, sim: Simulator, mobility: MobilityModel):
        self._id = node_id
        self._sim = sim
        self.mobility = mobility
        self._online = True

    @property
    def node_id(self) -> int:
        return self._id

    @property
    def online(self) -> bool:
        return self._online

    def set_online(self, flag: bool) -> None:
        if flag != self._online:
            self._online = flag
            self.notify_state_change()

    def current_position(self) -> Point:
        return self.mobility.position(self._sim.now)

    def position_valid_until(self) -> float:
        return self.mobility.position_valid_until(self._sim.now)

    def on_relay(self, message) -> None:
        return None

    def deliver(self, message) -> None:
        return None


class _OpaqueModel(MobilityModel):
    """A model the bulk-kernel registry does not recognise.

    Wraps a real trajectory so the FallbackKernel arm exercises genuine
    movement, not just a stationary point.
    """

    def __init__(self, inner: MobilityModel):
        self._inner = inner

    def position(self, time: float) -> Point:
        return self._inner.position(time)

    def position_valid_until(self, time: float) -> float:
        return self._inner.position_valid_until(time)


def _make_model(family: str, terrain: Terrain, seed: int) -> MobilityModel:
    rng = random.Random(seed)
    if family == "stationary":
        return Stationary(terrain.random_point(rng))
    if family == "waypoint":
        return RandomWaypoint(terrain, rng, 10.0, 40.0, pause_time=3.0)
    if family == "walk":
        return RandomWalk(terrain, rng, 10.0, 40.0, epoch=4.0)
    if family == "piecewise":
        times = [0.0, 5.0, 12.0, 30.0]
        return PiecewiseLinear(
            [(t, terrain.random_point(rng)) for t in times]
        )
    if family == "fallback":
        return _OpaqueModel(RandomWalk(terrain, rng, 10.0, 40.0, epoch=4.0))
    raise AssertionError(family)


FAMILIES = ("stationary", "waypoint", "walk", "piecewise", "fallback")


def _make_nodes(sim: Simulator, seed: int, count: int, families):
    terrain = Terrain(900.0, 900.0)
    return [
        _Node(
            i, sim,
            _make_model(families[i % len(families)], terrain, seed * 1000 + i),
        )
        for i in range(count)
    ]


def _build_world(seed: int, count: int, families):
    sim = Simulator()
    net = Network(sim, radio_range=RANGE, traffic=MessageCounters())
    nodes = _make_nodes(sim, seed, count, families)
    for node in nodes:
        net.register(node)
    return sim, net, nodes


def _lockstep(seed: int, count: int, families, toggles):
    """Walk a network a quantum at a time, next to its oracle's nodes.

    The shadow nodes are never registered anywhere: identically seeded
    models of their own, on the same clock, sampled one
    ``current_position()`` at a time.  The ledger samples the network's
    nodes through the bulk kernels; nothing is shared between the two.

    Yields ``(net, shadow)`` after each tick's movement and churn,
    before the network has refreshed its snapshot.
    """
    sim, net, nodes = _build_world(seed, count, families)
    shadow = _make_nodes(sim, seed, count, families)
    for tick, toggle in enumerate(toggles, start=1):
        sim.run_until(float(tick))
        if toggle is not None:
            index = toggle % count
            nodes[index].set_online(not nodes[index].online)
            shadow[index].set_online(nodes[index].online)
        yield net, shadow


def _run_against_oracle(seed: int, count: int, families, toggles):
    """Walk a world and compare every snapshot with the oracle's."""
    for net, shadow in _lockstep(seed, count, families, toggles):
        assert_matches_oracle(
            net.snapshot(), BruteForceSnapshot(sample_positions(shadow), RANGE)
        )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
        min_size=4,
        max_size=24,
    ),
)
def test_pipeline_identical_under_movement_and_churn(seed, toggles):
    """All mobility families at once, random churn, every quantum compared."""
    _run_against_oracle(seed, count=20, families=FAMILIES, toggles=toggles)


@pytest.mark.parametrize("family", FAMILIES)
def test_bulk_mobility_kernels_match_scalar_models(family):
    """Each kernel family alone: bulk sampling equals per-node sampling."""
    _run_against_oracle(seed=7, count=16, families=(family,), toggles=[None] * 20)
    _run_against_oracle(seed=23, count=16, families=(family,), toggles=[3, None, 9] * 5)


# ----------------------------------------------------------------------
# Array refresh above the size crossover
# ----------------------------------------------------------------------
#: One walker per ten nodes: few movers a quantum, so most refreshes
#: change little and some nothing at all.
SPARSE = ("stationary",) * 9 + ("walk",)


def _array_refresh_from(min_nodes: int):
    return _pinned("ARRAY_REFRESH_MIN_NODES", min_nodes)


def _drive_sparse(seed: int, toggles, count: int = 30):
    """Refresh a sparse world quantum by quantum.

    Yields ``(net, snap, oracle, changed)``: the refreshed snapshot, the
    oracle over the shadow nodes' positions, and whether the refresh saw
    a non-empty delta.
    """
    for net, shadow in _lockstep(seed, count, SPARSE, toggles):
        reused = net.topology.snapshots_reused
        snap = net.snapshot()
        oracle = BruteForceSnapshot(sample_positions(shadow), RANGE)
        yield net, snap, oracle, net.topology.snapshots_reused == reused


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
        min_size=4,
        max_size=24,
    ),
)
def test_array_refresh_matches_oracle(seed, toggles):
    """Above the crossover a changed refresh's CSR rebuild answers floods,
    routes and point queries like the oracle, straight off the arrays."""
    with _array_refresh_from(0):
        for net, snap, oracle, changed in _drive_sparse(seed, toggles):
            if changed:
                assert snap._csr is not None
                assert isinstance(snap.positions, soa.ArrayPositions)
            if snap._csr is not None and snap._adjacency_store is None:
                # Straight off the arrays, before anything materialises.
                for source in oracle.positions:
                    levels, parents, items, _ = soa.bfs_from_csr(snap._csr, source)
                    ref_levels, ref_parents = oracle.bfs(source)
                    assert (levels, parents) == (ref_levels, ref_parents)
                    assert items == list(ref_levels.items())
                    assert list(parents) == list(ref_parents)
                    assert snap.degree(source) == len(oracle.adjacency[source])
                assert snap.edge_count() == oracle.edge_count()
                assert snap._adjacency_store is None
            assert_matches_oracle(snap, oracle)


def test_flood_only_run_above_crossover_stays_in_arrays(monkeypatch):
    """Floods over a large-population refresh never build the ``Point``
    dict or the dict adjacency: arrays in, arrays out."""
    from repro.net.message import Message

    materialised = []
    real_adjacency = soa.adjacency_from_csr
    real_points = soa.ArrayPositions.materialized
    monkeypatch.setattr(
        soa, "adjacency_from_csr",
        lambda csr: materialised.append("adjacency") or real_adjacency(csr),
    )
    monkeypatch.setattr(
        soa.ArrayPositions, "materialized",
        lambda self: materialised.append("points") or real_points(self),
    )
    monkeypatch.setattr(soa, "ARRAY_REFRESH_MIN_NODES", 0)
    count = 40
    sim, net, nodes = _build_world(11, count, SPARSE)
    rng = random.Random(11)
    changed_refreshes = 0
    for tick in range(1, 31):
        sim.run_until(float(tick))
        if tick % 3 == 0:
            node = nodes[rng.randrange(count)]
            node.set_online(not node.online)
        reused = net.topology.snapshots_reused
        snapshot = net.snapshot()
        if net.topology.snapshots_reused == reused:
            changed_refreshes += 1
            assert snapshot._csr is not None
        for source in rng.sample(range(count), 4):
            reached = net.flood(source, Message(sender=source), ttl=3)
            assert reached == len(net.flood_reach(source, 3)) or not nodes[source].online
    assert materialised == []
    assert net.topology.stats()["snapshots_built"] == changed_refreshes > 20
    assert net.messages_sent == 30 * 4


# ----------------------------------------------------------------------
# Candidate-pair reuse across refreshes (soa.PairList)
# ----------------------------------------------------------------------
SIDE = 900.0


class _ScriptedModel(MobilityModel):
    """Wherever the test last put it.

    Not a model the bulk-kernel registry knows, so the ledger samples it
    through the fallback kernel; the inherited validity window closes at
    once, so every refresh does.
    """

    def __init__(self, point: Point):
        self.point = point

    def position(self, time: float) -> Point:
        return self.point


def _split_filter(node_a, node_b, pos_a, pos_b) -> bool:
    """A partition down the middle of the terrain."""
    return (pos_a.x < SIDE / 2) == (pos_b.x < SIDE / 2)


class _ScriptedWorld:
    """A ledger-backed network of scripted nodes, checked refresh by refresh."""

    def __init__(self, seed: int, count: int, offline=()):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.net = Network(self.sim, radio_range=RANGE, traffic=MessageCounters())
        self.nodes = []
        for index in range(count):
            self.register(online=index not in offline)

    @property
    def pairs(self) -> soa.PairList:
        return self.net.topology._pair_list

    def register(self, online: bool) -> None:
        node = _Node(len(self.nodes), self.sim, _ScriptedModel(self._anywhere()))
        node._online = online
        self.nodes.append(node)
        self.net.register(node)

    def _anywhere(self) -> Point:
        return Point(self.rng.uniform(0.0, SIDE), self.rng.uniform(0.0, SIDE))

    def place(self, index: int, point: Point) -> None:
        self.nodes[index % len(self.nodes)].mobility.point = point

    def where(self, index: int) -> Point:
        return self.nodes[index % len(self.nodes)].mobility.point

    def drift(self, index: int, dx: float, dy: float) -> None:
        here = self.where(index)
        self.place(index, Point(here.x + dx, here.y + dy))

    def approach(self, index: int, other: int, metres: float) -> None:
        """Head-on motion: what a list built on stale positions misses."""
        here, goal = self.where(index), self.where(other)
        gap = math.hypot(goal.x - here.x, goal.y - here.y)
        if gap > 0.0:
            share = min(metres, gap) / gap
            self.drift(index, (goal.x - here.x) * share, (goal.y - here.y) * share)

    def teleport(self, index: int) -> None:
        self.place(index, self._anywhere())

    def toggle(self, index: int) -> None:
        node = self.nodes[index % len(self.nodes)]
        node.set_online(not node.online)

    def set_range(self, radio_range: float) -> None:
        self.net.topology.radio_range = radio_range
        self.net.topology.invalidate()

    def set_filter(self, edge_filter) -> None:
        self.net.topology.edge_filter = edge_filter
        self.net.topology.invalidate()

    def touch(self, index: int, other: int) -> None:
        """Put ``index`` exactly one radio range east of ``other``: whole
        metres keep the distance exact, so the pair is an edge only under
        ``<=``."""
        here = self.where(other)
        x, y = float(round(here.x)) % (SIDE - RANGE), float(round(here.y))
        self.place(other, Point(x, y))
        self.place(index, Point(x + RANGE, y))

    def refresh(self) -> TopologySnapshot:
        """Advance a tick and refresh."""
        self.sim.run_until(self.sim.now + 1.0)
        return self.net.snapshot()

    def refresh_and_check(self) -> TopologySnapshot:
        """Advance a tick, refresh, and compare with list-less builds."""
        service = self.net.topology
        snap = self.refresh()
        positions = dict(snap.positions)
        assert list(positions) == [n.node_id for n in self.nodes if n.online]
        if snap._csr is not None:
            scratch = soa.build_csr(positions, service.radio_range)
            assert snap._csr.indptr.tolist() == scratch.indptr.tolist()
            assert snap._csr.neighbors.tolist() == scratch.neighbors.tolist()
            assert snap._csr.ids.tolist() == scratch.ids.tolist()
        assert positions == sample_positions(self.nodes)
        assert_matches_oracle(
            snap,
            BruteForceSnapshot(positions, service.radio_range, service.edge_filter),
        )
        return snap


@contextlib.contextmanager
def _pair_list_world(*args, **kwargs):
    """A scripted world whose every refresh takes the array path."""
    with _array_refresh_from(0):
        yield _ScriptedWorld(*args, **kwargs)


_NODE = st.integers(min_value=0, max_value=63)
#: One move, per axis: from well inside the drift limit (12 m at this
#: range) to well past the whole skin (25 m).
_STEP = st.floats(min_value=-40.0, max_value=40.0)
_OPERATIONS = st.one_of(
    st.tuples(st.just("drift"), _NODE, _STEP, _STEP),
    st.tuples(st.just("approach"), _NODE, _NODE, st.floats(min_value=0.0, max_value=40.0)),
    st.tuples(st.just("teleport"), _NODE),
    st.tuples(st.just("toggle"), _NODE),
    st.tuples(st.just("register"), st.booleans()),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("range"), st.sampled_from((180.0, RANGE, 320.0))),
    st.tuples(st.just("filter"), st.booleans()),
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.lists(_OPERATIONS, max_size=4), min_size=4, max_size=20),
)
def test_pair_list_refresh_matches_listless_build(seed, steps):
    """Whatever happens between refreshes — drift, jumps, churn, late
    registrations, invalidation, a new radio range, partitions — a
    refresh served through the pair list equals a build without it."""
    with _pair_list_world(seed, count=24, offline=(3, 11, 17)) as world:
        world.refresh_and_check()
        for operations in steps:
            for name, *args in operations:
                if name == "drift":
                    world.drift(*args)
                elif name == "approach":
                    world.approach(*args)
                elif name == "teleport":
                    world.teleport(*args)
                elif name == "toggle":
                    world.toggle(*args)
                elif name == "register":
                    world.register(*args)
                elif name == "invalidate":
                    world.net.topology.invalidate()
                elif name == "range":
                    world.set_range(*args)
                else:
                    world.set_filter(_split_filter if args[0] else None)
            # Everyone creeps a little, as walkers do between refreshes.
            for index in range(len(world.nodes)):
                world.drift(index, world.rng.uniform(-1, 1), world.rng.uniform(-1, 1))
            world.refresh_and_check()
        assert world.pairs.builds >= 1


def test_pair_list_reuses_reanchors_and_rebuilds_when_it_should():
    """One scripted walk through every branch, counters checked each step."""
    with _pair_list_world(5, count=40, offline=(7,)) as world:
        pairs = world.pairs

        def counters():
            return pairs.builds, pairs.reuses, pairs.reanchored

        world.refresh_and_check()
        assert counters() == (1, 0, 0)
        limit = soa._PAIR_DRIFT_SHARE * soa.PAIR_SKIN * RANGE
        for index in range(40):  # just inside the drift limit
            world.drift(index, limit * 0.7, limit * 0.7)
        world.refresh_and_check()
        assert counters() == (1, 1, 0)
        world.drift(0, limit * 0.1, limit * 0.1)  # now just outside it
        world.refresh_and_check()
        assert counters() == (1, 2, 1)
        world.teleport(4)
        world.refresh_and_check()
        assert counters() == (1, 3, 2)
        # Two strays that end up in range of each other pair exactly once.
        world.place(20, Point(400.0, 400.0))
        world.place(21, Point(410.0, 390.0))
        world.refresh_and_check()
        assert counters() == (1, 4, 4)
        world.toggle(9)  # offline ...
        world.refresh_and_check()
        world.teleport(9)  # ... moves while away ...
        world.toggle(9)  # ... and returns somewhere else
        world.refresh_and_check()
        assert counters() == (1, 6, 5)
        world.toggle(12)  # away and back without moving: still anchored
        world.refresh_and_check()
        world.toggle(12)
        world.refresh_and_check()
        assert counters() == (1, 8, 5)
        world.toggle(7)  # never online before: no anchor yet
        world.refresh_and_check()
        assert counters() == (1, 9, 6)
        world.net.topology.invalidate()  # drops the snapshot, not the list
        world.refresh_and_check()
        assert counters() == (1, 10, 6)
        world.set_filter(_split_filter)  # nor does a partition, either way
        assert world.refresh_and_check()._csr is None
        world.set_filter(None)
        world.refresh_and_check()
        assert counters() == (1, 12, 6)
        world.register(online=True)  # a grown registry rebuilds
        world.refresh_and_check()
        assert counters() == (2, 12, 6)
        world.set_range(300.0)  # and so does a new radio range
        world.refresh_and_check()
        assert counters() == (3, 12, 6)
        world.refresh_and_check()  # nothing changed: snapshot reused
        assert counters() == (3, 12, 6)
        world.drift(1, 0.5, 0.5)
        world.refresh_and_check()
        assert counters() == (3, 13, 6)
        for index in range(30):  # too many strays to re-pair one by one
            world.teleport(index)
        world.refresh_and_check()
        assert counters() == (4, 13, 6)


def test_pair_list_catches_a_pair_closing_from_outside_the_skin():
    """Two nodes anchored just too far apart to be listed close in from
    both sides, each by a little over half the skin: both must count as
    strays, or the edge that now exists is missed."""
    skin = soa.PAIR_SKIN * RANGE
    with _pair_list_world(3, count=12) as world:
        world.place(0, Point(100.0, 450.0))
        world.place(1, Point(100.0 + RANGE + skin + 1.0, 450.0))
        snap = world.refresh_and_check()
        assert not snap.has_edge(0, 1)
        world.drift(0, 0.55 * skin, 0.0)
        world.drift(1, -0.55 * skin, 0.0)
        snap = world.refresh_and_check()
        assert snap.has_edge(0, 1)
        assert (world.pairs.builds, world.pairs.reuses) == (1, 1)
        assert world.pairs.reanchored == 2


def test_pair_list_outrun_before_its_first_reuse_is_rebuilt():
    """Fast movers: a list every node outruns before its first reuse is
    simply rebuilt at each refresh, and the CSR still equals a list-less
    build (``refresh_and_check`` compares them)."""
    refreshes = 6
    with _pair_list_world(9, count=40) as world:
        for _ in range(refreshes):
            for index in range(40):
                world.teleport(index)
            world.refresh_and_check()
        stats = world.net.topology.stats()
        assert stats["snapshots_built"] == refreshes
        assert stats["pair_list_builds"] == refreshes
        assert stats["pair_list_reuses"] == stats["pair_list_reanchored"] == 0
        # Slower movers are served from the last list at once.
        world.drift(0, 0.5, 0.5)
        world.refresh_and_check()
        assert (world.pairs.builds, world.pairs.reuses) == (refreshes, 1)


_FLOOD_OPERATIONS = st.one_of(
    st.tuples(st.just("drift"), _NODE, _STEP, _STEP),
    st.tuples(st.just("approach"), _NODE, _NODE, st.floats(min_value=0.0, max_value=40.0)),
    st.tuples(st.just("teleport"), _NODE),
    st.tuples(st.just("toggle"), _NODE),
    st.tuples(st.just("touch"), _NODE, _NODE),
    st.tuples(st.just("register"), st.booleans()),
    st.tuples(st.just("filter"), st.booleans()),
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.lists(_FLOOD_OPERATIONS, max_size=4), min_size=4, max_size=12),
)
def test_floods_served_from_the_pair_list_match_the_listless_build(seed, steps):
    """A flood on a snapshot served from its candidate pairs reaches, in
    the same order, what the oracle and a list-less CSR traversal reach —
    on the newest snapshot and on snapshots kept from earlier refreshes,
    queried for the first time after the list re-anchored or was rebuilt."""
    served = []
    real_bfs = soa.CandidatePairs.bfs

    def counted_bfs(self, *args):
        served.append(self)
        return real_bfs(self, *args)

    with _pair_list_world(seed, count=24, offline=(3, 11, 17)) as world, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(soa.CandidatePairs, "bfs", counted_bfs)
        kept = []  # (snapshot, positions, edge filter, sources not yet asked)
        for operations in steps:
            for index in range(len(world.nodes)):
                world.drift(index, world.rng.uniform(-1, 1), world.rng.uniform(-1, 1))
            touched = []
            for name, *args in operations:
                if name == "filter":
                    world.set_filter(_split_filter if args[0] else None)
                else:
                    getattr(world, name)(*args)
                if name == "touch":
                    touched.append(args[0] % len(world.nodes))
            snap = world.refresh()
            service = world.net.topology
            if not kept or snap is not kept[-1][0]:
                # A node just put at exactly the range of another floods first.
                pending = [node for node in snap.positions if node not in touched]
                world.rng.shuffle(pending)
                pending += [node for node in dict.fromkeys(touched) if node in snap]
                kept.append((snap, dict(snap.positions), service.edge_filter, pending))
            del kept[:-4]
            # One new source on every kept snapshot, the oldest first.
            for snap, positions, edge_filter, pending in kept:
                if not pending:
                    continue
                source = pending.pop()
                oracle = BruteForceSnapshot(positions, service.radio_range, edge_filter)
                listless = soa.build_csr(positions, service.radio_range)
                for depth in range(9):
                    found = snap.bfs_levels(source, depth)
                    expected = oracle.bfs_levels(source, depth)
                    assert list(found.items()) == list(expected.items()), depth
                    if edge_filter is None:
                        items = soa.bfs_from_csr(listless, source, depth)[2]
                        assert list(found.items()) == items
                if edge_filter is None:
                    # Served from the list: no full CSR was built for it.
                    assert served.pop() is snap._pairs and snap._csr_store is None
                served.clear()


#: The queries that need every edge of a snapshot: ``(snapshot, node,
#: one of its neighbours)``.
_EVERY_EDGE_QUERIES = {
    "shortest_path": lambda snap, node, near: snap.shortest_path(node, near),
    "degree": lambda snap, node, near: snap.degree(node),
    "edge_count": lambda snap, node, near: snap.edge_count(),
    "has_edge": lambda snap, node, near: snap.has_edge(node, near),
    "neighbors": lambda snap, node, near: snap.neighbors(node),
}


@pytest.mark.parametrize("query", sorted(_EVERY_EDGE_QUERIES))
def test_at_scale_only_a_query_for_every_edge_builds_the_csr(monkeypatch, query):
    """600 walkers that only flood build no CSR at any refresh; the first
    query that needs every edge builds exactly one, from the snapshot's
    own pairs, and every later one reuses it.  An edge-filtered snapshot
    builds its CSR at once, as under the crossover."""
    from repro.net.message import Message

    builds = []
    real_build = soa.build_csr
    monkeypatch.setattr(
        soa, "build_csr", lambda *args: builds.append(args) or real_build(*args)
    )
    count = 600
    assert count >= soa.ARRAY_REFRESH_MIN_NODES
    sim = Simulator()
    net = Network(sim, radio_range=RANGE, traffic=MessageCounters())
    side = 1500.0 * (count / 50.0) ** 0.5  # the Table-1 density
    terrain = Terrain(side, side)
    for index in range(count):
        model = RandomWalk(terrain, random.Random(index), 10.0, 40.0, epoch=4.0)
        net.register(_Node(index, sim, model))
    rng = random.Random(query)
    for tick in range(1, 9):
        sim.run_until(float(tick))
        for source in rng.sample(range(count), 3):
            net.flood(source, Message(sender=source), ttl=3)
    assert net.topology.snapshots_built >= 8 and builds == []

    snap = net.snapshot()
    node, near = next(
        (node, list(levels)[1])
        for node in range(count)
        if len(levels := snap.bfs_levels(node, 1)) > 1
    )
    _EVERY_EDGE_QUERIES[query](snap, node, near)
    assert len(builds) == 1 and builds[0][2] is snap._pairs
    csr = snap._csr
    for answer in _EVERY_EDGE_QUERIES.values():
        answer(snap, node, near)
    snap.hop_distance(node, near)
    snap.nearest(node, [near])
    snap.bfs_levels(node)
    snap.connected_components()
    assert snap.has_edge(node, near) and snap.degree(node) == len(snap.neighbors(node))
    assert len(builds) == 1 and snap._csr is csr

    net.topology.edge_filter = _split_filter
    net.topology.invalidate()
    assert net.snapshot()._csr is None  # filtered in place, right away
    assert len(builds) == 2
