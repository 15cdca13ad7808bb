"""Property-based tests (hypothesis) for core invariants."""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.item import CachedCopy
from repro.cache.replacement import FIFOPolicy, LFUPolicy, LRUPolicy
from repro.cache.store import CacheStore
from repro.metrics.staleness import StalenessTracker
from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net.topology import TopologySnapshot
from repro.peers.coefficients import CoefficientTracker
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


# ----------------------------------------------------------------------
# Event kernel
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1000.0), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    outcomes = []
    handles = []
    for index, (delay, cancel) in enumerate(entries):
        handles.append((sim.schedule(delay, outcomes.append, index), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    cancelled = {i for i, (_, cancel) in enumerate(entries) if cancel}
    assert set(outcomes) == set(range(len(entries))) - cancelled


# ----------------------------------------------------------------------
# Mobility
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    times=st.lists(
        st.floats(min_value=0.0, max_value=20_000.0), min_size=1, max_size=20
    ),
)
def test_waypoint_positions_always_inside_terrain(seed, times):
    terrain = Terrain(1500.0, 1500.0)
    model = RandomWaypoint(terrain, random.Random(seed), 1.0, 10.0, 5.0)
    for t in times:
        assert terrain.contains(model.position(t))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_waypoint_is_pure_function_of_time(seed):
    terrain = Terrain(1000.0, 1000.0)
    model = RandomWaypoint(terrain, random.Random(seed), 1.0, 10.0, 5.0)
    sample_late = model.position(5000.0)
    sample_early = model.position(100.0)
    assert model.position(5000.0) == sample_late
    assert model.position(100.0) == sample_early


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
coords = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
    min_size=2,
    max_size=15,
)


@settings(max_examples=50, deadline=None)
@given(coords=coords)
def test_shortest_path_endpoints_and_adjacency(coords):
    snap = TopologySnapshot(
        {i: Point(x, y) for i, (x, y) in enumerate(coords)}, radio_range=300.0
    )
    path = snap.shortest_path(0, len(coords) - 1)
    if path is not None:
        assert path[0] == 0
        assert path[-1] == len(coords) - 1
        for a, b in zip(path, path[1:]):
            assert b in snap.neighbors(a)
        assert len(set(path)) == len(path)  # simple path


@settings(max_examples=50, deadline=None)
@given(coords=coords)
def test_bfs_levels_consistent_with_hop_distance(coords):
    snap = TopologySnapshot(
        {i: Point(x, y) for i, (x, y) in enumerate(coords)}, radio_range=300.0
    )
    levels = snap.bfs_levels(0)
    for node, depth in levels.items():
        assert snap.hop_distance(0, node) == depth


@settings(max_examples=50, deadline=None)
@given(coords=coords, ttl=st.integers(min_value=0, max_value=5))
def test_flood_reach_monotone_in_ttl(coords, ttl):
    snap = TopologySnapshot(
        {i: Point(x, y) for i, (x, y) in enumerate(coords)}, radio_range=300.0
    )
    smaller = set(snap.bfs_levels(0, max_depth=ttl))
    larger = set(snap.bfs_levels(0, max_depth=ttl + 1))
    assert smaller <= larger


# ----------------------------------------------------------------------
# Cache store
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(st.sampled_from(["put", "get", "discard"]), st.integers(0, 20)),
    max_size=120,
)


@settings(max_examples=50, deadline=None)
@given(ops=ops, capacity=st.integers(min_value=1, max_value=8))
def test_store_never_exceeds_capacity(ops, capacity):
    for policy in (LRUPolicy(), LFUPolicy(), FIFOPolicy()):
        store = CacheStore(capacity, policy=policy)
        clock = 0.0
        for op, item in ops:
            clock += 1.0
            if op == "put":
                store.put(CachedCopy(item, 0, 10, clock))
            elif op == "get":
                store.get(item, clock)
            else:
                store.discard(item)
            assert len(store) <= capacity
        assert len(set(store.item_ids)) == len(store)


@settings(max_examples=50, deadline=None)
@given(ops=ops)
def test_store_membership_callbacks_balance(ops):
    events = []
    store = CacheStore(
        3,
        on_insert=lambda i: events.append(("in", i)),
        on_evict=lambda i: events.append(("out", i)),
    )
    clock = 0.0
    for op, item in ops:
        clock += 1.0
        if op == "put":
            store.put(CachedCopy(item, 0, 10, clock))
        elif op == "discard":
            store.discard(item)
    holders = set()
    for kind, item in events:
        if kind == "in":
            assert item not in holders
            holders.add(item)
        else:
            assert item in holders
            holders.remove(item)
    assert holders == set(store.item_ids)


# ----------------------------------------------------------------------
# Staleness audit
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    update_times=st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20
    ),
    read_version=st.integers(min_value=0, max_value=25),
)
def test_staleness_age_nonnegative_and_zero_for_current(update_times, read_version):
    tracker = StalenessTracker()
    clock = 0.0
    version = 0
    for gap in update_times:
        clock += gap
        version += 1
        tracker.record_update(1, version, now=clock)
    read_version = min(read_version, version)
    audit = tracker.record_read(1, read_version, now=clock + 1.0, level="weak")
    assert audit.staleness_age >= 0.0
    if read_version == version:
        assert audit.staleness_age == 0.0
    else:
        assert audit.staleness_age > 0.0


@settings(max_examples=50, deadline=None)
@given(delta=st.floats(min_value=0.5, max_value=100.0))
def test_strong_violations_superset_of_delta_violations(delta):
    strong = StalenessTracker(delta=delta)
    tracker = StalenessTracker(delta=delta)
    tracker.record_update(1, 1, now=0.0)
    strong.record_update(1, 1, now=0.0)
    for read_time in (0.1, delta / 2, delta + 1.0, delta * 3):
        delta_audit = tracker.record_read(1, 0, now=read_time, level="delta")
        strong_audit = strong.record_read(1, 0, now=read_time, level="strong")
        if delta_audit.violated:
            assert strong_audit.violated


# ----------------------------------------------------------------------
# Coefficients
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    accesses=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20),
    omega=st.floats(min_value=0.0, max_value=0.9),
)
def test_coefficients_always_in_unit_interval(accesses, omega):
    tracker = CoefficientTracker(phi=100.0, omega=omega)
    for count in accesses:
        tracker.record_access(count)
        tracker.record_switch()
        tracker.record_moves(count % 3)
        tracker.close_period()
        assert 0.0 < tracker.car <= 1.0
        assert 0.0 < tracker.cs <= 1.0
        assert 0.0 <= tracker.ce <= 1.0
        assert tracker.par >= 0.0
        assert tracker.psr >= 0.0
        assert tracker.pmr >= 0.0


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), name=st.text(max_size=30))
def test_streams_reproducible(seed, name):
    a = RandomStreams(seed).stream(name).random()
    b = RandomStreams(seed).stream(name).random()
    assert a == b


# ----------------------------------------------------------------------
# Random walk
# ----------------------------------------------------------------------
from repro.mobility.walk import RandomWalk, _reflect  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    limit=st.floats(min_value=1.0, max_value=2000.0),
)
def test_reflect_stays_in_bounds(value, limit):
    reflected = _reflect(value, limit)
    assert 0.0 <= reflected <= limit


@settings(max_examples=100, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=100.0))
def test_reflect_identity_inside_bounds(value):
    assert _reflect(value, 100.0) == pytest.approx(value)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    times=st.lists(st.floats(min_value=0.0, max_value=5_000.0),
                   min_size=1, max_size=10),
)
def test_random_walk_inside_terrain(seed, times):
    terrain = Terrain(800.0, 800.0)
    model = RandomWalk(terrain, random.Random(seed), 1.0, 15.0, 30.0)
    for t in times:
        assert terrain.contains(model.position(t))


# ----------------------------------------------------------------------
# Time series bucketing
# ----------------------------------------------------------------------
from repro.metrics.timeseries import TimeSeries  # noqa: E402

samples = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1000.0),
              st.floats(min_value=-100.0, max_value=100.0)),
    min_size=1, max_size=50,
).map(lambda pairs: sorted(pairs, key=lambda p: p[0]))


@settings(max_examples=50, deadline=None)
@given(samples=samples, width=st.floats(min_value=1.0, max_value=200.0))
def test_bucket_counts_partition_all_samples(samples, width):
    series = TimeSeries()
    for t, v in samples:
        series.record(t, v)
    counted = sum(count for _, count in series.bucketed(width, "count"))
    assert counted == len(samples)


@settings(max_examples=50, deadline=None)
@given(samples=samples, width=st.floats(min_value=1.0, max_value=200.0))
def test_bucket_sums_preserve_total(samples, width):
    series = TimeSeries()
    for t, v in samples:
        series.record(t, v)
    total = sum(value for _, value in series.bucketed(width, "sum"))
    assert total == pytest.approx(sum(v for _, v in samples), abs=1e-6)
