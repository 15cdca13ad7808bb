"""Micro-benchmarks of the simulation substrates.

Not a paper figure — these keep the kernel honest: event throughput,
topology snapshot construction, BFS, and random-waypoint sampling are the
inner loops every experiment spends its time in.

The ``*_scaled`` benchmarks stress the fast paths (spatial-grid adjacency
build, memoised per-source BFS, O(1) ``has_edge``) at 50/200/1000 nodes
with node density held at the paper's 50 nodes per 1500 m square.  Run
``python benchmarks/run_bench.py`` for the committed-baseline regression
gate over the same workloads.
"""

import math
import random

import pytest

from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net.topology import TopologySnapshot
from repro.sim.engine import Simulator


def test_event_throughput(benchmark):
    """Schedule-and-run throughput of the event kernel (10k events)."""

    def run():
        sim = Simulator()
        for index in range(10_000):
            sim.schedule(float(index % 97) * 0.1, lambda: None)
        sim.run()
        return sim.events_processed

    processed = benchmark(run)
    assert processed == 10_000


def test_timer_chain(benchmark):
    """A self-rescheduling timer chain (the protocol timer pattern)."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 5_000


def _positions(count, seed=3):
    rng = random.Random(seed)
    terrain = Terrain(1500.0, 1500.0)
    return {i: terrain.random_point(rng) for i in range(count)}


def test_snapshot_build_50_nodes(benchmark):
    """Adjacency construction for a Table-1 sized network."""
    positions = _positions(50)
    snapshot = benchmark(lambda: TopologySnapshot(positions, 350.0))
    assert snapshot.edge_count() > 0


def test_bfs_levels_50_nodes(benchmark):
    """TTL-flood reach computation (the flood hot path)."""
    snapshot = TopologySnapshot(_positions(50), 350.0)

    levels = benchmark(lambda: snapshot.bfs_levels(0, max_depth=8))
    assert 0 in levels


def _scaled_positions(count, seed=3):
    """Random placements at the paper's density (50 nodes / 1500 m square)."""
    side = 1500.0 * math.sqrt(count / 50.0)
    rng = random.Random(seed)
    terrain = Terrain(side, side)
    return {i: terrain.random_point(rng) for i in range(count)}


@pytest.mark.parametrize("count", [50, 200, 1000])
def test_snapshot_build_scaled(benchmark, count):
    """Spatial-grid adjacency build at constant density (was O(N^2))."""
    positions = _scaled_positions(count)
    snapshot = benchmark(lambda: TopologySnapshot(positions, 350.0))
    assert snapshot.edge_count() > 0


@pytest.mark.parametrize("count", [50, 200, 1000])
def test_unicast_route_burst_scaled(benchmark, count):
    """200 shortest-path queries over 16 sources against one snapshot: each
    source's memoised traversal grows only to the farthest target asked of it."""
    snapshot = TopologySnapshot(_scaled_positions(count), 350.0)

    def run():
        found = 0
        for query in range(200):
            path = snapshot.shortest_path(query % 16, (query * 37) % count)
            if path is not None:
                found += 1
        return found

    assert benchmark(run) > 0


def test_flood_burst_1000_nodes(benchmark):
    """Repeated TTL-flood reach from a handful of sources (memoised BFS)."""
    snapshot = TopologySnapshot(_scaled_positions(1000), 350.0)

    def run():
        reached = 0
        for query in range(200):
            reached += len(snapshot.bfs_levels(query % 16, max_depth=8))
        return reached

    assert benchmark(run) > 0


def test_has_edge_1000_nodes(benchmark):
    """O(1) link-liveness checks (the CachingRouter validation loop)."""
    snapshot = TopologySnapshot(_scaled_positions(1000), 350.0)

    def run():
        alive = 0
        for query in range(1000):
            if snapshot.has_edge(query, (query * 13 + 7) % 1000):
                alive += 1
        return alive

    benchmark(run)


def test_waypoint_sampling(benchmark):
    """Position queries across 5 simulated hours."""
    terrain = Terrain(1500.0, 1500.0)
    model = RandomWaypoint(terrain, random.Random(1), 1.0, 5.0, 60.0)

    def run():
        total = 0.0
        for t in range(0, 18_000, 10):
            point = model.position(float(t))
            total += point.x
        return total

    benchmark(run)
