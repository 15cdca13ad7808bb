"""Benches for what needs more than a registered spec to run.

* multi-writer replica consistency (Section 6 direction 3): gossip
  convergence time and cost;
* waypoint vs random-walk mobility.

The strategy variants (``rpcc-controlled-*``, ``rpcc-random-selection-*``,
``push-uir``) are registered specs: ``tests/test_strategy_variants.py``
holds their shapes and ``repro run <spec>`` prints their numbers.
"""

import random

import pytest

from repro.experiments.runner import run_simulation
from repro.extensions.replica import GossipReplication
from repro.metrics.report import format_table
from repro.mobility.stationary import Stationary
from repro.mobility.terrain import Point, Terrain
from repro.net.network import Network
from repro.peers.host import MobileHost
from repro.sim.engine import Simulator


def test_ext_replica_convergence(benchmark):
    """Future work 3: multi-writer replicas converging via gossip."""

    def run():
        sim = Simulator()
        # Deterministic grid placement: convergence needs a connected
        # holder set, so leave nothing to the dart board.
        network = Network(sim, radio_range=320.0)
        terrain = Terrain(600.0, 600.0)
        for node_id, point in enumerate(terrain.grid_points(2, 5)):
            host = MobileHost(node_id, sim, Stationary(point))
            network.register(host)
        replication = GossipReplication(
            sim, network, item_id=0, holders=list(range(10)),
            rng=random.Random(9), gossip_interval=15.0,
        )
        replication.start()
        # Ten conflicting writers at t=0.
        for node_id in range(10):
            replication.write(node_id, 100 + node_id)
        converged_at = None
        while sim.now < 3600.0:
            sim.run_until(sim.now + 15.0)
            if replication.converged():
                converged_at = sim.now
                break
        return replication, converged_at

    replication, converged_at = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"converged after {converged_at:.0f}s simulated, "
          f"{replication.rounds} gossip rounds")
    assert converged_at is not None
    assert replication.distinct_values() == 1


def test_ablation_mobility_model(benchmark, quick_config):
    """Waypoint vs random-walk mobility: do the shapes survive?"""

    def run():
        waypoint = run_simulation(quick_config, "rpcc-sc")
        walk = run_simulation(
            quick_config.with_overrides(mobility="walk"), "rpcc-sc"
        )
        return waypoint, walk

    waypoint, walk = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("mobility", "tx", "latency", "relays", "answered"),
        [
            ("random waypoint", waypoint.summary.transmissions,
             waypoint.summary.mean_latency, waypoint.mean_relay_count,
             waypoint.summary.queries_answered),
            ("random walk", walk.summary.transmissions,
             walk.summary.mean_latency, walk.mean_relay_count,
             walk.summary.queries_answered),
        ],
        title="Ablation: mobility model",
    ))
    for result in (waypoint, walk):
        assert result.summary.queries_answered > 0
        assert result.mean_relay_count > 0
