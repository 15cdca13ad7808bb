"""The scale world: the per-quantum core at 1k to 100k peers.

One configuration, shared by the 100k smoke (``smoke_scale.py``), the
start-up and memory breakdowns (``startup_cost.py``, ``host_bytes.py``)
and ``tests/test_world_memory.py``.  The end-to-end ledger
(``benchmarks/e2e``, the ``scale10k-*`` rows) times runs of this regime.

The configuration is chosen to keep the run phase topology-dominated —
the regime the paper's larger deployments live in:

* random-walk mobility resamples every node each epoch, so every quantum
  rebuilds the snapshot (the mobility + adjacency hot loop is what
  scales with n);
* the ``single_source`` scenario keeps setup O(n) and the protocol load
  light (one update source, sparse queries), so protocol handlers do not
  drown the per-quantum core being measured;
* long RPCC timers (TTN/TTR/TTP) keep invalidation floods rare for the
  same reason.
"""

from __future__ import annotations

import math

from repro.experiments.config import SimulationConfig

SPEC = "rpcc-hy"
SIM_TIME = 30.0


def scale_config(n_peers: int, sim_time: float = SIM_TIME) -> SimulationConfig:
    """The topology-dominated scaling configuration at ``n_peers``.

    Terrain grows with ``sqrt(n)`` to hold the paper's density (50 nodes
    per 1500 m square), so per-node degree — and therefore per-quantum
    adjacency work — stays comparable across scales.
    """
    side = 1500.0 * math.sqrt(n_peers / 50.0)
    return SimulationConfig(
        n_peers=n_peers,
        terrain_width=side,
        terrain_height=side,
        sim_time=sim_time,
        warmup=0.0,
        seed=7,
        mobility="walk",
        stable_fraction=0.1,
        ttn=3600.0,
        ttr=2700.0,
        ttp=7200.0,
        query_interval=float(n_peers),
        update_interval=1000.0,
    )
