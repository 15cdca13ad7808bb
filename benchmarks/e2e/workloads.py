"""The five benchmark workloads, restated here rather than imported.

A workload is the keyword arguments of one ``SimulationConfig`` plus the
strategy spec and placement scenario handed to ``build_simulation``.
This module imports nothing from ``repro``: the parent process only
generates inputs, the child builds the objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: One common factor on every ``sim_time`` of ISSUE 11's table, so that
#: the driver's 114 runs (>= 5 repeats each) fit its 57-minute budget on
#: a box that is at times 2x slower than when the table was measured.
SIM_TIME_FACTOR = 0.25

#: ``--smoke`` divides every ``sim_time`` by this.
SMOKE_DIVISOR = 20.0

SCALE_PEERS = 10_000

#: ``SimulationConfig.warmup`` where a workload does not override it.
TABLE1_WARMUP_S = 600.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: str
    scenario: str
    #: ``sim_time`` before :data:`SIM_TIME_FACTOR` (the issue's value).
    full_sim_time: float
    #: Non-default ``SimulationConfig`` fields other than seed/sim_time.
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Run with a JSONL trace sink and replay the file through the checker.
    traced: bool = False

    def sim_time(self, smoke: bool = False) -> float:
        scaled = self.full_sim_time * SIM_TIME_FACTOR
        return scaled / SMOKE_DIVISOR if smoke else scaled

    def simulated_seconds(self, smoke: bool = False) -> float:
        """Warm-up plus measured window: what ``Simulation.run()`` covers."""
        return dict(self.overrides).get("warmup", TABLE1_WARMUP_S) + self.sim_time(smoke)

    def config_kwargs(self, seed: int, smoke: bool = False) -> Dict[str, Any]:
        """``SimulationConfig(**kwargs)`` for this workload at ``seed``."""
        kwargs = dict(self.overrides)
        kwargs["seed"] = seed
        kwargs["sim_time"] = self.sim_time(smoke)
        return kwargs


def _scale_overrides(stable_fraction: float) -> Tuple[Tuple[str, Any], ...]:
    # The paper's density (50 peers per 1500 m square) at 10k peers;
    # long RPCC timers and sparse queries keep the protocol near idle so
    # the per-quantum topology work is what the run measures.
    side = 1500.0 * math.sqrt(SCALE_PEERS / 50.0)
    return (
        ("n_peers", SCALE_PEERS),
        ("terrain_width", side),
        ("terrain_height", side),
        ("mobility", "walk"),
        ("stable_fraction", stable_fraction),
        ("warmup", 0.0),
        ("ttn", 3600.0),
        ("ttr", 2700.0),
        ("ttp", 7200.0),
        ("query_interval", float(SCALE_PEERS)),
        ("update_interval", 1000.0),
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="paper50-rpcc",
        why="Table 1 world (50 peers, waypoint) under RPCC: unicast-heavy, no "
            "layer dominates; what a figure campaign multiplies by hundreds",
        spec="rpcc-hy",
        scenario="standard",
        full_sim_time=3600.0,
    ),
    Workload(
        name="paper50-pull",
        why="same world under pull: read-driven TTL-8 floods, so flood fan-out "
            "and bfs_levels dominate and the relay machinery is idle",
        spec="pull",
        scenario="standard",
        full_sim_time=3600.0,
    ),
    Workload(
        name="scale10k-walk",
        why="10k walkers, all move every quantum: every refresh is a from-"
            "scratch build_csr; world construction rivals the run",
        spec="rpcc-hy",
        scenario="single_source",
        full_sim_time=120.0,
        overrides=_scale_overrides(0.1),
    ),
    Workload(
        name="scale10k-sparse",
        why="10k peers, 10 % movers: every refresh goes through from_delta and "
            "dict BFS and bypasses build_csr",
        spec="rpcc-hy",
        scenario="single_source",
        full_sim_time=30.0,
        overrides=_scale_overrides(0.9),
    ),
    Workload(
        name="trace50",
        why="paper50-rpcc with a JSONL trace sink and checker replay from the "
            "file: what `repro trace` costs end to end",
        spec="rpcc-hy",
        scenario="standard",
        full_sim_time=3600.0,
        traced=True,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
