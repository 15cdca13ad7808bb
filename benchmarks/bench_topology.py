"""Topology-pipeline benchmarks: incremental refresh vs from-scratch.

Each benchmark walks a :class:`~repro.net.topology.TopologyService` and
its position ledger through a precomputed per-quantum position schedule
(mobility sampling is hoisted out of the timed region — the ledger reads
the schedule back through replay nodes — so the numbers isolate
refresh work):

* **pause-heavy** (200 nodes) — random-waypoint motion with long
  (30-minute) pauses sampled past its initial all-moving transient:
  most quanta move only a handful of nodes, which is exactly the regime
  the incremental delta path (snapshot reuse, copy-on-write patching,
  BFS tree retention) is built for.  A parked node reports a validity
  window to the end of its pause, as waypoint models do in real runs,
  so the ledger does not re-sample it.  (From
  ``soa.ARRAY_REFRESH_MIN_NODES`` peers on no refresh patches, so there
  is no larger pause-heavy pair.)
* **churn-heavy** (200 nodes) — every node teleports every quantum, so
  each refresh exceeds the delta threshold and falls back to the
  from-scratch build.  The incremental arm must stay within ~10% of the
  plain rebuild: the diff is the only extra cost.

``run_bench.py --suite topology`` gates all four timings against
``BENCH_topology.json`` and derives the speedup/overhead ratios into the
baseline metadata via :func:`topology_speedups`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net import soa
from repro.net.topology import TopologyService

RADIO_RANGE = 350.0
TICKS = 60
PAUSE = 1800.0

#: Schedules are expensive to sample (12k waypoint positions), so they
#: are built once per process and shared by both arms.
_SCHEDULES: Dict[str, List[Dict[int, Point]]] = {}


def _scaled_terrain(count: int) -> Terrain:
    """Terrain at the paper's density (50 nodes per 1500 m square)."""
    side = 1500.0 * math.sqrt(count / 50.0)
    return Terrain(side, side)


def pause_heavy_schedule(count: int, seed: int = 7) -> List[Dict[int, Point]]:
    """Per-quantum positions of ``count`` pause-heavy waypoint nodes.

    Legs take ~100 s at 30-50 m/s across the scaled terrain while pauses
    last ``PAUSE`` (1800) s, so a node is parked ~95% of the time.  Every
    model starts a leg at t=0, which would keep the population travelling
    in synchronized waves; a random per-node phase offset staggers the
    cycles so each quantum sees the steady-state mover fraction instead
    (the fraction is asserted by the benchmark tests: it must stay under
    the patch threshold).  During a pause the model returns the same
    ``Point`` object every sample, which is how the replay nodes tell a
    parked node from a moving one.
    """
    key = f"pause_{count}"
    if key not in _SCHEDULES:
        terrain = _scaled_terrain(count)
        rng = random.Random(seed)
        models = [
            RandomWaypoint(
                terrain,
                random.Random(seed * 10_000 + i),
                speed_min=30.0,
                speed_max=50.0,
                pause_time=PAUSE,
            )
            for i in range(count)
        ]
        # Offsets span several full travel+pause cycles so sampling lands
        # uniformly across each node's cycle, not on the t=0 wave.
        base = 3.0 * (PAUSE + 100.0)
        phases = [base + rng.uniform(0.0, base) for _ in range(count)]
        _SCHEDULES[key] = [
            {
                i: model.position(phases[i] + tick)
                for i, model in enumerate(models)
            }
            for tick in range(TICKS)
        ]
    return _SCHEDULES[key]


def churn_heavy_schedule(count: int, seed: int = 11) -> List[Dict[int, Point]]:
    """Worst case for the delta path: every node teleports every quantum."""
    key = f"churn_{count}"
    if key not in _SCHEDULES:
        terrain = _scaled_terrain(count)
        rng = random.Random(seed)
        _SCHEDULES[key] = [
            {i: terrain.random_point(rng) for i in range(count)}
            for _ in range(TICKS)
        ]
    return _SCHEDULES[key]


class _ReplayNode:
    """One node's column of a schedule, behind the ledger's node contract.

    ``position_valid_until`` reports the last tick the current ``Point``
    object is still the scheduled one: the window a mobility model
    would report for a pause.
    """

    online = True

    def __init__(self, node_id: int, column: List[Point], clock: Dict[str, float]):
        self.node_id = node_id
        self._column = column
        self._clock = clock
        self._valid = [float(len(column) - 1)] * len(column)
        for tick in range(len(column) - 2, -1, -1):
            if column[tick + 1] is not column[tick]:
                self._valid[tick] = float(tick)
            else:
                self._valid[tick] = self._valid[tick + 1]

    def current_position(self) -> Point:
        return self._column[int(self._clock["t"])]

    def position_valid_until(self) -> float:
        return self._valid[int(self._clock["t"])]


def _make_refresh_bench(
    schedule: List[Dict[int, Point]], incremental: bool
) -> Callable[[], None]:
    """One iteration = a fresh ledger and service walking every quantum.

    Pure refresh cost: the per-quantum query mix is covered by the kernel
    suite (route/flood bursts); here the two arms isolate what building
    each quantum's snapshot costs with and without the delta pipeline.
    """
    clock = {"t": 0.0}
    nodes = [
        _ReplayNode(node, [row[node] for row in schedule], clock)
        for node in schedule[0]
    ]

    def run() -> None:
        clock["t"] = 0.0
        ledger = soa.SoAPositionLedger()
        for node in nodes:
            ledger.add(node)
        service = TopologyService(lambda: clock["t"], ledger, RADIO_RANGE)
        service.incremental = incremental
        for tick in range(len(schedule)):
            clock["t"] = float(tick)
            service.current()

    return run


def topology_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated topology benchmark."""
    pause_200 = pause_heavy_schedule(200)
    churn_200 = churn_heavy_schedule(200)
    return [
        ("pause_fresh_200", _make_refresh_bench(pause_200, incremental=False)),
        ("pause_incremental_200", _make_refresh_bench(pause_200, incremental=True)),
        ("churn_fresh_200", _make_refresh_bench(churn_200, incremental=False)),
        ("churn_incremental_200", _make_refresh_bench(churn_200, incremental=True)),
    ]


def topology_speedups(results: Dict[str, float]) -> Dict[str, float]:
    """Derive incremental speedups (and churn overhead) from the timings."""
    ratios: Dict[str, float] = {}
    fresh = results.get("pause_fresh_200")
    patched = results.get("pause_incremental_200")
    if fresh and patched:
        ratios["pause_speedup_200"] = fresh / patched
    fresh = results.get("churn_fresh_200")
    patched = results.get("churn_incremental_200")
    if fresh and patched:
        # > 1.0 means the delta detection overhead slowed the worst case.
        ratios["churn_overhead"] = patched / fresh
    return ratios
