"""What a host costs: a byte budget per host, and no ``__dict__`` per host.

A world is mostly per-host objects, so its memory is ``hosts x bytes per
host`` and the second factor is a design property: one class that keeps
an instance ``__dict__``, one closure or one empty ``set()`` per host
moves it by hundreds of bytes, at 10 000 hosts by megabytes.  DESIGN.md
("What a host costs") has the table by component; this file is its gate.

* ``test_bytes_per_host_within_budget`` builds a 2 000-host walk world
  under ``tracemalloc`` and holds the live bytes per host to the
  committed budget, the random streams (whose size the golden digests
  lock: three Mersenne Twisters per mobile host) apart from everything
  else (which is the code's to shrink).
* ``test_no_populous_type_carries_a_dict`` is the structural twin: any
  ``repro.*`` type with more live instances than half the hosts either
  has no instance ``__dict__`` or is on the allow-list with its reason —
  so the next per-host class cannot quietly undo this.
* ``test_per_host_classes_are_slotted`` names every class that exists
  once per host, stream, timer or cached copy in *some* shipped world
  (the census only sees the classes of the one it builds).

The budgets are CPython 3.11 object sizes (the interpreter CI runs):
what the tree measured when they were set (7 299 + 3 709 and
3 139 + 3 242 bytes per host; the commit before read 13 878 and 10 997
in total) plus 3 %.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

import pytest

from benchmarks.bench_scale import SPEC, scale_config
from repro.cache.directory import _StoreBinding
from repro.cache.item import CachedCopy, MasterCopy
from repro.cache.replacement import (
    CachePolicy,
    FIFOPolicy,
    LFUPolicy,
    LRUKPolicy,
    LRUPolicy,
    SizeUtilityPolicy,
    TTLValuePolicy,
)
from repro.cache.store import CacheStore
from repro.consistency.base import BaseAgent
from repro.consistency.pull import PullAgent
from repro.consistency.push import PushAgent
from repro.consistency.rpcc.cache_peer import CachePeerSide
from repro.consistency.rpcc.protocol import RPCCAgent
from repro.consistency.rpcc.relay import RelaySide
from repro.consistency.rpcc.roles import RoleTable
from repro.consistency.rpcc.source import SourceSide
from repro.energy.battery import Battery, EnergyCosts
from repro.experiments.runner import build_simulation
from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.subnets import SubnetTracker
from repro.mobility.walk import RandomWalk, _Epoch
from repro.mobility.waypoint import Leg, RandomWaypoint
from repro.net.node import NetworkNode
from repro.peers.coefficients import CoefficientTracker
from repro.peers.host import MobileHost
from repro.peers.switching import SwitchingProcess
from repro.sim.engine import EventHandle
from repro.sim.rng import Stream
from repro.sim.timers import CountdownTimer, PeriodicTimer
from repro.workload.arrivals import ExponentialProcess

N_HOSTS = 2_000

#: stable_fraction -> (random streams, everything else) in bytes per host.
BUDGET = {
    0.1: (7_518, 3_820),
    0.9: (3_233, 3_339),
}

#: Populous ``repro.*`` types that may keep an instance ``__dict__``.
DICT_ALLOWED = {
    Stream: "random.Random's layout reserves the dict pointer; gauss_next "
            "is a slot, so the dict is never created (test_sim_rng pins that)",
}

SLOTTED = (
    NetworkNode, MobileHost, Battery, EnergyCosts, CacheStore, MasterCopy,
    CachedCopy, _StoreBinding,
    CachePolicy, LRUPolicy, LFUPolicy, FIFOPolicy, TTLValuePolicy,
    SizeUtilityPolicy, LRUKPolicy,
    CoefficientTracker, SubnetTracker, SwitchingProcess, ExponentialProcess,
    MobilityModel, Stationary, PiecewiseLinear, RandomWalk, RandomWaypoint,
    _Epoch, Leg,
    PeriodicTimer, CountdownTimer, EventHandle,
    BaseAgent, PushAgent, PullAgent, RPCCAgent,
    RoleTable, SourceSide, RelaySide, CachePeerSide,
)


def _world(stable_fraction: float, n_hosts: int = N_HOSTS):
    """The scale benchmark's world (paper density, near-idle protocol)."""
    config = scale_config(n_hosts).with_overrides(stable_fraction=stable_fraction)
    return build_simulation(config, SPEC, "single_source")


@pytest.fixture(scope="module", autouse=True)
def _imports_done():
    """One throwaway build: lazy imports must not be billed to a host."""
    _world(0.5, n_hosts=10)


@pytest.mark.parametrize("stable_fraction", sorted(BUDGET))
def test_bytes_per_host_within_budget(stable_fraction):
    # Free an earlier test's unrun (still frozen) world before tracing, not
    # inside the traced build.
    gc.unfreeze()
    gc.collect()
    tracemalloc.start()
    try:
        world = _world(stable_fraction)
        gc.collect()
        by_file = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    assert len(world.hosts) == N_HOSTS
    streams = sum(
        stat.size for stat in by_file
        if stat.traceback[0].filename.endswith("sim/rng.py")
    )
    rest = sum(stat.size for stat in by_file) - streams
    streams_budget, rest_budget = BUDGET[stable_fraction]
    report = (
        f"{N_HOSTS} hosts, stable_fraction {stable_fraction}: "
        f"random streams {streams / N_HOSTS:.0f} B/host (budget {streams_budget}), "
        f"everything else {rest / N_HOSTS:.0f} B/host (budget {rest_budget})"
    )
    assert streams / N_HOSTS <= streams_budget, report
    assert rest / N_HOSTS <= rest_budget, report


@pytest.mark.parametrize("stable_fraction", sorted(BUDGET))
def test_no_populous_type_carries_a_dict(stable_fraction):
    world = _world(stable_fraction)
    # A built world is frozen out of the collector's generations, where
    # gc.get_objects() does not look.
    gc.unfreeze()
    census = Counter(map(type, gc.get_objects()))
    assert census[MobileHost] >= N_HOSTS  # the census sees this world
    offenders = sorted(
        f"{kind.__module__}.{kind.__qualname__} ({count} instances)"
        for kind, count in census.items()
        if count > N_HOSTS / 2
        and str(kind.__module__).startswith("repro.")
        and kind.__dictoffset__ != 0
        and kind not in DICT_ALLOWED
    )
    assert not offenders, (
        "a type with one instance per host (or more) keeps an instance "
        f"__dict__; give it __slots__ or an allow-list reason: {offenders}"
    )
    del world


@pytest.mark.parametrize("kind", SLOTTED, ids=lambda kind: kind.__qualname__)
def test_per_host_classes_are_slotted(kind):
    assert kind.__dictoffset__ == 0, f"{kind.__qualname__} instances carry a __dict__"
