"""What a host costs: a byte budget per host, and no ``__dict__`` per host.

A world is mostly per-host objects, so its memory is ``hosts x bytes per
host`` and the second factor is a design property: one class that keeps
an instance ``__dict__``, one closure or one empty ``set()`` per host
moves it by hundreds of bytes, at 10 000 hosts by megabytes.
``docs/decisions/09-one-period-clock.md`` ("What a host costs") has the
table by component; this file is its gate.

* ``test_bytes_per_host_within_budget`` builds a 2 000-host walk world
  under ``tracemalloc`` and holds the live bytes per host to the
  committed budget, the random streams apart from everything else.  A
  built world holds no Mersenne Twister per host: each host's streams
  are parked, kept as their seeds, until they draw after the build
  (``docs/decisions/16-streams-held-while-drawn.md``), so what stays
  under ``sim/rng.py`` is one seed per parked stream.
* ``test_no_populous_type_carries_a_dict`` is the structural twin: any
  ``repro.*`` type with more live instances than half the hosts either
  has no instance ``__dict__`` or is on the allow-list with its reason —
  so the next per-host class cannot quietly undo this.
* ``test_per_host_classes_are_slotted`` names every class that exists
  once per host, stream, timer or cached copy in *some* shipped world
  (the census only sees the classes of the one it builds).
* ``test_arming_allocates_no_handle_per_process`` arms a built world:
  every recurring process (timer, arrival stream, on/off switch) is its
  own heap event, so the heap holds no plain ``EventHandle``, and the
  bytes arming allocates per host are held to their own budget.  One
  clock closes every host's coefficient period and one staggered clock
  ticks every source's TTN, so arming builds no period or TTN timer per
  host.
* ``test_host_bytes_names_still_exist`` keeps ``benchmarks/host_bytes.py``
  from filing bytes by an identifier the code no longer has.

The budgets are CPython 3.11 object sizes (the interpreter CI runs):
what the tree measured when they were set (101 + 3 680 and 43 + 3 194
bytes per host) plus 3 %.  With a generator kept per stream the tree
read 7 299 + 3 762 and 3 139 + 3 269: the parked seeds are what is left
of the first figure, and everything else fell although it gained the
first gap or online duration each process draws at build (46 B per
host) and the seed and state slots (45 B), because the registry, with
the 167 B per host of stream names it keys, is no longer kept past the
build.  The arming budget is likewise what arming measured when it was
set (434 and 302 bytes per host, one TTN clock for every source; with a
TTN timer per source it read 697 and 567, before the first gaps were
drawn at build 743 and 594, with a period timer per host 1 109 and 958,
with a handle per armed process too 1 419 and 1 191) plus 3 %.
"""

from __future__ import annotations

import gc
import pathlib
import re
import tracemalloc
from collections import Counter

import pytest

from benchmarks.bench_scale import SPEC, scale_config
from benchmarks.host_bytes import CALLABLE_NAMES
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
from repro.sim.timers import CountdownTimer, PeriodicTimer, StaggeredClock
from repro.workload.arrivals import ExponentialProcess

N_HOSTS = 2_000

#: stable_fraction -> (random streams, everything else) in bytes per host.
BUDGET = {
    0.1: (104, 3_790),
    0.9: (45, 3_289),
}

#: stable_fraction -> bytes per host that arming (``Simulation._arm``) allocates.
ARM_BUDGET = {
    0.1: 447,
    0.9: 311,
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
    PeriodicTimer, StaggeredClock, CountdownTimer, EventHandle,
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


@pytest.mark.parametrize("stable_fraction", sorted(ARM_BUDGET))
def test_arming_allocates_no_handle_per_process(stable_fraction):
    world = _world(stable_fraction)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world._arm()
        armed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kinds = Counter(type(event) for _, _, event in world.sim._heap)
    assert kinds[EventHandle] == 0, f"plain handles armed: {kinds[EventHandle]}"
    # One TTN clock for every source, one coefficient clock for the whole
    # world, a query stream per host, a switch per mover.
    timers = [event for _, _, event in world.sim._heap if type(event) is PeriodicTimer]
    assert sum(timer._callback == world._close_periods for timer in timers) == 1
    clocks = [event for _, _, event in world.sim._heap if type(event) is StaggeredClock]
    assert len(clocks) == 1 and len(clocks[0]._members) >= N_HOSTS
    assert kinds[ExponentialProcess] > N_HOSTS
    assert kinds[SwitchingProcess] > 0
    per_host = armed / N_HOSTS
    assert per_host <= ARM_BUDGET[stable_fraction], (
        f"arming allocates {per_host:.0f} B/host "
        f"(budget {ARM_BUDGET[stable_fraction]})"
    )


def test_host_bytes_names_still_exist():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    text = "\n".join(path.read_text() for path in src.rglob("*.py"))
    gone = [
        name for name in CALLABLE_NAMES
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not gone, f"host_bytes.py files bytes by names src/ lacks: {gone}"
