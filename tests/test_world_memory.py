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
  every recurring process rides a timer or a clock, so the heap holds
  no plain ``EventHandle`` and no per-host entry (a handful of entries
  in all), and the bytes arming allocates per host are held to their
  own budget.  One clock closes every host's coefficient period, one
  staggered clock ticks every source's TTN, and one clock per kind runs
  the query arrivals, the update arrivals and the on/off switches, so
  arming builds no timer or event per host.
* ``test_the_shared_empty_map_stays_empty`` runs a world of every spec
  and then finds ``EMPTY_MAP``, which every agent's unwritten protocol
  maps share, still empty and still refusing writes.
* ``test_pair_list_build_peaks_near_what_it_keeps`` builds a 10 000-point
  pair list from scratch under ``tracemalloc``: the candidate stage tests
  a block of grid candidates at a time
  (``docs/decisions/19-candidates-a-block-at-a-time.md``), so the build
  peaks at the list it keeps plus one block, not at every candidate.
* ``test_host_bytes_names_still_exist`` keeps ``benchmarks/host_bytes.py``
  from filing bytes by an identifier the code no longer has.

The budgets are CPython 3.11 object sizes (the interpreter CI runs):
what the tree measured when they were set (101 + 2 875 and 43 + 2 478
bytes per host) plus 3 %.  With an event per arrival stream and switch,
a ``partial`` per query stream and a ``{}`` for each of seven protocol
maps per host, the tree read 101 + 3 672 and 43 + 3 185
(``docs/decisions/18-one-clock-per-process-kind.md``); before that
3 680 and 3 194.  With a generator kept per stream the tree
read 7 299 + 3 762 and 3 139 + 3 269: the parked seeds are what is left
of the first figure, and everything else fell although it gained the
first gap or online duration each process draws at build (46 B per
host) and the seed and state slots (45 B), because the registry, with
the 167 B per host of stream names it keys, is no longer kept past the
build.  The arming budget is likewise what arming measured when it was
set (313 and 232 bytes per host, one clock per process kind; with an
event per arrival stream and switch it read 434 and 302, with a
TTN timer per source 697 and 567, before the first gaps were
drawn at build 743 and 594, with a period timer per host 1 109 and 958,
with a handle per armed process too 1 419 and 1 191) plus 3 %.
"""

from __future__ import annotations

import gc
import math
import operator
import pathlib
import re
import tracemalloc
from collections import Counter

import pytest

from benchmarks.bench_scale import SPEC, scale_config
from benchmarks.host_bytes import CALLABLE_NAMES
from repro._np import np
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
from repro.consistency.base import EMPTY_MAP, BaseAgent
from repro.consistency.pull import PullAgent
from repro.consistency.push import PushAgent
from repro.consistency.rpcc.cache_peer import CachePeerSide
from repro.consistency.rpcc.protocol import RPCCAgent
from repro.consistency.rpcc.relay import RelaySide
from repro.consistency.rpcc.roles import RoleTable
from repro.consistency.rpcc.source import SourceSide
from repro.energy.battery import Battery, EnergyCosts
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.subnets import SubnetTracker
from repro.mobility.walk import RandomWalk, _Epoch
from repro.mobility.waypoint import Leg, RandomWaypoint
from repro.net.node import NetworkNode
from repro.net.soa import ArrayPositions, PairList
from repro.peers.coefficients import CoefficientTracker
from repro.peers.host import MobileHost
from repro.peers.switching import SwitchingProcess
from repro.scenarios.registry import strategy_specs
from repro.sim.engine import EventHandle
from repro.sim.rng import Stream
from repro.sim.timers import (
    ArrivalClock,
    CountdownTimer,
    PeriodicTimer,
    StaggeredClock,
    SwitchClock,
)
from repro.workload.arrivals import ExponentialProcess

N_HOSTS = 2_000

#: stable_fraction -> (random streams, everything else) in bytes per host.
BUDGET = {
    0.1: (104, 2_961),
    0.9: (45, 2_552),
}

#: stable_fraction -> bytes per host that arming (``Simulation._arm``) allocates.
ARM_BUDGET = {
    0.1: 322,
    0.9: 239,
}

#: Entries a world's heap may hold after arming: the timers and clocks,
#: none of them per host.
ARMED_HEAP_MAX = 10

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
    PeriodicTimer, StaggeredClock, ArrivalClock, SwitchClock, CountdownTimer,
    EventHandle,
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
    heap = [event for _, _, event in world.sim._heap]
    kinds = Counter(map(type, heap))
    assert kinds[EventHandle] == 0, f"plain handles armed: {kinds[EventHandle]}"
    assert len(heap) <= ARMED_HEAP_MAX, f"{len(heap)} entries armed: {kinds}"
    # One TTN clock for every source, one coefficient clock for the whole
    # world, one clock each for the query streams (one per host), the
    # update streams (the single source's) and the switches (one per mover).
    timers = [event for event in heap if type(event) is PeriodicTimer]
    assert sum(timer._callback == world._close_periods for timer in timers) == 1
    members = {
        kind: sorted(len(event._members) for event in heap if type(event) is kind)
        for kind in (StaggeredClock, ArrivalClock, SwitchClock)
    }
    updates = len(world.update_workload._processes)
    movers = sum(host.switching is not None for host in world.hosts.values())
    assert members[StaggeredClock] == [N_HOSTS]
    assert members[ArrivalClock] == sorted([updates, N_HOSTS]) and updates > 0
    assert members[SwitchClock] == [movers] and movers > 0
    assert set(kinds) <= {PeriodicTimer, StaggeredClock, ArrivalClock, SwitchClock}
    per_host = armed / N_HOSTS
    assert per_host <= ARM_BUDGET[stable_fraction], (
        f"arming allocates {per_host:.0f} B/host "
        f"(budget {ARM_BUDGET[stable_fraction]})"
    )


#: MiB a from-scratch ``PairList.sync`` over 10 000 uniform points at the
#: paper's density may trace above where it started: 1.94 measured when
#: the candidate stage went block by block (of which 0.94 is the list it
#: keeps), plus 10 %.  Expanding every candidate at once peaked at 9.05.
SYNC_PEAK_MIB = 2.15


def test_pair_list_build_peaks_near_what_it_keeps():
    n = 10_000
    side = 1500.0 * math.sqrt(n / 50.0)
    rng = np.random.default_rng(5)
    slots = np.arange(n, dtype=np.int64)
    positions = ArrayPositions(
        slots, rng.uniform(0.0, side, n), rng.uniform(0.0, side, n), slots
    )
    PairList().sync(positions, 350.0)  # lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = PairList()
        pairs.sync(positions, 350.0)
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert pairs.builds == 1
    report = (
        f"a {n}-point pair list build peaks {peak / 2**20:.2f} MiB above its "
        f"start and keeps {kept / 2**20:.2f} (budget {SYNC_PEAK_MIB})"
    )
    assert peak <= SYNC_PEAK_MIB * 2**20, report


def test_host_bytes_names_still_exist():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    text = "\n".join(path.read_text() for path in src.rglob("*.py"))
    gone = [
        name for name in CALLABLE_NAMES
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not gone, f"host_bytes.py files bytes by names src/ lacks: {gone}"


#: Every per-host protocol map that starts as ``EMPTY_MAP``, by the
#: attribute path from an agent.
SHARED_MAPS = (
    "_pending_remote", "relay._ttr", "relay._queued_polls",
    "relay._awaiting_get_new", "cache_peer._pending",
    "cache_peer._known_relay", "roles._roles",
)


def test_the_shared_empty_map_stays_empty():
    config = SimulationConfig(
        n_peers=20, sim_time=600.0, warmup=120.0, seed=3,
        stable_fraction=0.4, mean_online=120.0, mean_offline=30.0,
    )
    written = Counter()
    for spec in strategy_specs():
        world = build_simulation(config, spec, "standard")
        world.run()
        for agent in world.strategy.agents.values():
            for path in SHARED_MAPS:
                try:
                    written[path] += operator.attrgetter(path)(agent) is not EMPTY_MAP
                except AttributeError:  # not an RPCC agent
                    pass
    # Not vacuous: every write site ran somewhere, on its own map.
    assert all(written[path] for path in SHARED_MAPS), written
    assert len(EMPTY_MAP) == 0 and type(EMPTY_MAP) is not dict
    writes = (
        lambda: EMPTY_MAP.__setitem__(1, 2),
        lambda: EMPTY_MAP.setdefault(1, []),
        lambda: EMPTY_MAP.update({1: 2}),
        lambda: EMPTY_MAP.__ior__({1: 2}),
    )
    for write in writes:
        with pytest.raises(TypeError, match="EMPTY_MAP"):
            write()
    assert len(EMPTY_MAP) == 0
