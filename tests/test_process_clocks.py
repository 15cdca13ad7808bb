"""One clock per process kind runs every host's arrivals and switches — and
nothing shows.

Every host's query stream, every source's update stream and every
mover's on/off switch ride one clock per kind (``ArrivalClock`` twice,
``SwitchClock`` once).  Hypothesis holds that to ``tests/oracle.py``'s
start-up arming with one heap event per stream and per switch, each
re-armed where its own event re-armed itself: the same trace (byte for
byte as JSONL), metrics, relay and traffic samples, controller decisions
and event count, under churn and a fault plan that crashes and reboots
two hosts.  ``mean_online`` is short enough that most movers flip
several times in the window.  With ``whole_seconds`` the streams and
switches draw their gaps rounded up to whole seconds, so arrivals and
flips of different hosts and kinds tie with each other and with the
timers: then the order in which the clocks are armed decides the run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults.plan import Crash, FaultPlan
from repro.obs import ListSink, TraceBus
from repro.peers import switching as switching_module
from repro.sim.rng import Stream, seeded
from repro.workload import arrivals as arrivals_module
from tests.oracle import arm_processes_per_host
# The second run of a pair draws its ``*_id`` values from process-global
# counters that the first one advanced: compare them renumbered.
from tests.test_golden_e2e import _renumbered, _trace_bytes

SPECS = ("pull", "push", "push-uir", "rpcc-hy", "rpcc-controlled-sc")

PLAN = FaultPlan(
    faults=(
        Crash(node=1, at=90.0, down_for=120.0, wipe_cache=True),
        Crash(node=3, at=240.0, down_for=60.0),
    ),
    name="two-crashes",
)


class _WholeSeconds(Stream):
    """A stream whose exponential gaps are rounded up to whole seconds."""

    __slots__ = ()

    def expovariate(self, lambd: float) -> float:
        return float(math.ceil(super().expovariate(lambd)))


def _whole_seconds(seed: int) -> Stream:
    stream = seeded(seed)
    stream.__class__ = _WholeSeconds
    return stream


def _run(config: SimulationConfig, spec: str, reference: bool):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    simulation = build_simulation(config, spec, "standard", trace=bus)
    if reference:
        simulation._arm = functools.partial(arm_processes_per_host, simulation)
    result = simulation.run()
    bus.close()
    return {
        # repr tells every float bit apart, NaN and -0.0 included.
        "summary": repr(dataclasses.asdict(result.summary)),
        "counts": (result.total_queries, result.total_updates),
        "flips": [
            host.switching.flips for host in simulation.hosts.values() if host.switching
        ],
        "relay_samples": result.relay_samples,
        "traffic": (result.traffic_series.times, result.traffic_series.values),
        "decisions": repr(result.control_decisions),
        "trace": _trace_bytes(_renumbered(sink.events)),
        "events": result.events_processed,
    }


def _pair(spec, n_peers, faulted, controller, seed, whole_seconds=False):
    config = SimulationConfig(
        n_peers=n_peers,
        terrain_width=600.0,
        terrain_height=600.0,
        sim_time=420.0,
        warmup=0.0,
        query_interval=15.0,
        update_interval=40.0,
        seed=seed,
        stable_fraction=0.4,
        mean_online=60.0,
        mean_offline=20.0,
        faults=PLAN if faulted else None,
        controller=controller,
        controller_interval=30.0,
    )
    with mock.patch.object(arrivals_module, "seeded", _whole_seconds if whole_seconds else seeded), \
            mock.patch.object(switching_module, "seeded", _whole_seconds if whole_seconds else seeded):
        clocks = _run(config, spec, reference=False)
        reference = _run(config, spec, reference=True)
    # An arrival or a flip is one event either way: the clocks save heap
    # entries, not events.
    for key in ("summary", "counts", "flips", "relay_samples", "traffic", "decisions", "events"):
        assert clocks[key] == reference[key], key
    assert clocks["trace"] == reference["trace"]
    return clocks


@settings(max_examples=25, deadline=None)
@example(spec="rpcc-hy", n_peers=12, faulted=True, controller=None, seed=0,
         whole_seconds=True)
@example(spec="push", n_peers=8, faulted=True, controller="hysteresis", seed=1,
         whole_seconds=False)
@given(
    spec=st.sampled_from(SPECS),
    n_peers=st.integers(5, 12),
    faulted=st.booleans(),
    controller=st.sampled_from((None, "hysteresis")),
    seed=st.integers(0, 2**16),
    whole_seconds=st.booleans(),
)
def test_clocks_match_an_event_per_process(
    spec, n_peers, faulted, controller, seed, whole_seconds
):
    _pair(spec, n_peers, faulted, controller, seed, whole_seconds)


def test_the_pairs_are_not_vacuous():
    """Queries, updates and flips all happen in a drawn-size world."""
    run = _pair("rpcc-hy", 12, faulted=True, controller=None, seed=0)
    queries, updates = run["counts"]
    assert queries > 100 and updates > 50
    assert sum(run["flips"]) > 20
