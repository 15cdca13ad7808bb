"""One staggered clock ticks every source's TTN — and nothing shows.

Every source host floods its invalidation report once per TTN, at a
phase staggered by its node id, and a world arms one ``StaggeredClock``
for all of them (RPCC, push and UIR push alike).  Hypothesis holds that
to ``tests/oracle.py``'s start-up arming with one ``PeriodicTimer`` per
source: the same trace (byte for byte as JSONL), metrics, relay and
traffic samples, controller decisions and event count, under churn, a
fault plan that crashes and reboots two hosts, and a controller that
moves the push report interval mid-run.  ``ttn`` is drawn to tie node
0's ticks with the 60 s samplers (120), to fall off every grid (47.5)
and to leave most sources without a tick (3600).
"""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults.plan import Crash, FaultPlan
from repro.obs import ListSink, TraceBus
from tests.oracle import arm_ttn_timer_per_source
# The second run of a pair draws its ``*_id`` values from process-global
# counters that the first one advanced: compare them renumbered.
from tests.test_golden_e2e import _renumbered, _trace_bytes

SPECS = ("rpcc-hy", "push", "push-uir", "rpcc-controlled-sc")

PLAN = FaultPlan(
    faults=(
        Crash(node=1, at=90.0, down_for=120.0, wipe_cache=True),
        Crash(node=3, at=240.0, down_for=60.0),
    ),
    name="two-crashes",
)


def _run(config: SimulationConfig, spec: str, reference: bool):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    simulation = build_simulation(config, spec, "standard", trace=bus)
    if reference:
        simulation._arm = functools.partial(arm_ttn_timer_per_source, simulation)
    result = simulation.run()
    bus.close()
    relays = getattr(simulation.strategy, "relays", {})
    return {
        # repr tells every float bit apart, NaN and -0.0 included.
        "summary": repr(dataclasses.asdict(result.summary)),
        "relay_samples": result.relay_samples,
        "traffic": (result.traffic_series.times, result.traffic_series.values),
        "decisions": repr(result.control_decisions),
        "ttn_moved_at": [
            decision["time"] for decision in result.control_decisions
            if "ttn" in decision["applied"]
        ],
        "relays": {item: sorted(members) for item, members in relays.items()},
        "trace": _trace_bytes(_renumbered(sink.events)),
        "events": result.events_processed,
    }


def _pair(spec, ttn, n_peers, churn, faulted, controller, seed):
    config = SimulationConfig(
        n_peers=n_peers,
        terrain_width=600.0,
        terrain_height=600.0,
        sim_time=420.0,
        warmup=0.0,
        ttn=ttn,
        seed=seed,
        stable_fraction=0.4 if churn else 1.0,
        mean_online=60.0,
        mean_offline=20.0,
        faults=PLAN if faulted else None,
        controller=controller,
        controller_interval=30.0,
    )
    clock = _run(config, spec, reference=False)
    reference = _run(config, spec, reference=True)
    # A tick is one event either way: the clock saves heap entries, not events.
    for key in ("summary", "relay_samples", "traffic", "decisions", "relays", "events"):
        assert clock[key] == reference[key], key
    assert clock["trace"] == reference["trace"]
    return clock


@settings(max_examples=25, deadline=None)
# Node 0 ticks with the samplers, and the controller moves the interval.
@example(spec="push", ttn=120.0, n_peers=8, churn=False, faulted=True,
         controller="hysteresis", seed=1)
@example(spec="rpcc-hy", ttn=120.0, n_peers=5, churn=True, faulted=False,
         controller=None, seed=0)
@given(
    spec=st.sampled_from(SPECS),
    ttn=st.sampled_from((120.0, 47.5, 3600.0)),
    n_peers=st.integers(5, 12),
    churn=st.booleans(),
    faulted=st.booleans(),
    controller=st.sampled_from((None, "hysteresis")),
    seed=st.integers(0, 2**16),
)
def test_one_clock_matches_a_timer_per_source(
    spec, ttn, n_peers, churn, faulted, controller, seed
):
    _pair(spec, ttn, n_peers, churn, faulted, controller, seed)


def test_an_actuated_ttn_moves_every_source_alike():
    """Not vacuous: the controller moves ``ttn`` early enough in a push
    world that every source re-arms under the new interval."""
    for spec in ("push", "push-uir"):
        run = _pair(spec, 120.0, 8, churn=False, faulted=True,
                    controller="hysteresis", seed=1)
        assert run["ttn_moved_at"] and run["ttn_moved_at"][0] < 420.0 - 120.0, spec
