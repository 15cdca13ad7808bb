"""One clock closes every host's coefficient period — and nothing shows.

Every host shares the period ``phi`` and its phase, so a world arms one
``PeriodicTimer`` that walks its hosts in registration order
(``Simulation._close_periods``).  Hypothesis holds that to
``tests/oracle.py``'s start-up arming with one period timer per host:
the same trace (byte for byte as JSONL), metrics, relay and traffic
samples, coefficients, batteries and RPCC relay index, under churn and a
fault plan that crashes and reboots hosts on period boundaries.  ``phi``
is drawn to tie with the 60 s samplers and the TTN timers, and to fall
off every other grid.
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
from tests.oracle import arm_period_timer_per_host
# The second run of a pair draws its ``*_id`` values from process-global
# counters that the first one advanced: compare them renumbered.
from tests.test_golden_e2e import _renumbered, _trace_bytes

TTN = SimulationConfig().ttn


def _plan(phi: float) -> FaultPlan:
    return FaultPlan(
        faults=(
            Crash(node=1, at=phi, down_for=phi, wipe_cache=True),
            Crash(node=3, at=2 * phi, down_for=phi),
        ),
        name="period-boundary-crashes",
    )


def _run(config: SimulationConfig, spec: str, reference: bool):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    simulation = build_simulation(config, spec, "standard", trace=bus)
    if reference:
        simulation._arm = functools.partial(arm_period_timer_per_host, simulation)
    result = simulation.run()
    bus.close()
    hosts = list(simulation.hosts.values())
    relays = getattr(simulation.strategy, "relays", {})
    return {
        # repr tells every float bit apart, NaN and -0.0 included.
        "summary": repr(dataclasses.asdict(result.summary)),
        "relay_samples": result.relay_samples,
        "traffic": (result.traffic_series.times, result.traffic_series.values),
        "trackers": [
            (host.tracker.periods_closed, host.tracker.car, host.tracker.cs, host.tracker.ce)
            for host in hosts
        ],
        "batteries": [(host.battery.level, host.battery.total_consumed) for host in hosts],
        "relays": {item: sorted(members) for item, members in relays.items()},
        "trace": _trace_bytes(_renumbered(sink.events)),
        "events": result.events_processed,
        "hosts": len(hosts),
    }


@settings(max_examples=25, deadline=None)
# Relays change at ticks that tie with the samplers here, so a clock armed
# in the wrong place or walking the hosts out of order fails whatever
# hypothesis draws besides.
@example(spec="rpcc-hy", phi=60.0, n_peers=8, churn=False, faulted=True, warmed=False, seed=1)
@example(spec="rpcc-hy", phi=60.0, n_peers=5, churn=False, faulted=False, warmed=False, seed=0)
@given(
    spec=st.sampled_from(("pull", "push", "rpcc-hy", "rpcc-random-selection-hy")),
    phi=st.sampled_from((30.0, 60.0, TTN, 47.5)),
    n_peers=st.integers(5, 12),
    churn=st.booleans(),
    faulted=st.booleans(),
    warmed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_one_clock_matches_a_timer_per_host(spec, phi, n_peers, churn, faulted, warmed, seed):
    config = SimulationConfig(
        n_peers=n_peers,
        terrain_width=600.0,
        terrain_height=600.0,
        sim_time=3 * phi,
        warmup=phi if warmed else 0.0,
        switch_interval=phi,
        seed=seed,
        stable_fraction=0.4 if churn else 1.0,
        mean_online=60.0,
        mean_offline=20.0,
        faults=_plan(phi) if faulted else None,
    )
    clock = _run(config, spec, reference=False)
    reference = _run(config, spec, reference=True)
    ticks = clock["trackers"][0][0]
    assert ticks >= 3  # not vacuous: several periods closed
    # The clock is one event per tick where the reference has one per host.
    assert reference["events"] - clock["events"] == (clock["hosts"] - 1) * ticks
    for key in ("summary", "relay_samples", "traffic", "trackers", "batteries", "relays"):
        assert clock[key] == reference[key], key
    assert clock["trace"] == reference["trace"]
