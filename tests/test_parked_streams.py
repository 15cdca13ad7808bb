"""Parked streams draw what eager generators draw.

A host's arrival, switching and mobility streams are handed out by
:meth:`RandomStreams.parked`: the consumer makes its build-time draws
from ``seeded(seed)``, drops that generator, and on its next draw
rebuilds it from the seed and repeats the same calls
(``docs/decisions/16-streams-held-while-drawn.md``).  Each test here
holds one consumer to an eager ``random.Random(derive_seed(seed, name))``
that draws the same sequence in one go: event times, epochs, legs and
the generator's final state must be equal, over a drawn number of
arrivals, flips, epochs or legs — none included, where the consumer must
never have resumed.

``test_live_streams_are_the_resumed_consumers`` is the run-level twin:
after a 30 s run, a 2 000-host walk world holds exactly as many live
:class:`Stream` objects as consumers that resumed.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
from typing import List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_scale import SPEC, scale_config
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import TRACE_SAMPLE_INTERVAL, build_simulation
from repro.mobility.stationary import PiecewiseLinear
from repro.mobility.terrain import Point, Terrain
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import Leg, RandomWaypoint
from repro.peers import switching as switching_module
from repro.peers.switching import SwitchingProcess
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, Stream, derive_seed
from repro.sim.timers import ArrivalClock, SwitchClock
from repro.workload.arrivals import ExponentialProcess

_ROOTS = st.integers(min_value=0, max_value=2**40)
_NAMES = st.sampled_from(["query/3", "update/0", "switch/17", "mobility/42"])
_MEANS = st.floats(min_value=0.01, max_value=1e4)
_COUNTS = st.integers(min_value=0, max_value=25)
TERRAIN = Terrain(1500.0, 900.0)
_STARTS = st.one_of(
    st.none(),
    st.builds(
        Point,
        st.floats(min_value=0.0, max_value=TERRAIN.width),
        st.floats(min_value=0.0, max_value=TERRAIN.height),
    ),
)


def _eager(root: int, name: str) -> random.Random:
    return random.Random(derive_seed(root, name))


@settings(max_examples=100, deadline=None)
@given(
    root=_ROOTS,
    name=_NAMES,
    mean=_MEANS,
    arrivals=_COUNTS,
    extra=st.integers(min_value=0, max_value=3),
)
def test_exponential_process_draws_what_an_eager_stream_draws(
    root, name, mean, arrivals, extra
):
    """Gaps, and the draws a query makes from the live stream after each
    arrival (as ``QueryWorkload._issue`` does), interleave as in one
    eager generator."""
    sim = Simulator()
    times: List[float] = []
    drawn: List[float] = []

    def on_arrival():
        times.append(sim.now)
        drawn.extend(process.stream.random() for _ in range(extra))

    process = ExponentialProcess(RandomStreams(root).parked(name), mean)
    clock = ArrivalClock(sim, lambda member: on_arrival())
    clock.start([process])
    clock.start([process])  # idempotent: the build-time gap is used once
    sim.run(max_events=arrivals)

    reference = _eager(root, name)
    now, expected_times, expected_drawn = 0.0, [], []
    now += reference.expovariate(1.0 / mean)
    for _ in range(arrivals):
        expected_times.append(now)
        now += reference.expovariate(1.0 / mean)
        expected_drawn.extend(reference.random() for _ in range(extra))
    assert times == expected_times
    assert drawn == expected_drawn
    assert (process._rng is not None) == (arrivals > 0)
    if arrivals:
        assert process.stream.getstate() == reference.getstate()


@settings(max_examples=100, deadline=None)
@given(
    root=_ROOTS,
    name=_NAMES,
    mean_online=st.one_of(_MEANS, st.just(math.inf)),
    mean_offline=_MEANS,
    flips=_COUNTS,
)
def test_switching_process_draws_what_an_eager_stream_draws(
    root, name, mean_online, mean_offline, flips
):
    sim = Simulator()
    seen: List[tuple] = []
    real_seeded = switching_module.seeded
    with mock.patch.object(switching_module, "seeded", side_effect=real_seeded) as seeded:
        process = SwitchingProcess(RandomStreams(root).parked(name), mean_online, mean_offline)
        clock = SwitchClock(sim, lambda member: seen.append((sim.now, member.online)))
        clock.start([process])
        clock.start([process])
        sim.run(max_events=flips)
    if math.isinf(mean_online):
        # A stable host draws nothing, at build or ever.
        assert seeded.call_count == 0
        assert seen == [] and sim.pending_events == 0
        return
    reference = _eager(root, name)
    now, online, expected = 0.0, True, []
    now += reference.expovariate(1.0 / mean_online)
    for _ in range(flips):
        online = not online
        expected.append((now, online))
        now += reference.expovariate(1.0 / (mean_online if online else mean_offline))
    assert seen == expected
    assert seeded.call_count == (2 if flips else 1)
    if flips:
        assert process.stream.getstate() == reference.getstate()
    else:
        assert process._rng is None


def _reference_origin(reference: random.Random, start):
    return start if start is not None else TERRAIN.random_point(reference)


@settings(max_examples=100, deadline=None)
@given(root=_ROOTS, name=_NAMES, start=_STARTS, until=st.floats(0.0, 400.0))
def test_random_walk_draws_what_an_eager_stream_draws(root, name, start, until):
    """Origin (unless given), then angle and speed per epoch."""
    model = RandomWalk(TERRAIN, RandomStreams(root).parked(name), 1.0, 19.0, 30.0, start)
    model.position(until)
    epochs = model._epochs
    reference = _eager(root, name)
    assert epochs[0].origin == _reference_origin(reference, start)
    for epoch in epochs:
        angle = reference.uniform(0.0, 2.0 * math.pi)
        speed = reference.uniform(1.0, 19.0)
        assert (epoch.velocity_x, epoch.velocity_y) == (
            speed * math.cos(angle),
            speed * math.sin(angle),
        )
    assert (model._rng is not None) == (len(epochs) > 1)
    assert model.stream.getstate() == reference.getstate()


def _reference_legs(
    reference: random.Random, terrain: Terrain, origin: Point, until: float,
    speed_min: float, speed_max: float, pause: float,
) -> List[Leg]:
    """Waypoint legs from ``origin`` until one ends after ``until``."""
    legs: List[Leg] = []
    start_time = 0.0
    while not legs or legs[-1].end_time <= until:
        destination = terrain.random_point(reference)
        speed = reference.uniform(speed_min, speed_max)
        arrive = start_time + origin.distance_to(destination) / speed
        legs.append(Leg(start_time, arrive, arrive + pause, origin, destination))
        start_time, origin = arrive + pause, destination
    return legs


@settings(max_examples=100, deadline=None)
@given(root=_ROOTS, name=_NAMES, start=_STARTS, until=st.floats(0.0, 1000.0))
def test_random_waypoint_draws_what_an_eager_stream_draws(root, name, start, until):
    model = RandomWaypoint(TERRAIN, RandomStreams(root).parked(name), 1.0, 19.0, 10.0, start)
    model.position(until)
    reference = _eager(root, name)
    origin = _reference_origin(reference, start)
    assert model._legs == _reference_legs(reference, TERRAIN, origin, until, 1.0, 19.0, 10.0)
    assert (model._rng is not None) == (len(model._legs) > 1)
    assert model.stream.getstate() == reference.getstate()


def test_trace_mobility_replays_an_eager_waypoint():
    """``mobility == "trace"`` samples each waypoint model over the whole
    run at build: the recorded points are the eager trajectory's."""
    config = SimulationConfig(
        n_peers=12, sim_time=120.0, warmup=60.0, seed=5, mobility="trace"
    )
    world = build_simulation(config, "rpcc-sc")
    terrain = Terrain(config.terrain_width, config.terrain_height)
    until = config.warmup + config.sim_time + TRACE_SAMPLE_INTERVAL
    replayed = 0
    for host_id, host in world.hosts.items():
        if not isinstance(host.mobility, PiecewiseLinear):
            continue
        replayed += 1
        reference = _eager(config.seed, f"mobility/{host_id}")
        legs = _reference_legs(
            reference, terrain, terrain.random_point(reference), until,
            config.speed_min, config.speed_max, config.pause_time,
        )
        starts = [leg.start_time for leg in legs]
        samples = int(until / TRACE_SAMPLE_INTERVAL) + 1
        expected = [legs[0].origin] + [
            legs[bisect.bisect_right(starts, t) - 1].position(t)
            for t in (k * TRACE_SAMPLE_INTERVAL for k in range(1, samples))
        ]
        assert host.mobility._points == expected
    assert replayed > 0


def test_live_streams_are_the_resumed_consumers():
    """Only a consumer that drew after the build holds a generator."""
    config = scale_config(2_000, sim_time=30.0)
    gc.unfreeze()
    gc.collect()
    before = sum(type(thing) is Stream for thing in gc.get_objects())
    world = build_simulation(config, SPEC, "single_source")
    world.run()
    gc.collect()
    live = sum(type(thing) is Stream for thing in gc.get_objects()) - before
    consumers = [host.mobility for host in world.hosts.values()]
    consumers += [host.switching for host in world.hosts.values() if host.switching]
    consumers += world.query_workload._processes + world.update_workload._processes
    consumers = [c for c in consumers if hasattr(c, "_rng")]  # not Stationary
    resumed = sum(consumer._rng is not None for consumer in consumers)
    assert live == resumed
    # Most of a 30 s run's streams never draw again after the build.
    assert 0 < resumed < len(consumers) / 10
