"""Build and run complete simulations.

A *strategy spec* names one strategy of the
:data:`~repro.scenarios.registry.STRATEGIES` catalogue and, for one that
serves reads per consistency level, the workload it is run under:

* ``"push"`` / ``"pull"`` — the baselines (always validated strongly);
* ``"rpcc-sc"`` / ``"rpcc-dc"`` / ``"rpcc-wc"`` — RPCC under a pure
  consistency-level workload;
* ``"rpcc-hy"`` — RPCC under the hybrid workload (equal thirds);
* ``"rpcc-controlled-<level>"``, ``"rpcc-random-selection-<level>"``,
  ``"push-uir"`` — the variants in :mod:`repro.consistency.rpcc.relay_control`,
  :mod:`repro.consistency.rpcc.selection_ablation` and
  :mod:`repro.consistency.uir_push`.

:func:`~repro.scenarios.registry.parse_spec` is the one reader of that
spelling; the factories registered at the bottom of this module build
each strategy from a :class:`SimulationConfig` alone.

Three placement scenarios exist: ``"standard"`` (Table 1, random
placement), ``"single_source"`` (Fig 9: one randomly chosen source whose
item is cached by every other peer) and ``"hot_set"`` (a multi-source
generalisation: ``hot_set_size`` items each cached by every other peer,
queries restricted to the hot set).
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.cache.discovery import Discovery
from repro.cache.placement import (
    hot_set_placement,
    random_placement,
    single_item_placement,
)
from repro.cache.replacement import policy_factory
from repro.consistency.base import (
    ConsistencyStrategy,
    RetryBackoff,
    StrategyContext,
)
from repro.consistency.pull import PullStrategy
from repro.consistency.push import PushStrategy
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.energy.battery import Battery
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import SimulationConfig
from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.metrics.degradation import DegradationMeter
from repro.metrics.timeseries import TimeSeries
from repro.mobility.stationary import Stationary
from repro.mobility.subnets import SubnetGrid, SubnetTracker
from repro.mobility.terrain import Terrain
from repro.mobility.trace import record_trace
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.peers.coefficients import CoefficientTracker
from repro.peers.host import MobileHost
from repro.peers.switching import SwitchingProcess
from repro.scenarios.registry import CONTROLLERS, parse_spec, register_strategy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer, SwitchClock
from repro.workload.access import (
    AccessPattern,
    FlashCrowdAccess,
    UniformAccess,
    ZipfAccess,
)
from repro.workload.drivers import QueryWorkload, UpdateWorkload
from repro.workload.mix import LevelMix

if TYPE_CHECKING:  # pragma: no cover - loaded only when a config asks for them
    from repro.control import OnlineController
    from repro.faults import FaultInjector

__all__ = [
    "PLACEMENT_SCENARIOS",
    "STRATEGY_SPECS",
    "Simulation",
    "SimulationResult",
    "build_simulation",
    "run_simulation",
]

#: The paper's six figure columns (every legend entry of Fig 7/8): what
#: ``compare`` and the figure sweeps run, not the list of valid specs.
STRATEGY_SPECS = ("pull", "push", "rpcc-sc", "rpcc-dc", "rpcc-wc", "rpcc-hy")

#: Placement scenarios build_simulation understands.
PLACEMENT_SCENARIOS = ("standard", "single_source", "hot_set")

#: Sampling interval of the recorded trace replayed by mobility="trace".
TRACE_SAMPLE_INTERVAL = 10.0


#: Allocated blocks (``sys.getallocatedblocks``) that the worlds run since
#: the last full pass had added when their runs ended.  A run hands its
#: frozen world back to the collector and unfrozen objects land in the
#: oldest generation: once the world is dropped only a full pass frees
#: it, and a build that skipped one would freeze that garbage out of
#: every later pass.
_released_blocks = 0
#: ``sys.getallocatedblocks()`` after the last full pass a build made.
_heap_after_full = 0


def _release(blocks_at_build: int) -> None:
    """Hand the frozen set back to the collector at the end of a run."""
    global _released_blocks
    gc.unfreeze()
    _released_blocks += max(0, sys.getallocatedblocks() - blocks_at_build)


def _collect_before_build() -> int:
    """Free what earlier worlds left and zero the young counters; return
    the allocated blocks the new world starts from.

    A full pass follows a world built and never run (still frozen), and
    worlds run since the last pass that add up to a quarter of the heap
    it left (CPython's own trigger for a full pass is a quarter of
    growth).  A serial campaign of large worlds so frees each one before
    the next is frozen, and a process whose own heap dwarfs its worlds (a
    test session) does not walk that heap after every small run.
    """
    global _released_blocks, _heap_after_full
    if gc.get_freeze_count() or 4 * _released_blocks > _heap_after_full:
        gc.unfreeze()
        gc.collect()
        _released_blocks = 0
        _heap_after_full = sys.getallocatedblocks()
        return _heap_after_full
    # Zero the young-generation counters: how soon the collector walks
    # again then depends on the run, not on the imports before it.
    gc.collect(1)
    return sys.getallocatedblocks()


@contextlib.contextmanager
def _gc_quiet() -> Iterator[None]:
    """Pause the cyclic collector for one bulk-construction phase.

    World construction and start-up arming allocate hundreds of thousands
    of containers that all stay alive, so every generation-2 pass they
    trigger walks the whole heap and frees nothing.  The previous state
    is restored on the way out: a caller that runs with the collector
    off keeps it off, and nested blocks leave it off until the outermost
    one ends.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _switch_host(switch: SwitchingProcess) -> None:
    """A flip of ``switch`` takes its host on- or offline."""
    switch.host.set_online(switch.online)


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    spec: str
    scenario: str
    config: SimulationConfig
    summary: MetricsSummary
    total_queries: int
    total_updates: int
    relay_samples: List[Tuple[float, int]] = field(default_factory=list)
    traffic_series: Optional[TimeSeries] = None
    energy_consumed: float = 0.0
    mean_battery_fraction: float = 0.0
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    #: TopologyService counters (snapshots built/reused, invalidations,
    #: candidate-pair lists built/reused and nodes re-anchored) at end
    #: of run.
    topology_stats: Dict[str, int] = field(default_factory=dict)
    #: Applied online-control decisions in order (empty without a
    #: controller): ``{"time", "policy", "reason", "applied", "modes"}``.
    control_decisions: List[Dict[str, object]] = field(default_factory=list)

    @property
    def transmissions_per_minute(self) -> float:
        """Hop transmissions normalised by simulated time."""
        minutes = self.config.sim_time / 60.0
        return self.summary.transmissions / minutes if minutes > 0 else 0.0

    @property
    def mean_relay_count(self) -> float:
        """Time-averaged relay population (0 for non-RPCC runs)."""
        if not self.relay_samples:
            return 0.0
        return sum(count for _, count in self.relay_samples) / len(self.relay_samples)


class Simulation:
    """A fully wired simulation, ready to :meth:`run`."""

    def __init__(
        self,
        spec: str,
        scenario: str,
        config: SimulationConfig,
        sim: Simulator,
        network: Network,
        hosts: Dict[int, MobileHost],
        catalog: Catalog,
        strategy: ConsistencyStrategy,
        metrics: MetricsCollector,
        update_workload: UpdateWorkload,
        query_workload: QueryWorkload,
        single_source_item: Optional[int] = None,
        controller: Optional[OnlineController] = None,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.config = config
        self.sim = sim
        self.network = network
        self.hosts = hosts
        self.catalog = catalog
        self.strategy = strategy
        self.metrics = metrics
        self.update_workload = update_workload
        self.query_workload = query_workload
        self.single_source_item = single_source_item
        self.controller = controller
        self._relay_samples: List[Tuple[float, int]] = []
        self._traffic_series = TimeSeries("transmissions")
        self._last_tx_total = 0
        self._ran = False
        #: Allocated blocks before the world was built (set by the build).
        self._blocks_at_build = 0

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run warm-up plus the measured window (``config.sim_time``).

        Metrics are reset after ``config.warmup`` seconds so that the
        relay-bootstrap transient does not pollute steady-state numbers.
        A world runs once: a second call raises :class:`SimulationError`.
        The world stays frozen out of the cyclic collector (see
        :func:`build_simulation`) from start-up arming to the end of the
        run, and the process's frozen set is released on the way out,
        raised or not.
        """
        if self._ran:
            raise SimulationError(
                "Simulation.run() is single-shot: this world has already run "
                "(build a new one to run again)"
            )
        self._ran = True
        measured = self.config.sim_time if until is None else float(until)
        started = time.perf_counter()
        try:
            # Every handle, timer and entry armed here lives on into the
            # run: nothing for the cyclic collector to find, so it sits
            # this phase out, and what was armed joins the frozen world.
            with _gc_quiet():
                self._arm()
                gc.freeze()
            if self.config.warmup > 0:
                self.sim.run_until(self.config.warmup)
                self.metrics.reset()
                self._relay_samples.clear()
            self.sim.run_until(self.config.warmup + measured)
        finally:
            _release(self._blocks_at_build)
        elapsed = time.perf_counter() - started
        energy = sum(host.battery.total_consumed for host in self.hosts.values())
        fraction = sum(
            host.battery.fraction for host in self.hosts.values()
        ) / len(self.hosts)
        return SimulationResult(
            spec=self.spec,
            scenario=self.scenario,
            config=self.config,
            summary=self.metrics.summary(),
            total_queries=self.query_workload.total_queries,
            total_updates=self.update_workload.total_updates,
            relay_samples=list(self._relay_samples),
            traffic_series=self._traffic_series,
            energy_consumed=energy,
            mean_battery_fraction=fraction,
            wall_clock_seconds=elapsed,
            events_processed=self.sim.events_processed,
            topology_stats=self.network.topology.stats(),
            control_decisions=(
                list(self.controller.decisions)
                if self.controller is not None
                else []
            ),
        )

    def _arm(self) -> None:
        """Start every timer and arrival stream, in the order that fixes
        their sequence numbers (and so the event stream)."""
        self.strategy.start()
        self.update_workload.start()
        self.query_workload.start()
        # One clock for every host's period (docs/decisions/09-one-period-clock.md).
        PeriodicTimer(self.sim, self.config.switch_interval, self._close_periods).start()
        for host in self.hosts.values():
            host.period_started_at = self.sim.now
        # One clock for every host's switch, in host order
        # (docs/decisions/18-one-clock-per-process-kind.md).
        SwitchClock(self.sim, _switch_host).start(
            host.switching for host in self.hosts.values() if host.switching is not None
        )
        if isinstance(self.strategy, RPCCStrategy):
            PeriodicTimer(self.sim, 60.0, self._sample_relays).start()
        PeriodicTimer(self.sim, 60.0, self._sample_traffic).start()
        if self.controller is not None:
            self.controller.start()

    def _close_periods(self) -> None:
        for host in self.hosts.values():
            host.close_period()

    def _sample_traffic(self) -> None:
        """Record the per-minute transmission rate (a convergence series)."""
        total = self.metrics.traffic.transmissions()
        delta = total - self._last_tx_total
        # A metrics reset at warm-up end makes the cumulative total drop;
        # restart the delta baseline instead of recording a negative rate.
        if delta < 0:
            delta = total
        self._last_tx_total = total
        self._traffic_series.record(self.sim.now, float(delta))

    def _sample_relays(self) -> None:
        assert isinstance(self.strategy, RPCCStrategy)
        if self.single_source_item is not None:
            count = self.strategy.relay_count_for(self.single_source_item)
        else:
            count = self.strategy.relay_count()
        self._relay_samples.append((self.sim.now, count))


@_gc_quiet()
def build_simulation(
    config: SimulationConfig,
    spec: str,
    scenario: str = "standard",
    *,
    trace=None,
) -> Simulation:
    """Wire every substrate into a runnable simulation.

    Parameters
    ----------
    config:
        The full parameter set (Table 1 defaults via ``SimulationConfig()``).
    spec:
        A strategy spec (``repro list`` prints them all).
    scenario:
        One of :data:`PLACEMENT_SCENARIOS`: ``"standard"``,
        ``"single_source"`` (Fig 9) or ``"hot_set"``.
    trace:
        Optional :class:`repro.obs.TraceBus`; when given, every
        instrumented subsystem emits trace events into it.  Omitted (the
        default) the simulator keeps its no-op bus and tracing costs one
        branch per emit site.

    The collector is paused while the world is built, and the build ends
    with :func:`gc.freeze`: every object alive in the process, the new
    world included, moves to the permanent generation, where no
    collection walks it.  :meth:`Simulation.run` freezes again after
    start-up arming and calls :func:`gc.unfreeze` when it returns or
    raises.  A build that finds objects still frozen — a world built and
    never run — first unfreezes them and runs one full collection, and so
    does a build after runs whose worlds add up to a quarter of the heap
    the last full collection left: a dropped world is freed before a
    later freeze can put it out of reach, and what waits is bounded by
    the heap, not by the number of runs.  The contract is process-wide:
    code that calls :func:`gc.freeze` itself should not build simulations
    in between.
    """
    if scenario not in PLACEMENT_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose from {PLACEMENT_SCENARIOS}"
        )
    blocks_at_build = _collect_before_build()
    entry, level = parse_spec(spec)
    mix = LevelMix.hybrid() if level == "hy" else LevelMix.pure(level or "sc")
    # An empty plan is the same as no plan: no fault RNG streams, no
    # scheduled fault events, no degradation meter — bit-identical runs.
    plan = (
        config.faults
        if config.faults is not None and not config.faults.is_empty
        else None
    )
    sim = Simulator()
    streams = RandomStreams(config.seed)
    metrics = MetricsCollector(delta=config.ttp)
    if plan is not None:
        metrics.degradation = DegradationMeter(lambda: sim.now)
    if trace is not None:
        sim.attach_trace(trace)
        metrics.attach_trace(trace, lambda: sim.now)
    # loss_rate == 0 keeps the seed's exact LinkModel behaviour (and RNG
    # stream layout): hop_is_lost() short-circuits without drawing.
    link = LinkModel(
        loss_rate=config.loss_rate,
        rng=streams.stream("link-loss") if config.loss_rate > 0 else None,
    )
    network = Network(
        sim,
        radio_range=config.radio_range,
        link=link,
        traffic=metrics,
    )
    terrain = Terrain(config.terrain_width, config.terrain_height)
    grid = SubnetGrid(terrain, config.subnet_cell)
    catalog = Catalog.one_item_per_host(range(config.n_peers))
    directory = CacheDirectory()

    stable_rng = streams.stream("stable-assignment")
    stable_count = round(config.stable_fraction * config.n_peers)
    stable_ids = set(stable_rng.sample(range(config.n_peers), stable_count))

    battery_rng = streams.stream("battery")
    # One fresh policy instance per host (stateful policies keep
    # per-store history); name and parameters are resolved once here.
    # ttl/clock are wiring the TTL-aware policy accepts; stateless ones
    # ignore them.
    new_policy = policy_factory(
        config.replacement_policy, ttl=config.ttp, clock=lambda: sim.now
    )
    hosts: Dict[int, MobileHost] = {}
    # Loop invariants are looked up once, and the per-host constructors
    # take their arguments by position: at 10 000 hosts both show in
    # set-up time.
    parked = streams.parked
    master = catalog.master
    register = network.register
    speed_min, speed_max = config.speed_min, config.speed_max
    cache_num, phi, omega = config.cache_num, config.switch_interval, config.omega
    mean_online, mean_offline = config.mean_online, config.mean_offline
    walk = config.mobility == "walk"
    for host_id in range(config.n_peers):
        stable = host_id in stable_ids
        if stable:
            # Drawn from twice and never again: a one-shot stream, so
            # its generator does not outlive this line.
            mobility = Stationary(
                terrain.random_point(streams.one_shot(f"pos/{host_id}"))
            )
        elif walk:
            mobility = RandomWalk(
                terrain, parked(f"mobility/{host_id}"), speed_min, speed_max
            )
        else:
            mobility = RandomWaypoint(
                terrain,
                parked(f"mobility/{host_id}"),
                speed_min,
                speed_max,
                config.pause_time,
            )
            if config.mobility == "trace":
                # Trace replay: sample the waypoint trajectory up front and
                # replay it as piecewise-linear motion — every strategy run
                # over this config sees the *identical* movement, which is
                # the trace-replay scenario's whole point.
                recorded = record_trace(
                    mobility,
                    duration=config.warmup + config.sim_time + TRACE_SAMPLE_INTERVAL,
                    interval=TRACE_SAMPLE_INTERVAL,
                )
                mobility = recorded.as_model()
        initial = 100.0 if stable else battery_rng.uniform(40.0, 100.0)
        host = MobileHost(
            host_id,
            sim,
            mobility,
            Battery(100.0, None, initial),  # capacity, default costs, charge
            cache_num,
            directory,
            CoefficientTracker(phi, omega),
            SubnetTracker(grid, mobility),
            new_policy(),
        )
        host.attach_source(master(host_id))
        if not stable:
            host.switching = SwitchingProcess(
                parked(f"switch/{host_id}"), mean_online, mean_offline, host
            )
        register(host)
        hosts[host_id] = host

    discovery = Discovery(catalog, directory)
    # Backoff on remote-query retries rides along with fault injection:
    # fault-free runs keep the fixed retry wait (and their golden digests).
    backoff = (
        RetryBackoff(factor=config.backoff_factor, seed=config.seed)
        if plan is not None
        else None
    )
    context = StrategyContext(
        network,
        catalog,
        discovery,
        metrics,
        delta=config.ttp,
        cache_on_read=config.cache_on_read,
        backoff=backoff,
    )
    strategy = entry.build(context, config)
    for host in hosts.values():
        host.agent = strategy.make_agent(host)

    single_item: Optional[int] = None
    stores = {host_id: host.store for host_id, host in hosts.items()}
    if scenario == "single_source":
        single_item = streams.stream("fig9-source").randrange(config.n_peers)
        single_item_placement(catalog, stores, single_item)
        update_hosts = [hosts[catalog.source_of(single_item)]]
        restrict = [single_item]
    elif scenario == "hot_set":
        k = min(config.hot_set_size, len(catalog.item_ids))
        hot_items = sorted(
            streams.stream("hot-set").sample(sorted(catalog.item_ids), k)
        )
        hot_set_placement(catalog, stores, hot_items)
        update_hosts = [hosts[catalog.source_of(item)] for item in hot_items]
        restrict = hot_items
    else:
        random_placement(
            catalog, stores, config.cache_num, streams.stream("placement")
        )
        update_hosts = list(hosts.values())
        restrict = None
    # Pre-placed copies count as freshly validated for RPCC.
    if isinstance(strategy, RPCCStrategy):
        for host in hosts.values():
            renew_ttp = host.agent.cache_peer.renew_ttp
            for item_id in host.store:
                renew_ttp(item_id)

    update_workload = UpdateWorkload(
        update_hosts, streams, mean_interval=config.update_interval
    )
    if config.access_pattern == "flash-crowd":
        access: AccessPattern = FlashCrowdAccess(
            catalog.item_ids,
            theta=config.zipf_theta,
            seed=config.seed,
            shift_at=config.flash_crowd_at,
            clock=lambda: sim.now,
        )
    elif config.access_pattern == "zipf":
        access = ZipfAccess(
            catalog.item_ids, theta=config.zipf_theta, seed=config.seed
        )
    else:
        access = UniformAccess(catalog.item_ids)
    query_workload = QueryWorkload(
        hosts.values(),
        streams,
        strategy,
        access,
        mix,
        mean_interval=config.query_interval,
        restrict_to_items=restrict,
    )
    injector: Optional[FaultInjector] = None
    if plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            plan,
            sim=sim,
            network=network,
            hosts=hosts,
            metrics=metrics,
            strategy=strategy,
            seed=config.seed,
            terrain_width=config.terrain_width,
            terrain_height=config.terrain_height,
            degradation=metrics.degradation,
        )
        network.faults = injector
        injector.start()
    controller: Optional[OnlineController] = None
    if config.controller is not None:
        # Constructed last so the "controller" RNG stream is derived only
        # when a controller actually runs: controller=None draws the
        # exact pre-controller random sequences.
        from repro.control.controller import OnlineController

        controller = OnlineController(
            CONTROLLERS.get(config.controller)(),
            strategy,
            metrics,
            streams,
            hosts=hosts.values(),
            injector=injector,
            interval=config.controller_interval,
        )
    simulation = Simulation(
        spec=spec,
        scenario=scenario,
        config=config,
        sim=sim,
        network=network,
        hosts=hosts,
        catalog=catalog,
        strategy=strategy,
        metrics=metrics,
        update_workload=update_workload,
        query_workload=query_workload,
        single_source_item=single_item,
        controller=controller,
    )
    simulation._blocks_at_build = blocks_at_build
    # Everything alive now lives on into the run: move it out of the
    # collector's generations, so that no pass walks it to find nothing.
    gc.freeze()
    return simulation


@register_strategy("push")
def _build_push(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    return PushStrategy(context, ttn=config.ttn, ttl=config.ttl_broadcast)


@register_strategy("pull")
def _build_pull(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    return PullStrategy(
        context, ttl=config.ttl_broadcast, poll_timeout=config.poll_timeout
    )


def _rpcc_kwargs(config: SimulationConfig) -> Dict[str, Any]:
    """The :class:`RPCCConfig` fields a :class:`SimulationConfig` decides."""
    return dict(
        ttl_invalidation=config.ttl_rpcc,
        ttn=config.ttn,
        ttr=config.ttr,
        ttp=config.ttp,
        poll_timeout=config.poll_timeout,
        broadcast_ttl=config.ttl_broadcast,
        thresholds=config.thresholds,
        # Protocol hardening rides along with fault injection: fault-free
        # runs keep the paper-faithful protocol (and their golden digests).
        hardened=config.faults is not None and not config.faults.is_empty,
    )


@register_strategy("rpcc", levels=True)
def _build_rpcc(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    return RPCCStrategy(context, RPCCConfig(**_rpcc_kwargs(config)))


# The variants import their class when one is asked for: a run of a
# stock strategy loads none of their modules.
@register_strategy("rpcc-controlled", levels=True)
def _build_rpcc_controlled(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    from repro.consistency.rpcc.relay_control import ControlledRPCCStrategy

    return ControlledRPCCStrategy(context, RPCCConfig(**_rpcc_kwargs(config)))


@register_strategy("rpcc-random-selection", levels=True)
def _build_rpcc_random_selection(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    from repro.consistency.rpcc.selection_ablation import RandomSelectionRPCCStrategy

    # The coins are seeded by the run: each seed of a matrix promotes differently.
    return RandomSelectionRPCCStrategy(
        context, RPCCConfig(**_rpcc_kwargs(config)), seed=config.seed
    )


@register_strategy("push-uir")
def _build_push_uir(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    from repro.consistency.uir_push import UIRPushStrategy

    return UIRPushStrategy(context, ttn=config.ttn, ttl=config.ttl_broadcast)


def run_simulation(
    config: SimulationConfig,
    spec: str,
    scenario: str = "standard",
    *,
    trace=None,
) -> SimulationResult:
    """Convenience: build and run in one call."""
    return build_simulation(config, spec, scenario, trace=trace).run()
