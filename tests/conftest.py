"""Shared test fixtures and helpers.

``make_world`` builds a small, fully controlled MP2P world: stationary
hosts at explicit positions, a chosen consistency strategy, and no
background workload — tests drive queries and updates by hand and step
the simulator themselves.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.cache.discovery import Discovery
from repro.cache.item import CachedCopy
from repro.consistency.base import ConsistencyStrategy, StrategyContext
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import TimeSeries
from repro.mobility.stationary import Stationary
from repro.mobility.terrain import Point, Terrain
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.peers.coefficients import CoefficientTracker
from repro.peers.host import MobileHost
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class World:
    """A hand-wired mini MP2P system for protocol tests."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        hosts: Dict[int, MobileHost],
        catalog: Catalog,
        directory: CacheDirectory,
        metrics: MetricsCollector,
        context: StrategyContext,
        strategy: ConsistencyStrategy,
    ) -> None:
        self.sim = sim
        self.network = network
        self.hosts = hosts
        self.catalog = catalog
        self.directory = directory
        self.metrics = metrics
        self.context = context
        self.strategy = strategy

    def host(self, node_id: int) -> MobileHost:
        return self.hosts[node_id]

    def agent(self, node_id: int):
        return self.strategy.agent_for(node_id)

    def give_copy(self, node_id: int, item_id: int, version: Optional[int] = None) -> CachedCopy:
        """Install a cached copy of ``item_id`` at ``node_id``."""
        master = self.catalog.master(item_id)
        copy = CachedCopy(
            item_id,
            master.version if version is None else version,
            master.content_size,
            self.sim.now,
        )
        self.hosts[node_id].store.put(copy)
        return copy

    def update_item(self, item_id: int) -> int:
        """Bump the master copy at its source host."""
        return self.hosts[self.catalog.source_of(item_id)].update_master()

    def run(self, seconds: float) -> None:
        self.sim.run_until(self.sim.now + seconds)


def make_world(
    positions: Sequence[Tuple[float, float]],
    strategy_factory: Callable[[StrategyContext], ConsistencyStrategy],
    radio_range: float = 150.0,
    content_size: int = 1000,
    cache_capacity: int = 10,
    phi: float = 100.0,
) -> World:
    """Build a :class:`World` of stationary hosts at ``positions``.

    Host ``i`` sources item ``i``.  The strategy is built via
    ``strategy_factory(context)`` and one agent is attached per host.
    """
    sim = Simulator()
    metrics = MetricsCollector()
    network = Network(sim, radio_range=radio_range, link=LinkModel(), traffic=metrics)
    catalog = Catalog.one_item_per_host(range(len(positions)), content_size)
    directory = CacheDirectory()
    hosts: Dict[int, MobileHost] = {}
    for node_id, (x, y) in enumerate(positions):
        host = MobileHost(
            node_id,
            sim,
            Stationary(Point(x, y)),
            cache_capacity=cache_capacity,
            directory=directory,
            coefficient_tracker=CoefficientTracker(phi=phi),
        )
        host.attach_source(catalog.master(node_id))
        network.register(host)
        hosts[node_id] = host
    discovery = Discovery(catalog, directory)
    context = StrategyContext(network, catalog, discovery, metrics)
    strategy = strategy_factory(context)
    for host in hosts.values():
        host.agent = strategy.make_agent(host)
    return World(sim, network, hosts, catalog, directory, metrics, context, strategy)


def make_eligible(host: MobileHost) -> None:
    """Force a host's coefficients to pass the Table-1 thresholds."""
    tracker = host.tracker
    tracker.record_access(50)
    tracker.set_energy_fraction(1.0)
    tracker.close_period()


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random stream."""
    return random.Random(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic stream registry."""
    return RandomStreams(seed=99)


@pytest.fixture
def terrain() -> Terrain:
    """The paper's 1.5 km x 1.5 km flatland."""
    return Terrain(1500.0, 1500.0)


def line_positions(count: int, spacing: float = 100.0) -> List[Tuple[float, float]]:
    """``count`` hosts on a horizontal line, ``spacing`` metres apart."""
    return [(i * spacing, 0.0) for i in range(count)]


def result_fingerprint(value, skip: Sequence[str] = ("wall_clock_seconds",)):
    """Every field of a ``SimulationResult``, its summary's included, as
    exactly typed plain data, less the fields ``skip`` names (by default
    the wall clock, which two runs of one task do not share).

    The fields come from ``dataclasses.fields``, so a new one is compared
    without editing this.  Floats are compared by ``repr`` (NaN equals
    NaN, ``-0.0`` differs from ``0.0``) and each leaf with its type (``1``
    differs from ``1.0`` and from ``True``).
    """
    if dataclasses.is_dataclass(value):
        return {
            field.name: result_fingerprint(getattr(value, field.name), skip)
            for field in dataclasses.fields(value) if field.name not in skip
        }
    if isinstance(value, TimeSeries):
        return "TimeSeries", value.name, result_fingerprint((value.times, value.values))
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [result_fingerprint(item, skip) for item in value]
    if isinstance(value, dict):
        return {key: result_fingerprint(item, skip) for key, item in value.items()}
    return type(value).__name__, repr(value) if isinstance(value, float) else value
