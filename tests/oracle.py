"""Brute-force references for the per-quantum core and the flood level batch,
and a stub world to drive the core.

The shipped core (:mod:`repro.net.soa` + :mod:`repro.net.topology`) has
grids, pair lists, CSR traversals, snapshot reuse and bulk mobility
kernels.  What they must all compute fits on one screen, and is written
here with none of that machinery: sample every online node's
``current_position()``, test every pair with ``dx*dx + dy*dy <= r*r`` in
registration order, traverse with a FIFO queue.  The property tests
compare every path of the core against this, to the bit and to the
iteration order.

The flood level batch (``Network._deliver_batch``) books every copy
outside the strategy's declared audience without running its handler;
:func:`unfiltered_deliver_batch` is the batch before audiences, every
copy through ``_deliver`` and its handler.

The candidate stage of ``soa.build_csr`` and ``soa.PairList`` tests a
block of grid candidates at a time; :func:`expand_then_filter` is the
stage that expands every candidate first and filters them all after.

A world closes every host's coefficient period from one clock
(``Simulation._close_periods``); :func:`arm_period_timer_per_host` is
start-up arming with one period timer per host instead.  Every source
host's TTN tick rides one ``StaggeredClock``;
:func:`arm_ttn_timer_per_source` is start-up arming with one TTN timer
per source instead.  Every host's query and update arrivals and on/off
switch ride one clock per kind; :func:`arm_processes_per_host` is
start-up arming with one heap event per stream and per switch, each
re-armed where its own event re-armed itself.

Message classes are built by ``repro.net.message.message_class``;
:func:`dataclass_message` is the same class body under
``@dataclasses.dataclass(frozen=True, slots=True)``.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, deque
from itertools import accumulate

from repro.consistency.rpcc import RPCCStrategy
from repro.consistency.uir_push import UIRPushStrategy
from repro.experiments.runner import Simulation, _switch_host
from repro.net import soa
from repro.net.message import Message
from repro.net.topology import TopologyService
from repro.sim.timers import PeriodicTimer, SwitchClock, staggered_start


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def sample_positions(nodes) -> dict:
    """``{node_id: current_position()}`` of the online ``nodes``, in order."""
    return {node.node_id: node.current_position() for node in nodes if node.online}


class BruteForceSnapshot:
    """All-pairs unit-disc graph over ``positions`` (optionally cut by a
    symmetric ``edge_filter(node_a, node_b, pos_a, pos_b)``)."""

    def __init__(self, positions, radio_range, edge_filter=None):
        self.positions = dict(positions)
        limit_sq = radio_range * radio_range
        self.adjacency = {}
        for node_a, pos_a in self.positions.items():
            row = self.adjacency[node_a] = []
            for node_b, pos_b in self.positions.items():
                dx = pos_a.x - pos_b.x
                dy = pos_a.y - pos_b.y
                if node_a != node_b and dx * dx + dy * dy <= limit_sq and (
                    edge_filter is None or edge_filter(node_a, node_b, pos_a, pos_b)
                ):
                    row.append(node_b)

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency.values()) // 2

    def bfs(self, source):
        """``(levels, parents)`` of a FIFO traversal, in discovery order."""
        levels = {source: 0}
        parents = {source: source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.adjacency[current]:
                if neighbor not in levels:
                    levels[neighbor] = levels[current] + 1
                    parents[neighbor] = current
                    queue.append(neighbor)
        return levels, parents

    def bfs_levels(self, source, max_depth=None) -> dict:
        levels, _ = self.bfs(source)
        if max_depth is None:
            return levels
        bound = max(max_depth, 0)  # a negative bound means the source alone
        return {node: depth for node, depth in levels.items() if depth <= bound}

    def hop_distance(self, source, target):
        return self.bfs(source)[0].get(target)

    def shortest_path(self, source, target):
        """First-discoverer parents walked back; ``None`` when unreachable."""
        levels, parents = self.bfs(source)
        if target not in levels:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])
        return path[::-1]

    def nearest(self, source, candidates, max_depth=None):
        """``min((depth, node))`` over the candidates within the bound."""
        levels = self.bfs_levels(source, max_depth)
        found = [(levels[node], node) for node in candidates if node in levels]
        return min(found)[1] if found else None

    def connected_components(self) -> list:
        """Components in the order seeding from ``set(positions)`` finds them."""
        remaining = set(self.positions)
        components = []
        while remaining:
            component = set(self.bfs(next(iter(remaining)))[0])
            components.append(component)
            remaining -= component
        return components


def assert_full_tree(snapshot, oracle, source) -> None:
    """``_bfs_from(source)`` with no bound is the oracle's whole tree:
    same levels and parents in the same order, counted per depth, and
    nothing left to expand."""
    levels, parents = oracle.bfs(source)
    tree = snapshot._bfs_from(source)
    per_depth = Counter(levels.values())  # depths are 0..max, no gaps
    prefix = list(accumulate(per_depth[d] for d in range(len(per_depth))))
    assert tree == [levels, parents, prefix, []]
    assert list(tree[0]) == list(levels) and list(tree[1]) == list(parents)


class CountingRows(dict):
    """An adjacency that lists, in order, the rows a traversal reads."""

    def __init__(self, rows) -> None:
        super().__init__(rows)
        self.read = []

    def __getitem__(self, node):
        self.read.append(node)
        return super().__getitem__(node)


def count_row_reads(snapshot) -> list:
    """Swap ``snapshot``'s adjacency for a counting one; the list of rows
    read from now on (one entry per read, so re-reads show)."""
    rows = snapshot._adjacency_store = CountingRows(snapshot._adjacency)
    return rows.read


def assert_matches_oracle(snapshot, oracle, depths=(0, 1, 3, None)) -> None:
    """Everything routing and flooding observe, equal and in the same order."""
    assert list(snapshot.positions) == list(oracle.positions)
    assert dict(snapshot.positions) == oracle.positions
    for node, row in oracle.adjacency.items():
        assert snapshot.neighbors(node) == row, node
        assert snapshot.degree(node) == len(row), node
    assert snapshot._neighbor_sets == {
        node: frozenset(row) for node, row in oracle.adjacency.items()
    }
    assert snapshot.edge_count() == oracle.edge_count()
    for source in oracle.positions:
        assert_full_tree(snapshot, oracle, source)
        for depth in depths:
            found = snapshot.bfs_levels(source, max_depth=depth)
            expected = oracle.bfs_levels(source, depth)
            assert found == expected, (source, depth)
            assert list(found) == list(expected), (source, depth)
    assert snapshot.connected_components() == oracle.connected_components()


# ----------------------------------------------------------------------
# Table-driven stub world
# ----------------------------------------------------------------------
class StubNode:
    """The ``FallbackKernel`` contract and nothing else, read from a table."""

    def __init__(self, node_id, table) -> None:
        self.node_id = node_id
        self._table = table

    @property
    def online(self) -> bool:
        return self._table[self.node_id][1]

    def current_position(self):
        return self._table[self.node_id][0]

    def position_valid_until(self) -> float:
        return float("-inf")  # no guarantee: every refresh re-reads the table


class StubWorld:
    """A real position ledger and topology service over a mutable table.

    ``table`` maps node id to ``[position, online]`` in registration
    order.  Tests move a node by replacing its position, flip it with
    :meth:`set_online` (the churn notice the network layer would send)
    and advance ``now`` by hand.
    """

    def __init__(self, table, radio_range, quantum=1.0) -> None:
        self.table = table
        self.now = 0.0
        self.nodes = {node_id: StubNode(node_id, table) for node_id in table}
        self.ledger = soa.SoAPositionLedger()
        for node in self.nodes.values():
            self.ledger.add(node)
        self.service = TopologyService(
            lambda: self.now, self.ledger, radio_range, quantum
        )

    def set_online(self, node_id, online: bool) -> None:
        self.table[node_id][1] = online
        self.ledger.note_state(self.nodes[node_id])
        self.service.note_churn(node_id)

    def oracle(self) -> BruteForceSnapshot:
        return BruteForceSnapshot(
            sample_positions(self.nodes.values()), self.service.radio_range
        )


# ----------------------------------------------------------------------
# The candidate stage, expanded whole
# ----------------------------------------------------------------------
def expand_then_filter(xs, ys, cutoff):
    """``soa._near_pairs`` as one expansion and one filter: every candidate
    pair of the grid's five offsets at once, then the distance pass over
    all of them.  ``(near_a, near_b, candidates)``."""
    np = soa.np
    n = xs.shape[0]
    if n < soa.GRID_MIN_NODES:
        cand_b, cand_a = np.tril_indices(n, -1)
    else:
        cell = cutoff if cutoff > 0 else 1.0
        cx = np.floor(xs / cell).astype(np.int64)
        cy = np.floor(ys / cell).astype(np.int64)
        cx -= cx.min() - 1
        cy -= cy.min() - 1
        height = int(cy.max()) + 2
        keys = cx * height + cy
        order = np.argsort(keys, kind="stable")
        uniq, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
        table_size = int(cx.max() + 2) * height
        offsets = np.array([0, height, 1, height + 1, 1 - height], dtype=np.int64)
        targets = (keys + offsets.reshape(5, 1)).ravel()
        if table_size <= 4 * n + 1024:
            group_of = np.full(table_size, -1, dtype=np.int64)
            group_of[uniq] = np.arange(uniq.shape[0])
            slot = group_of[targets]
            valid = slot >= 0
        else:
            slot = np.minimum(np.searchsorted(uniq, targets), uniq.shape[0] - 1)
            valid = uniq[slot] == targets
        rows = np.nonzero(valid)[0]
        g_count = counts[slot[rows]]
        first = np.repeat(starts[slot[rows]] - np.cumsum(g_count) + g_count, g_count)
        cand_b = order[first + np.arange(first.shape[0])]
        cand_a = np.repeat(rows % n, g_count)
        same_cell = np.repeat(rows < n, g_count)
        keep = ~same_cell | (cand_a < cand_b)
        cand_a, cand_b = cand_a[keep], cand_b[keep]
    dx = xs[cand_a] - xs[cand_b]
    dy = ys[cand_a] - ys[cand_b]
    near = dx * dx + dy * dy <= cutoff * cutoff
    return cand_a[near], cand_b[near], int(cand_a.shape[0])


# ----------------------------------------------------------------------
# The flood level batch, unfiltered
# ----------------------------------------------------------------------
def unfiltered_deliver_batch(network, targets, message) -> None:
    """One flood level delivered copy by copy, each through its handler."""
    for target in targets:
        network._deliver(target, message)


# ----------------------------------------------------------------------
# Coefficient periods, one timer per host
# ----------------------------------------------------------------------
def arm_period_timer_per_host(simulation) -> None:
    """``Simulation._arm`` with a period timer per host, armed in host
    order where the world's one clock is armed."""
    sim = simulation.sim
    simulation.strategy.start()
    simulation.update_workload.start()
    simulation.query_workload.start()
    for host in simulation.hosts.values():
        PeriodicTimer(sim, host.tracker.phi, host.close_period).start()
    for host in simulation.hosts.values():
        host.period_started_at = sim.now
    SwitchClock(sim, _switch_host).start(
        host.switching for host in simulation.hosts.values() if host.switching is not None
    )
    if isinstance(simulation.strategy, RPCCStrategy):
        PeriodicTimer(sim, 60.0, simulation._sample_relays).start()
    PeriodicTimer(sim, 60.0, simulation._sample_traffic).start()
    if simulation.controller is not None:
        simulation.controller.start()


# ----------------------------------------------------------------------
# TTN ticks, one timer per source
# ----------------------------------------------------------------------
class _TimersAsClock:
    """Stands where a push strategy keeps its clock: an interval set here
    reaches every per-source timer, as the clock's reaches every member."""

    def __init__(self, timers) -> None:
        self.timers = timers

    def _set_interval(self, value: float) -> None:
        for timer in self.timers:
            timer.interval = value

    interval = property(fset=_set_interval)


def arm_ttn_timer_per_source(simulation) -> None:
    """``Simulation._arm`` with a TTN timer per source host, armed in host
    order where the strategy's one clock is armed."""
    strategy = simulation.strategy
    if isinstance(strategy, RPCCStrategy):
        interval, tick = strategy.config.ttn, lambda agent: agent.source._on_ttn
    elif isinstance(strategy, UIRPushStrategy):
        interval, tick = strategy.sub_interval, lambda agent: agent.broadcast_sub_report
    else:
        interval, tick = strategy.ttn, lambda agent: agent.broadcast_report

    def start() -> None:
        timers = []
        for agent in strategy.agents.values():
            if agent.host.source_item is None:
                continue
            timer = PeriodicTimer(
                simulation.sim,
                interval,
                tick(agent),
                start_offset=staggered_start(interval, agent.node_id),
            )
            timer.start()
            timers.append(timer)
        if not isinstance(strategy, RPCCStrategy):
            strategy._clock = _TimersAsClock(timers)

    strategy.start = start
    Simulation._arm(simulation)


# ----------------------------------------------------------------------
# Arrivals and switches, one heap event each
# ----------------------------------------------------------------------
def _arrivals_of_its_own(sim, process, callback) -> None:
    """``process``'s arrivals as events of their own: each re-arms, with a
    gap from the stream, before it calls back."""

    def arrive() -> None:
        process.arrivals += 1
        sim.schedule(process.stream.expovariate(1.0 / process.mean_interval), arrive)
        callback(process)

    sim.schedule(process.first_delay(), arrive)


def _switch_of_its_own(sim, process) -> None:
    """``process``'s flips as events of their own: each sets the host on-
    or offline, then draws how long that lasts and re-arms."""

    def flip() -> None:
        process.online = not process.online
        process.flips += 1
        process.host.set_online(process.online)
        mean = process.mean_online if process.online else process.mean_offline
        sim.schedule(process.stream.expovariate(1.0 / mean), flip)

    if process.enabled:
        sim.schedule(process.first_delay(), flip)


def arm_processes_per_host(simulation) -> None:
    """``Simulation._arm`` with one event per arrival stream and per switch,
    armed in host order where the world's clocks are armed."""
    sim = simulation.sim
    simulation.strategy.start()
    for process in simulation.update_workload._processes:
        _arrivals_of_its_own(sim, process, lambda process: process.host.update_master())
    for process in simulation.query_workload._processes:
        _arrivals_of_its_own(sim, process, simulation.query_workload._issue)
    PeriodicTimer(sim, simulation.config.switch_interval, simulation._close_periods).start()
    for host in simulation.hosts.values():
        host.period_started_at = sim.now
        if host.switching is not None:
            _switch_of_its_own(sim, host.switching)
    if isinstance(simulation.strategy, RPCCStrategy):
        PeriodicTimer(sim, 60.0, simulation._sample_relays).start()
    PeriodicTimer(sim, 60.0, simulation._sample_traffic).start()
    if simulation.controller is not None:
        simulation.controller.start()


# ----------------------------------------------------------------------
# Message classes, the dataclass way
# ----------------------------------------------------------------------
@functools.cache
def dataclass_message(cls: type) -> type:
    """``cls``'s own body (fields, class constants, ``__post_init__``) under
    the dataclass decorator, over the dataclass-built reference of its base."""
    if cls is Message:
        return Message
    own = cls.__dict__
    namespace = {
        name: own[name]
        for name in ("__module__", "__doc__", "__post_init__", "DEFAULT_SIZE", "is_invalidation")
        if name in own
    }
    namespace["__annotations__"] = {name: own["__annotations__"][name] for name in cls.__slots__}
    namespace.update({name: cls.__dataclass_fields__[name].default for name in cls.__slots__})
    reference = type(cls.__name__, (dataclass_message(cls.__bases__[0]),), namespace)
    reference.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True, slots=True)(reference)
