"""Replays a :class:`~repro.faults.plan.FaultPlan` against a live run.

The injector owns three kinds of machinery:

* **timeline** — scripted faults (partitions, crashes, relay kills) are
  scheduled as ordinary simulator events at :meth:`start`, so they
  interleave deterministically with protocol traffic;
* **link hooks** — :meth:`unicast_hop_lost`, :meth:`extra_delay` and
  :meth:`duplicate` are consulted by :meth:`repro.net.network.Network
  .unicast` on every hop/delivery while ``network.faults`` is attached;
  Gilbert–Elliott chains live here, one per undirected link per active
  bursty-loss window;
* **partition filter** — active partitions are compiled into one edge
  predicate installed on the topology service; every change to the
  active set invalidates the cached snapshot, so the cut takes effect
  at the very instant it is scheduled.

Determinism: the two stochastic fault families draw from named streams
derived from the run seed (``faults/gilbert``, ``faults/jitter``), so a
fault-injected run is as reproducible as a fault-free one — and a run
*without* an injector attached performs no draws and schedules no events
at all, which keeps it bit-identical to the pre-fault codebase.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import BurstyLoss, DelayJitter, FaultPlan, Partition, RelayKill
from repro.mobility.terrain import Point
from repro.net.link import GilbertElliott
from repro.obs import events
from repro.sim.rng import derive_seed

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives one fault plan against one simulation.

    Parameters
    ----------
    plan:
        The fault timeline to replay.
    sim:
        The discrete-event simulator.
    network:
        The network whose unicasts and topology the faults act on; the
        caller attaches this injector as ``network.faults``.
    hosts:
        ``{node_id: MobileHost}`` — crash/reboot targets.
    metrics:
        Named-counter sink (``fault_*`` counters).
    strategy:
        The active consistency strategy; used to find relay holders for
        targeted kills (a no-op for strategies without relay roles).
    seed:
        Run seed; the stochastic fault streams are derived from it.
    terrain_width / terrain_height:
        Terrain extent in metres, for spatial partition cuts.
    degradation:
        Optional :class:`~repro.metrics.degradation.DegradationMeter`
        fed partition start/end edges.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sim,
        network,
        hosts: Dict[int, object],
        metrics,
        strategy=None,
        seed: int = 0,
        terrain_width: float = 1.0,
        terrain_height: float = 1.0,
        degradation=None,
    ) -> None:
        self.plan = plan
        self._sim = sim
        self._network = network
        self._hosts = hosts
        self._metrics = metrics
        self._strategy = strategy
        self._degradation = degradation
        self._terrain_width = float(terrain_width)
        self._terrain_height = float(terrain_height)

        self._bursty: Tuple[BurstyLoss, ...] = plan.bursty_loss
        self._jitters: Tuple[DelayJitter, ...] = plan.jitters
        # Streams are only created when a spec can actually draw from
        # them; an all-scripted plan stays draw-free.
        self._ge_rng: Optional[random.Random] = (
            random.Random(derive_seed(seed, "faults/gilbert")) if self._bursty else None
        )
        self._jitter_rng: Optional[random.Random] = (
            random.Random(derive_seed(seed, "faults/jitter")) if self._jitters else None
        )
        # (spec index, low node, high node) -> per-link loss chain.
        self._chains: Dict[Tuple[int, int, int], GilbertElliott] = {}
        self._active_partitions: List[Partition] = []
        self._isolated: Dict[Partition, frozenset] = {
            spec: frozenset(spec.nodes)
            for spec in plan.partitions
            if spec.mode == "nodes"
        }
        # One stable callable for the topology service: the reuse fast
        # path compares filter *identity*, and a fresh bound method per
        # assignment would defeat it.
        self._edge_filter_fn = self._edge_allowed

    # ------------------------------------------------------------------
    # Timeline
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every scripted fault; call once before ``sim.run``."""
        known = self._hosts.keys()
        for spec in self.plan.crashes:
            if spec.node not in known:
                raise ConfigurationError(
                    f"fault plan crashes unknown node {spec.node!r}"
                )
        for spec in self.plan.partitions:
            for node in spec.nodes:
                if node not in known:
                    raise ConfigurationError(
                        f"fault plan partitions unknown node {node!r}"
                    )
        sim = self._sim
        for spec in self.plan.partitions:
            sim.schedule_at(spec.start, self._start_partition, spec)
        for spec in self.plan.crashes:
            sim.schedule_at(spec.at, self._crash_node, spec.node, spec.wipe_cache)
            if spec.down_for is not None:
                sim.schedule_at(spec.at + spec.down_for, self._reboot_node, spec.node)
        for spec in self.plan.relay_kills:
            sim.schedule_at(spec.at, self._kill_relays, spec)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _start_partition(self, spec: Partition) -> None:
        self._active_partitions.append(spec)
        self._refresh_filter()
        self._metrics.bump("fault_partitions_started")
        if self._degradation is not None:
            self._degradation.on_partition_start(self._sim.now)
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                events.FaultPartitionStarted(
                    time=self._sim.now, mode=spec.mode, name=spec.name
                )
            )
        self._sim.schedule(spec.duration, self._end_partition, spec)

    def _end_partition(self, spec: Partition) -> None:
        self._active_partitions.remove(spec)
        self._refresh_filter()
        self._metrics.bump("fault_partitions_healed")
        if self._degradation is not None:
            self._degradation.on_partition_end(self._sim.now)
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                events.FaultPartitionEnded(
                    time=self._sim.now, mode=spec.mode, name=spec.name
                )
            )

    def _refresh_filter(self) -> None:
        topology = self._network.topology
        topology.edge_filter = (
            self._edge_filter_fn if self._active_partitions else None
        )
        # The cached snapshot was built under the previous cut (or none):
        # rebuild from scratch the moment anyone looks.
        topology.invalidate()

    def _edge_allowed(
        self, node_a: int, node_b: int, pos_a: Point, pos_b: Point
    ) -> bool:
        for spec in self._active_partitions:
            if spec.mode == "nodes":
                isolated = self._isolated[spec]
                if (node_a in isolated) != (node_b in isolated):
                    return False
            elif spec.axis == "x":
                cut = spec.frac * self._terrain_width
                if (pos_a.x >= cut) != (pos_b.x >= cut):
                    return False
            else:
                cut = spec.frac * self._terrain_height
                if (pos_a.y >= cut) != (pos_b.y >= cut):
                    return False
        return True

    # ------------------------------------------------------------------
    # Crashes and reboots
    # ------------------------------------------------------------------
    def _crash_node(self, node_id: int, wipe: bool) -> None:
        host = self._hosts[node_id]
        self._metrics.bump("fault_crashes")
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                events.FaultNodeCrashed(time=self._sim.now, node=node_id, wiped=wipe)
            )
        host.crash(wipe_cache=wipe)

    def _reboot_node(self, node_id: int) -> None:
        host = self._hosts[node_id]
        self._metrics.bump("fault_reboots")
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(events.FaultNodeRebooted(time=self._sim.now, node=node_id))
        host.reboot()

    def _kill_relays(self, spec: RelayKill) -> None:
        agents = getattr(self._strategy, "agents", None) or {}
        victims: List[int] = []
        for node_id in sorted(agents):
            roles = getattr(agents[node_id], "roles", None)
            if roles is None:
                continue  # strategy without a relay overlay (push/pull)
            host = self._hosts[node_id]
            if not host.online:
                continue  # already down; crashing a corpse is a no-op
            if spec.item is not None:
                if not roles.is_relay(spec.item):
                    continue
            elif roles.relay_count == 0:
                continue
            victims.append(node_id)
            if len(victims) >= spec.count:
                break
        if not victims:
            # Keeps mixed-strategy chaos suites honest: the same plan
            # runs under push/pull, where no relay exists to kill.
            self._metrics.bump("fault_relay_kill_noop")
            return
        trace = self._sim.trace
        for node_id in victims:
            self._metrics.bump("fault_relay_kills")
            if trace.enabled:
                for item_id in agents[node_id].roles.relay_items():
                    trace.emit(
                        events.FaultRelayKilled(
                            time=self._sim.now, node=node_id, item=item_id
                        )
                    )
            self._crash_node(node_id, wipe=False)
            if spec.down_for is not None:
                self._sim.schedule(spec.down_for, self._reboot_node, node_id)

    # ------------------------------------------------------------------
    # Link hooks (consulted by Network.unicast)
    # ------------------------------------------------------------------
    def unicast_hop_lost(self, node_a: int, node_b: int) -> bool:
        """Bursty-loss decision for one hop transmission ``a -> b``."""
        if not self._bursty:
            return False
        now = self._sim.now
        low, high = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        for index, spec in enumerate(self._bursty):
            if now < spec.start or (spec.end is not None and now >= spec.end):
                continue
            key = (index, low, high)
            chain = self._chains.get(key)
            if chain is None:
                chain = self._chains[key] = GilbertElliott(
                    spec.p_good_bad,
                    spec.p_bad_good,
                    spec.loss_good,
                    spec.loss_bad,
                    self._ge_rng,
                )
            if chain.sample_loss():
                self._metrics.bump("fault_hops_lost_bursty")
                return True
        return False

    def extra_delay(self) -> float:
        """Additional delivery delay from every active jitter window."""
        if not self._jitters:
            return 0.0
        now = self._sim.now
        total = 0.0
        for spec in self._jitters:
            if now < spec.start or (spec.end is not None and now >= spec.end):
                continue
            if spec.max_delay > 0:
                total += self._jitter_rng.uniform(0.0, spec.max_delay)
        return total

    def duplicate(self) -> bool:
        """Should this unicast delivery be duplicated?"""
        if not self._jitters:
            return False
        now = self._sim.now
        for spec in self._jitters:
            if now < spec.start or (spec.end is not None and now >= spec.end):
                continue
            if (
                spec.duplicate_rate > 0
                and self._jitter_rng.random() < spec.duplicate_rate
            ):
                self._metrics.bump("fault_messages_duplicated")
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def active_partition_count(self) -> int:
        """Partitions currently in force (tests/diagnostics)."""
        return len(self._active_partitions)
