"""The mobile host: composition of every per-node substrate.

A :class:`MobileHost` is one peer ``M_i`` of the system model (Section 3):
it sources exactly one master copy, caches up to ``C_Num`` foreign items,
roams per its mobility model, drains a battery, flips online/offline, and
delegates all consistency traffic to an attached *agent* (one of the
strategy implementations in :mod:`repro.consistency`).

The agent duck-interface the host calls into:

* ``handle_message(message)`` — a network message arrived;
* ``on_reconnect()`` — the host just came back online;
* ``on_disconnect()`` — the host just went offline;
* ``on_local_update(master)`` — this host updated its master copy;
* ``on_period_closed()`` — a coefficient period just rolled over.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cache.directory import CacheDirectory
from repro.cache.item import MasterCopy
from repro.cache.replacement import CachePolicy
from repro.cache.store import CacheStore
from repro.energy.battery import Battery
from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.subnets import SubnetTracker
from repro.mobility.terrain import Point
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.peers.coefficients import CoefficientTracker
from repro.peers.switching import SwitchingProcess
from repro.sim.engine import Simulator

__all__ = ["MobileHost"]


class MobileHost(NetworkNode):
    """One peer of the MP2P system.

    Parameters
    ----------
    host_id:
        Unique identifier ``M_i``.
    sim:
        Event kernel.
    mobility:
        Trajectory of this host.
    battery:
        Energy store; a fresh default battery when omitted.
    cache_capacity:
        ``C_Num`` — number of foreign items this host can cache.
    directory:
        Optional global cache directory kept current by this host's store.
    coefficient_tracker:
        PAR/PSR/PMR accumulator; a default tracker when omitted.
    subnet_tracker:
        Supplies subnet-crossing counts (``N_m``) per coefficient period.
    replacement_policy:
        Victim-selection policy of this host's cache store (LRU when
        omitted).  Must be a fresh instance per host — stateful policies
        track per-store history.
    """

    __slots__ = (
        "_state_listener",
        "_host_id",
        "sim",
        "mobility",
        "battery",
        "store",
        "tracker",
        "subnet_tracker",
        "_online",
        "agent",
        "source_item",
        "switching",
        "period_started_at",
        "offline_time",
        "_went_offline_at",
        "messages_handled",
    )

    def __init__(
        self,
        host_id: int,
        sim: Simulator,
        mobility: MobilityModel,
        battery: Optional[Battery] = None,
        cache_capacity: int = 10,
        directory: Optional[CacheDirectory] = None,
        coefficient_tracker: Optional[CoefficientTracker] = None,
        subnet_tracker: Optional[SubnetTracker] = None,
        replacement_policy: Optional[CachePolicy] = None,
    ) -> None:
        self._state_listener = None
        self._host_id = int(host_id)
        self.sim = sim
        self.mobility = mobility
        self.battery = battery if battery is not None else Battery()
        on_insert = on_evict = None
        if directory is not None:
            on_insert, on_evict = directory.bind_store(self._host_id)
        self.store = CacheStore(cache_capacity, replacement_policy, on_insert, on_evict)
        self.tracker = (
            coefficient_tracker if coefficient_tracker is not None else CoefficientTracker()
        )
        self.subnet_tracker = subnet_tracker
        self._online = True
        self.agent: Any = None
        self.source_item: Optional[MasterCopy] = None
        self.switching: Optional[SwitchingProcess] = None
        self.period_started_at = 0.0  # the open coefficient period's start
        self.offline_time = 0.0
        self._went_offline_at: Optional[float] = None
        self.messages_handled = 0

    # ------------------------------------------------------------------
    # NetworkNode interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._host_id

    @property
    def online(self) -> bool:
        return self._online

    def current_position(self) -> Point:
        return self.mobility.position(self.sim.now)

    def position_valid_until(self) -> float:
        return self.mobility.position_valid_until(self.sim.now)

    def deliver(self, message: Message) -> None:
        self.messages_handled += 1
        if self.agent is not None:
            self.agent.handle_message(message)

    def on_transmit(self, message: Message) -> None:
        self.battery.on_transmit(message.size_bytes)

    def on_receive(self, message: Message) -> None:
        self.battery.on_receive(message.size_bytes)

    def on_relay(self, message: Message) -> None:
        self.battery.on_relay(message.size_bytes)

    # ------------------------------------------------------------------
    # Source-host role
    # ------------------------------------------------------------------
    def attach_source(self, master: MasterCopy) -> None:
        """Install the master copy this host is the source of."""
        if master.source_id != self._host_id:
            raise ConfigurationError(
                f"host {self._host_id} cannot source item {master.item_id} "
                f"owned by host {master.source_id}"
            )
        self.source_item = master

    def update_master(self) -> int:
        """Apply one update to this host's master copy (workload hook)."""
        if self.source_item is None:
            raise ConfigurationError(f"host {self._host_id} has no source item")
        version = self.source_item.update(self.sim.now)
        if self.agent is not None:
            self.agent.on_local_update(self.source_item)
        return version

    # ------------------------------------------------------------------
    # Online/offline switching
    # ------------------------------------------------------------------
    def set_online(self, online: bool) -> None:
        """Flip the connectivity status (called by the switching process)."""
        if online == self._online:
            return
        self._online = online
        # Invalidate cached topology snapshots before any agent reaction:
        # reconnect/disconnect handlers send traffic straight away.
        self.notify_state_change()
        self.tracker.record_switch()
        if online:
            if self._went_offline_at is not None:
                self.offline_time += self.sim.now - self._went_offline_at
                self._went_offline_at = None
            if self.agent is not None:
                self.agent.on_reconnect()
        else:
            self._went_offline_at = self.sim.now
            if self.agent is not None:
                self.agent.on_disconnect()

    # ------------------------------------------------------------------
    # Fault-injection hooks
    # ------------------------------------------------------------------
    def crash(self, wipe_cache: bool = False) -> None:
        """Drop offline abruptly (fault injection; no protocol goodbye).

        ``wipe_cache`` models storage that did not survive the crash:
        every cached copy is discarded through the store (keeping the
        global directory consistent) *and* reported to the agent's
        eviction hook, so relay roles and poll state are torn down the
        same way a capacity eviction would.  The master copy always
        survives — the source host *is* the ground truth.  Going offline
        first means the teardown's protocol messages (relay
        resignations, say) are counted as undeliverable rather than
        magically escaping a dead radio.
        """
        self.set_online(False)
        if wipe_cache:
            # The store only notifies the directory; the agent hook must
            # be driven explicitly, exactly as the query path does.
            for item_id in self.store.item_ids:
                self.store.discard(item_id)
                if self.agent is not None:
                    self.agent.on_copy_evicted(item_id)

    def reboot(self) -> None:
        """Come back online after a :meth:`crash` (fault injection)."""
        self.set_online(True)

    # ------------------------------------------------------------------
    # Coefficient period upkeep
    # ------------------------------------------------------------------
    def close_period(self) -> None:
        """Close the open coefficient period and open the next (the world's
        clock calls this for every host, in order, every ``tracker.phi``)."""
        now = self.sim.now
        if self.subnet_tracker is not None:
            moves = self.subnet_tracker.crossings_between(self.period_started_at, now)
            self.tracker.record_moves(moves)
        self.period_started_at = now
        self.tracker.set_energy_fraction(self.battery.fraction)
        self.battery.idle(self.tracker.phi)
        self.tracker.close_period()
        if self.agent is not None:
            self.agent.on_period_closed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "online" if self._online else "offline"
        return f"MobileHost(id={self._host_id}, {status}, cached={len(self.store)})"
