"""Unit tests for the mobile host composition and the switching process."""

import math

import pytest

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.errors import ConfigurationError
from repro.metrics.counters import MessageCounters
from repro.mobility.stationary import Stationary
from repro.mobility.terrain import Point
from repro.peers.host import MobileHost
from repro.peers.switching import SwitchingProcess
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, SwitchClock

#: Seed of the switches built here (the ``rng`` fixture's, so the draws are its).
SEED = 12345


class RecordingAgent:
    """Agent stub recording lifecycle hook invocations."""

    def __init__(self):
        self.events = []

    def handle_message(self, message):
        self.events.append(("message", message))

    def on_reconnect(self):
        self.events.append(("reconnect",))

    def on_disconnect(self):
        self.events.append(("disconnect",))

    def on_local_update(self, master):
        self.events.append(("update", master.version))

    def on_period_closed(self):
        self.events.append(("period",))


def make_host(sim, host_id=0, directory=None):
    return MobileHost(
        host_id,
        sim,
        Stationary(Point(0, 0)),
        cache_capacity=4,
        directory=directory,
    )


class TestMobileHost:
    def test_network_node_interface(self, sim):
        host = make_host(sim)
        assert host.node_id == 0
        assert host.online
        assert host.current_position() == Point(0, 0)

    def test_deliver_routes_to_agent(self, sim):
        host = make_host(sim)
        agent = RecordingAgent()
        host.agent = agent
        from repro.net.message import Message

        host.deliver(Message(sender=1))
        assert agent.events[0][0] == "message"
        assert host.messages_handled == 1

    def test_deliver_without_agent_is_safe(self, sim):
        from repro.net.message import Message

        make_host(sim).deliver(Message(sender=1))

    def test_radio_hooks_drain_battery(self, sim):
        host = make_host(sim)
        from repro.net.message import Message

        start = host.battery.level
        host.on_transmit(Message(sender=0, size_bytes=100))
        host.on_receive(Message(sender=0, size_bytes=100))
        assert host.battery.level < start

    def test_attach_source_validates_owner(self, sim):
        host = make_host(sim, host_id=1)
        catalog = Catalog.one_item_per_host(range(3))
        with pytest.raises(ConfigurationError):
            host.attach_source(catalog.master(2))

    def test_update_master(self, sim):
        host = make_host(sim, host_id=1)
        catalog = Catalog.one_item_per_host(range(3))
        host.attach_source(catalog.master(1))
        agent = RecordingAgent()
        host.agent = agent
        assert host.update_master() == 1
        assert ("update", 1) in agent.events

    def test_update_master_without_source_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            make_host(sim).update_master()

    def test_set_online_toggles_and_notifies(self, sim):
        host = make_host(sim)
        agent = RecordingAgent()
        host.agent = agent
        host.set_online(False)
        assert not host.online
        host.set_online(True)
        assert host.online
        assert ("disconnect",) in agent.events
        assert ("reconnect",) in agent.events
        assert host.tracker.psr == 0.0  # switches counted but period open

    def test_set_online_idempotent(self, sim):
        host = make_host(sim)
        host.set_online(True)  # already online
        host.set_online(False)
        host.set_online(False)
        host.tracker.close_period()
        # only one real flip happened
        assert host.tracker.psr == pytest.approx(1 * 0.8)

    def test_set_online_invalidates_registered_network(self, sim):
        from repro.net.network import Network

        network = Network(sim, radio_range=150.0, traffic=MessageCounters())
        host = make_host(sim)
        network.register(host)
        cached = network.snapshot()
        host.set_online(False)
        fresh = network.snapshot()
        assert fresh is not cached
        assert host.node_id not in fresh

    def test_set_online_notifies_before_agent_reacts(self, sim):
        # A reconnect handler that sends immediately must see a topology
        # that already includes this host.
        from repro.net.network import Network

        network = Network(sim, radio_range=150.0, traffic=MessageCounters())
        host = make_host(sim)
        network.register(host)
        seen = []

        class ProbeAgent(RecordingAgent):
            def on_reconnect(self):
                seen.append(host.node_id in network.snapshot())

        host.agent = ProbeAgent()
        host.set_online(False)
        host.set_online(True)
        assert seen == [True]

    def test_offline_time_accounted(self, sim):
        host = make_host(sim)
        sim.run_until(10.0)
        host.set_online(False)
        sim.run_until(25.0)
        host.set_online(True)
        assert host.offline_time == pytest.approx(15.0)

    def test_period_timer_closes_periods(self, sim):
        host = make_host(sim)
        agent = RecordingAgent()
        host.agent = agent
        PeriodicTimer(sim, host.tracker.phi, host.close_period).start()
        sim.run_until(host.tracker.phi * 2)
        assert host.tracker.periods_closed == 2
        assert agent.events.count(("period",)) == 2

    def test_period_timer_updates_energy_fraction(self, sim):
        host = make_host(sim)
        host.battery.consume(host.battery.capacity / 2)
        PeriodicTimer(sim, host.tracker.phi, host.close_period).start()
        sim.run_until(host.tracker.phi)
        assert host.tracker.ce == pytest.approx(0.5, abs=0.01)

    def test_store_bound_to_directory(self, sim):
        directory = CacheDirectory()
        host = make_host(sim, host_id=3, directory=directory)
        from repro.cache.item import CachedCopy

        host.store.put(CachedCopy(9, 0, 100, 0.0))
        assert directory.holders(9) == {3}


def _clocked(sim, seed, on_flip, **means):
    """A switch on a one-member switch clock: how it runs standalone."""
    process = SwitchingProcess(seed, **means)
    clock = SwitchClock(sim, lambda member: on_flip(member.online))
    return process, clock


class TestSwitchingProcess:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            SwitchingProcess(SEED, mean_online=0.0)
        with pytest.raises(ConfigurationError):
            SwitchingProcess(SEED, mean_offline=0.0)

    def test_alternates_states(self, sim):
        flips = []
        process, clock = _clocked(sim, SEED, flips.append, mean_online=10.0, mean_offline=10.0)
        clock.start([process])
        sim.run_until(200.0)
        assert len(flips) >= 2
        # strict alternation starting with a disconnect
        assert flips[0] is False
        assert all(a != b for a, b in zip(flips, flips[1:]))

    @pytest.mark.parametrize(
        ("name", "value"),
        [("mean_online", math.nan), ("mean_offline", math.nan), ("mean_offline", math.inf)],
    )
    def test_unusable_means_rejected(self, name, value):
        # A NaN mean_online used to make a silently stable host.
        with pytest.raises(ConfigurationError, match=name):
            SwitchingProcess(SEED, **{name: value})

    def test_infinite_mean_disables(self, sim):
        flips = []
        process, clock = _clocked(sim, SEED, flips.append, mean_online=math.inf, mean_offline=10.0)
        assert not process.enabled
        clock.start([process])
        assert sim.pending_events == 0
        sim.run_until(1000.0)
        assert flips == []

    def test_flip_counter(self, sim):
        process, clock = _clocked(sim, SEED, lambda f: None, mean_online=5.0, mean_offline=5.0)
        clock.start([process])
        sim.run_until(100.0)
        assert process.flips > 0

    def test_deterministic_given_rng(self, sim):
        def run_once():
            local_sim = Simulator()
            flips = []
            process, clock = _clocked(
                local_sim, 42, lambda f: flips.append(local_sim.now),
                mean_online=10.0, mean_offline=5.0,
            )
            clock.start([process])
            local_sim.run_until(300.0)
            return flips

        assert run_once() == run_once()
