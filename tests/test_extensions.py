"""Tests for the future-work extensions and ablation strategies."""

import random

import pytest

from repro.consistency.rpcc import RPCCConfig
from repro.errors import ProtocolError
from repro.extensions.relay_control import MAX_RELAYS, ControlledRPCCStrategy
from repro.extensions.replica import GossipReplication, ReplicatedRegister, WriteTag
from repro.extensions.selection_ablation import RandomSelectionRPCCStrategy

from tests.conftest import line_positions, make_eligible, make_world


class TestRelayControl:
    """Line of 7 with the source (node 3) in the middle: every other node
    is within the 3-hop invalidation flood, so up to six can apply."""

    def make(self):
        config = RPCCConfig(ttn=100.0, ttr=75.0, poll_timeout=2.0)
        return make_world(
            line_positions(7), lambda ctx: ControlledRPCCStrategy(ctx, config)
        )

    def test_cap_enforced(self):
        world = self.make()
        for node in (1, 2, 4, 5, 6):
            world.give_copy(node, 3)
            make_eligible(world.host(node))
        world.strategy.start()
        world.run(400.0)
        assert MAX_RELAYS == 3
        assert len(world.agent(3).source.relay_table) == MAX_RELAYS
        assert world.metrics.counter("rpcc_apply_rejected_cap") >= 1

    def test_candidates_up_to_the_cap_all_accepted(self):
        world = self.make()
        for node in (2, 4, 5):
            world.give_copy(node, 3)
            make_eligible(world.host(node))
        world.strategy.start()
        world.run(200.0)
        assert len(world.agent(3).source.relay_table) == 3
        assert world.metrics.counter("rpcc_apply_rejected_cap") == 0

    def test_slot_reopens_after_cancel(self):
        world = self.make()
        for node in (2, 4, 5):
            world.give_copy(node, 3)
            make_eligible(world.host(node))
        world.strategy.start()
        world.run(110.0)
        assert all(world.agent(node).roles.is_relay(3) for node in (2, 4, 5))
        # Relay 2 loses its copy and resigns; node 1 takes the open slot
        # at the next invalidation round.
        world.host(2).store.discard(3)
        world.agent(2)._resign(3)
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        world.run(400.0)
        assert world.agent(1).roles.is_relay(3)


class StubAgentStrategy:
    """Bare strategy so make_world can run without protocol logic."""

    def __init__(self, context):
        self.context = context
        self.agents = {}

    def make_agent(self, host):
        return None

    def start(self):
        pass


class TestReplicatedRegister:
    def test_write_bumps_tag(self):
        register = ReplicatedRegister(1, 0)
        tag = register.write(42)
        assert tag == WriteTag(1, 1)
        assert register.read() == (42, tag)

    def test_merge_takes_newer(self):
        register = ReplicatedRegister(1, 0)
        register.write(1)
        assert register.merge(WriteTag(5, 2), 99)
        assert register.read()[0] == 99

    def test_merge_rejects_older(self):
        register = ReplicatedRegister(1, 0)
        register.write(1)
        register.write(2)
        assert not register.merge(WriteTag(1, 9), 99)
        assert register.read()[0] == 2

    def test_tie_broken_by_writer_id(self):
        register = ReplicatedRegister(1, 0)
        register.write(10)  # tag (1, 1)
        assert register.merge(WriteTag(1, 2), 20)  # same clock, higher writer
        assert register.read()[0] == 20

    def test_lamport_clock_absorbs_remote(self):
        register = ReplicatedRegister(1, 0)
        register.merge(WriteTag(10, 2), 5)
        tag = register.write(7)
        assert tag.lamport == 11  # clock advanced past the remote write


class TestGossipReplication:
    def make(self, holders=4):
        world = make_world(line_positions(holders), StubAgentStrategy)
        replication = GossipReplication(
            world.sim,
            world.network,
            item_id=0,
            holders=list(range(holders)),
            rng=random.Random(5),
            gossip_interval=10.0,
        )
        return world, replication

    def test_needs_two_holders(self):
        world = make_world(line_positions(2), StubAgentStrategy)
        with pytest.raises(ProtocolError):
            GossipReplication(
                world.sim, world.network, 0, [0], random.Random(1)
            )

    def test_single_write_converges(self):
        world, replication = self.make()
        replication.start()
        replication.write(0, 42)
        world.run(300.0)
        assert replication.converged()
        assert all(
            replication.read(node)[0] == 42 for node in range(4)
        )

    def test_concurrent_writes_converge_to_one_winner(self):
        world, replication = self.make()
        replication.start()
        replication.write(0, 10)
        replication.write(3, 30)  # same Lamport clock: writer 3 wins ties
        world.run(400.0)
        assert replication.converged()
        assert replication.distinct_values() == 1
        assert replication.read(1)[0] == 30

    def test_later_write_beats_earlier(self):
        world, replication = self.make()
        replication.start()
        replication.write(0, 10)
        world.run(100.0)  # converge on 10 (clock advances everywhere)
        replication.write(2, 20)
        world.run(300.0)
        assert replication.converged()
        assert replication.read(0)[0] == 20

    def test_offline_holder_catches_up(self):
        world, replication = self.make()
        replication.start()
        world.host(3).set_online(False)
        replication.write(0, 77)
        world.run(200.0)
        assert replication.read(3)[0] != 77 or replication.converged() is False
        world.host(3).set_online(True)
        world.run(300.0)
        assert replication.converged()
        assert replication.read(3)[0] == 77


class TestRandomSelectionAblation:
    def test_promotes_without_eligibility(self):
        config = RPCCConfig(ttn=100.0, ttr=75.0, poll_timeout=2.0)
        world = make_world(
            line_positions(4),
            lambda ctx: RandomSelectionRPCCStrategy(ctx, config, seed=1),
        )
        world.give_copy(1, 3)  # NOT made eligible
        world.strategy.start()
        # A coin per INVALIDATION heard: ten of them all failing at 0.4
        # would be a 0.6 % draw, and the seeded coins make it repeatable.
        world.run(1000.0)
        assert world.agent(1).roles.is_relay(3)
