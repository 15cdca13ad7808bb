"""Tests for the future-work and ablation variants of RPCC."""

from repro.consistency.rpcc import RPCCConfig
from repro.consistency.rpcc.relay_control import MAX_RELAYS, ControlledRPCCStrategy
from repro.consistency.rpcc.selection_ablation import RandomSelectionRPCCStrategy

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
