"""Behavioural tests for the RPCC protocol: promotion, push, pull, queries.

The worlds are small lines of stationary hosts so that flood reach and
hop counts are exactly predictable.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.consistency.rpcc.roles import Role

from tests.conftest import line_positions, make_eligible, make_world


def rpcc_world(count=4, **config_kwargs):
    defaults = dict(
        ttl_invalidation=3,
        ttn=100.0,
        ttr=75.0,
        ttp=200.0,
        poll_timeout=2.0,
    )
    defaults.update(config_kwargs)
    config = RPCCConfig(**defaults)
    world = make_world(
        line_positions(count),
        lambda ctx: RPCCStrategy(ctx, config),
    )
    return world


def promote(world, node_id, item_id):
    """Make a node an eligible relay for an item it caches, via protocol."""
    world.give_copy(node_id, item_id)
    make_eligible(world.host(node_id))
    world.strategy.start()
    world.run(110.0)  # one invalidation interval: APPLY + APPLY_ACK
    return world.agent(node_id)


class TestPromotion:
    def test_eligible_holder_becomes_relay(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        assert agent.roles.is_relay(3)
        source_side = world.agent(3).source
        assert 1 in source_side.relay_table

    def test_ineligible_holder_stays_cache_node(self):
        world = rpcc_world()
        world.give_copy(1, 3)  # eligibility not forced
        world.strategy.start()
        world.run(250.0)
        assert world.agent(1).roles.role(3) is Role.CACHE_NODE

    def test_out_of_ttl_holder_never_hears_invalidation(self):
        world = rpcc_world(count=6, ttl_invalidation=2)
        world.give_copy(5, 0)  # five hops from source 0
        make_eligible(world.host(5))
        world.strategy.start()
        world.run(300.0)
        assert world.agent(5).roles.role(0) is Role.CACHE_NODE

    def test_promotion_counted(self):
        world = rpcc_world()
        promote(world, 1, 3)
        assert world.metrics.counter("rpcc_promotions") == 1

    def test_demotion_on_failed_coefficients(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        # Make the node unstable: next period close demotes it.
        world.host(1).tracker.record_switch()
        world.host(1).tracker.record_switch()
        world.host(1).tracker.close_period()
        agent.on_period_closed()
        assert not agent.roles.is_relay(3)
        world.run(1.0)
        assert 1 not in world.agent(3).source.relay_table  # CANCEL arrived

    def test_eviction_resigns_relay_role(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        world.host(1).store.discard(3)
        agent.on_copy_evicted(3)
        world.run(1.0)
        assert not agent.roles.is_relay(3)
        assert 1 not in world.agent(3).source.relay_table

    def test_candidate_promoted_via_update_when_ack_lost(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        agent = world.agent(1)
        agent.roles.become_candidate(3)
        # Source believes 1 is a relay (ACK was lost after registration).
        world.agent(3).source.relay_table.add(1)
        world.update_item(3)
        world.strategy.start()
        world.run(110.0)  # UPDATE pushed at the TTN boundary
        assert agent.roles.is_relay(3)
        assert world.metrics.counter("rpcc_promoted_via_update") == 1

    def test_cache_node_receiving_update_cancels(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        world.agent(3).source.relay_table.add(1)  # stale relay table entry
        world.update_item(3)
        world.strategy.start()
        world.run(110.0)
        assert 1 not in world.agent(3).source.relay_table


class TestPushSide:
    def test_update_pushed_to_relays_at_ttn(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.update_item(3)
        world.run(110.0)
        assert world.host(1).store.peek(3).version == 1
        assert world.metrics.traffic.messages("Update") >= 1

    def test_no_update_message_when_nothing_changed(self):
        world = rpcc_world()
        promote(world, 1, 3)
        before = world.metrics.traffic.messages("Update")
        world.run(200.0)
        assert world.metrics.traffic.messages("Update") == before

    def test_relay_ttr_renewed_by_invalidation(self):
        world = rpcc_world(ttn=100.0, ttr=75.0)
        agent = promote(world, 1, 3)
        world.run(100.0)  # another invalidation
        assert agent.relay.ttr_remaining(3) > 0

    def test_reconnected_relay_resyncs_with_get_new(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        world.host(1).set_online(False)
        world.update_item(3)
        world.run(150.0)  # misses the UPDATE push
        world.host(1).set_online(True)
        world.run(110.0)  # next INVALIDATION triggers GET_NEW/SEND_NEW
        assert world.host(1).store.peek(3).version == 1
        assert world.metrics.traffic.messages("GetNew") >= 1
        assert world.metrics.traffic.messages("SendNew") >= 1


class TestQueryHandling:
    def test_weak_answered_immediately(self):
        world = rpcc_world()
        world.give_copy(0, 2)
        record = world.agent(0).local_query(2, ConsistencyLevel.WEAK)
        assert record.answered
        assert record.latency == 0.0

    def test_delta_within_ttp_answered_immediately(self):
        world = rpcc_world()
        world.give_copy(0, 2)
        world.agent(0).cache_peer.renew_ttp(2)
        record = world.agent(0).local_query(2, ConsistencyLevel.DELTA)
        assert record.answered

    def test_delta_after_ttp_expiry_polls(self):
        world = rpcc_world(ttp=50.0)
        world.give_copy(0, 2)
        world.agent(0).cache_peer.renew_ttp(2)
        world.run(60.0)  # TTP expired
        record = world.agent(0).local_query(2, ConsistencyLevel.DELTA)
        assert not record.answered  # poll in flight
        world.run(30.0)
        assert record.answered

    def test_strong_always_polls(self):
        world = rpcc_world()
        world.give_copy(0, 2)
        world.agent(0).cache_peer.renew_ttp(2)
        record = world.agent(0).local_query(2, ConsistencyLevel.STRONG)
        assert not record.answered
        world.run(30.0)
        assert record.answered

    def test_relay_with_open_ttr_answers_any_level_locally(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        # TTR opens at the first INVALIDATION processed *as a relay*.
        world.run(100.0)
        assert agent.relay.ttr_remaining(3) > 0
        record = agent.local_query(3, ConsistencyLevel.STRONG)
        assert record.answered
        assert record.served_locally

    def test_poll_answered_by_nearby_relay(self):
        world = rpcc_world()
        agent1 = promote(world, 1, 3)
        world.give_copy(2, 3)
        tx_before = world.metrics.traffic.messages("Poll")
        record = world.agent(2).local_query(3, ConsistencyLevel.STRONG)
        world.run(10.0)
        assert record.answered
        assert world.metrics.traffic.messages("PollAckA") >= 1

    def test_stale_poller_gets_content_via_ack_b(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.update_item(3)
        world.run(110.0)  # relay refreshed to v1
        world.give_copy(2, 3, version=0)
        record = world.agent(2).local_query(3, ConsistencyLevel.STRONG)
        world.run(10.0)
        assert record.answered
        assert record.served_version == 1
        assert world.host(2).store.peek(3).version == 1
        assert world.metrics.traffic.messages("PollAckB") >= 1

    def test_poller_remembers_relay_and_unicasts(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.run(100.0)  # relay TTR open
        world.give_copy(2, 3)
        world.agent(2).local_query(3, ConsistencyLevel.STRONG)
        world.run(10.0)
        # The relay (node 1), not the source, must be remembered.
        assert world.agent(2).cache_peer._known_relay.get(3) == 1

    def test_no_relay_falls_back_to_source_broadcast(self):
        # Poller 4 hops from the source: the TTL-3 poll flood cannot reach
        # it, so the TTL-8 broadcast stage must.
        world = rpcc_world(count=6)
        world.give_copy(4, 0)
        world.strategy.start()
        record = world.agent(4).local_query(0, ConsistencyLevel.STRONG)
        world.run(30.0)
        assert record.answered
        assert world.metrics.counter("rpcc_poll_fallback_source") >= 1

    def test_everything_unreachable_serves_stale(self):
        world = rpcc_world(count=2)
        world.give_copy(1, 0, version=0)
        world.host(0).set_online(False)
        record = world.agent(1).local_query(0, ConsistencyLevel.STRONG)
        world.run(60.0)
        assert record.answered
        assert world.metrics.counter("rpcc_forced_stale") == 1


class TestRelayHold:
    """Geometry: line of 6; source 0, relay 1, poller 4.

    The poller's TTL-3 flood reaches the relay (3 hops) but not the
    source (4 hops), so the relay's dead-window behaviour is isolated.
    """

    def make_held_world(self, **kwargs):
        defaults = dict(ttn=100.0, ttr=10.0, count=6)
        defaults.update(kwargs)
        world = rpcc_world(**defaults)
        agent = promote(world, 1, 0)
        # Past the second INVALIDATION (t=200) and the 10 s TTR window it
        # opened: the relay is now mid dead-window until t=300.
        world.run(150.0)
        assert agent.relay.ttr_remaining(0) == 0.0
        world.give_copy(4, 0)
        return world

    def test_relay_queues_poll_and_sends_hold(self):
        world = self.make_held_world()
        record = world.agent(4).local_query(0, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert world.metrics.counter("rpcc_poll_queued_at_relay") >= 1
        assert world.metrics.counter("rpcc_poll_held") >= 1
        assert not record.answered  # waiting for the next INVALIDATION

    def test_held_poll_answered_after_invalidation(self):
        world = self.make_held_world()
        record = world.agent(4).local_query(0, ConsistencyLevel.STRONG)
        world.run(120.0)  # next INVALIDATION renews TTR and drains queue
        assert record.answered
