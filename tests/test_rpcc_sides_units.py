"""Focused unit tests for the RPCC source/relay sides and config flags."""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import Apply, Cancel, GetNew, Poll
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.consistency.rpcc.source import SourceSide

from tests.conftest import line_positions, make_eligible, make_world


def rpcc_world(count=4, **config_kwargs):
    defaults = dict(
        ttl_invalidation=3, ttn=100.0, ttr=75.0, ttp=200.0,
        poll_timeout=2.0,
    )
    defaults.update(config_kwargs)
    config = RPCCConfig(**defaults)
    return make_world(line_positions(count), lambda ctx: RPCCStrategy(ctx, config))


class TestSourceSide:
    def test_ignores_messages_for_foreign_items(self):
        world = rpcc_world()
        source = world.agent(0).source
        before = world.network.messages_sent
        source.handle_get_new(GetNew(sender=1, item_id=2))  # not ours
        source.handle_apply(Apply(sender=1, item_id=2))
        source.handle_poll(Poll(sender=1, item_id=2, version=0, poll_id=9))
        assert world.network.messages_sent == before
        assert source.relay_table == set()

    def test_cancel_from_unknown_peer_harmless(self):
        world = rpcc_world()
        world.agent(0).source.handle_cancel(Cancel(sender=9, item_id=0))

    def test_direct_poll_fresh_gets_ack_a(self):
        world = rpcc_world()
        world.give_copy(1, 0)
        world.agent(0).source.handle_poll(
            Poll(sender=1, item_id=0, version=0, poll_id=1)
        )
        world.run(1.0)
        assert world.metrics.traffic.messages("PollAckA") == 1

    def test_direct_poll_stale_gets_ack_b_with_content(self):
        world = rpcc_world()
        world.give_copy(1, 0, version=0)
        world.update_item(0)
        world.agent(0).source.handle_poll(
            Poll(sender=1, item_id=0, version=0, poll_id=2)
        )
        world.run(1.0)
        acks = world.metrics.traffic.by_type()["PollAckB"]
        assert acks.messages == 1
        assert acks.bytes > 500  # carried the 1000-byte payload

    def test_timer_stagger_distinct_per_source(self, monkeypatch):
        world = rpcc_world()
        ticks = []
        on_ttn = SourceSide._on_ttn

        def noted(source):
            ticks.append((source.agent.node_id, world.sim.now))
            on_ttn(source)

        monkeypatch.setattr(SourceSide, "_on_ttn", noted)
        world.strategy.start()
        world.run(100.0)
        # Each source ticked exactly once in 100 s (one TTN) ...
        assert sorted(node for node, _ in ticks) == [0, 1, 2, 3]
        # ... at a phase of its own: node ids stagger the first ticks.
        assert len({time for _, time in ticks}) == 4
        assert world.metrics.traffic.messages("Invalidation") == 4

    def test_batched_update_push_waits_for_ttn(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        world.strategy.start()
        world.run(110.0)
        before = world.metrics.traffic.messages("Update")
        world.update_item(3)
        world.run(1.0)
        assert world.metrics.traffic.messages("Update") == before  # batched

    def test_only_one_update_per_ttn_despite_many_writes(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        world.strategy.start()
        world.run(110.0)
        before = world.metrics.traffic.messages("Update")
        for _ in range(5):
            world.update_item(3)
        world.run(110.0)
        assert world.metrics.traffic.messages("Update") == before + 1
        assert world.host(1).store.peek(3).version == 5


class TestRelaySide:
    def promote(self, world, node_id=1, item_id=3):
        world.give_copy(node_id, item_id)
        make_eligible(world.host(node_id))
        world.strategy.start()
        world.run(110.0)
        agent = world.agent(node_id)
        assert agent.roles.is_relay(item_id)
        return agent

    def test_forget_clears_all_state(self):
        world = rpcc_world()
        agent = self.promote(world)
        world.run(100.0)
        assert agent.relay.ttr_remaining(3) > 0
        agent.relay.forget(3)
        assert agent.relay.ttr_remaining(3) == 0.0
        assert agent.relay.queued_poll_count(3) == 0

    def test_duplicate_get_new_suppressed(self):
        world = rpcc_world()
        agent = self.promote(world)
        world.host(1).set_online(False)
        world.update_item(3)
        world.update_item(3)
        world.run(150.0)
        world.host(1).set_online(True)
        before = world.metrics.traffic.messages("GetNew")
        # Two invalidations arrive before SEND_NEW could be processed if
        # the relay spammed; the _awaiting guard sends exactly one.
        world.run(110.0)
        assert world.metrics.traffic.messages("GetNew") == before + 1

    def test_poll_for_unheld_item_ignored(self):
        world = rpcc_world()
        agent = self.promote(world)
        # Force-mark as relay for an item it does not cache.
        agent.roles.promote(2)
        before = world.network.messages_sent
        agent.relay.on_poll(Poll(sender=2, item_id=2, version=0, poll_id=7))
        assert world.network.messages_sent == before

    def test_queued_polls_drained_in_order(self):
        world = rpcc_world(ttn=100.0, ttr=10.0, count=6)
        world.give_copy(1, 0)
        make_eligible(world.host(1))
        world.strategy.start()
        world.run(150.0)  # mid dead-window
        agent = world.agent(1)
        assert agent.relay.ttr_remaining(0) == 0.0
        for poll_id in (101, 102, 103):
            agent.relay.on_poll(
                Poll(sender=4, item_id=0, version=0, poll_id=poll_id)
            )
        assert agent.relay.queued_poll_count(0) == 3
        world.run(100.0)  # next INVALIDATION drains
        assert agent.relay.queued_poll_count(0) == 0

    def test_old_update_does_not_downgrade(self):
        from repro.consistency.messages import Update

        world = rpcc_world()
        agent = self.promote(world)
        copy = world.host(1).store.peek(3)
        copy.refresh(5, world.sim.now)
        agent.relay.on_update(
            Update(sender=3, item_id=3, version=2, content_size=100)
        )
        assert world.host(1).store.peek(3).version == 5


class TestQueryLevelRouting:
    def test_delta_uses_config_delta_for_audit(self):
        world = rpcc_world(ttp=50.0)
        world.context.delta = 50.0
        world.give_copy(0, 2)
        world.agent(0).cache_peer.renew_ttp(2)
        world.update_item(2)  # copy is one version behind
        record = world.agent(0).local_query(2, ConsistencyLevel.DELTA)
        assert record.answered  # TTP open: served immediately
        # Served within delta of the update -> no violation.
        assert world.metrics.staleness.violations("delta") == 0
