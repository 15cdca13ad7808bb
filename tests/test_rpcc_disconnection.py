"""Section 4.5 edge cases: disconnection/reconnection handling in RPCC.

Each test reproduces one failure narrative from the paper's Section 4.5
(source failure, relay failure, cache-node failure) in a controlled line
world and checks the prescribed recovery.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import Update
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.consistency.rpcc.roles import Role

from tests.conftest import line_positions, make_eligible, make_world


def rpcc_world(count=4, **config_kwargs):
    defaults = dict(
        ttl_invalidation=3, ttn=100.0, ttr=75.0, ttp=200.0,
        poll_timeout=2.0,
    )
    defaults.update(config_kwargs)
    config = RPCCConfig(**defaults)
    return make_world(line_positions(count), lambda ctx: RPCCStrategy(ctx, config))


def promote(world, node_id, item_id):
    world.give_copy(node_id, item_id)
    make_eligible(world.host(node_id))
    world.strategy.start()
    world.run(110.0)
    assert world.agent(node_id).roles.is_relay(item_id)
    return world.agent(node_id)


class TestSourceFailure:
    """Paper: "If the source peer fails, cache peers can not receive the
    INVALIDATION and UPDATE ... strong consistency can be ensured only
    for TTR time"."""

    def test_invalidations_stop_while_source_offline(self):
        world = rpcc_world()
        promote(world, 1, 3)
        before = world.metrics.traffic.messages("Invalidation")
        world.host(3).set_online(False)
        world.run(300.0)
        # The three surviving sources tick 3 times each in 300 s; the
        # offline source contributes nothing.
        delta = world.metrics.traffic.messages("Invalidation") - before
        assert delta == 9

    def test_relay_ttr_expires_without_source(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        world.run(100.0)  # TTR freshly renewed
        world.host(3).set_online(False)
        world.run(200.0)  # well past TTR with no renewals
        assert agent.relay.ttr_remaining(3) == 0.0

    def test_queries_degrade_to_stale_answers(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.host(3).set_online(False)
        world.run(200.0)
        world.give_copy(2, 3)
        record = world.agent(2).local_query(3, ConsistencyLevel.STRONG)
        world.run(60.0)
        assert record.answered  # via queued-relay wait or forced-stale

    def test_source_recovers_and_invalidation_resumes(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        world.host(3).set_online(False)
        world.run(250.0)
        world.host(3).set_online(True)
        world.host(3).update_master()
        world.run(30.0)  # the next TTN tick pushes UPDATE + INVALIDATION
        assert world.host(1).store.peek(3).version == 1
        assert agent.relay.ttr_remaining(3) > 0


class TestRelayFailure:
    """Paper: a relay that missed UPDATEs compares VER at the next
    INVALIDATION and GET_NEWs the fresh copy."""

    def test_multiple_missed_updates_resynced(self):
        world = rpcc_world()
        agent = promote(world, 1, 3)
        world.host(1).set_online(False)
        for _ in range(3):
            world.update_item(3)
            world.run(110.0)
        world.host(1).set_online(True)
        world.run(110.0)
        assert world.host(1).store.peek(3).version == 3

    def test_unchanged_data_needs_no_get_new(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.host(1).set_online(False)
        world.run(150.0)  # no updates happen
        world.host(1).set_online(True)
        before = world.metrics.traffic.messages("GetNew")
        world.run(110.0)
        assert world.metrics.traffic.messages("GetNew") == before

    def test_offline_relay_does_not_answer_polls(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.run(100.0)
        world.host(1).set_online(False)
        world.give_copy(2, 3)
        record = world.agent(2).local_query(3, ConsistencyLevel.STRONG)
        world.run(30.0)
        # Answered by the fallback broadcast reaching the source instead.
        assert record.answered
        assert world.metrics.traffic.messages("PollAckA") + \
            world.metrics.traffic.messages("PollAckB") >= 1

    def test_update_undeliverable_counted_not_fatal(self):
        world = rpcc_world()
        promote(world, 1, 3)
        world.host(1).set_online(False)
        world.update_item(3)
        world.run(110.0)
        assert world.metrics.counter("rpcc_update_undeliverable") >= 1
        # The source keeps the relay: it will resync via INVALIDATION.
        assert 1 in world.agent(3).source.relay_table

    def test_hardened_source_repushes_a_lost_update_a_bounded_number_of_times(self):
        """A hardened source re-pushes an ``UPDATE`` its relay could not
        receive ``UPDATE_REPUSH_ATTEMPTS`` (2) times,
        ``UPDATE_REPUSH_INTERVAL`` (10 s) apart, and then stops: the relay
        resyncs through the next ``INVALIDATION`` instead."""
        world = rpcc_world(hardened=True)
        promote(world, 1, 3)
        sends = []
        unicast = world.network.unicast

        def recording_unicast(source, target, message):
            if isinstance(message, Update):
                sends.append((world.sim.now, target))
            return unicast(source, target, message)

        world.network.unicast = recording_unicast
        world.host(1).set_online(False)
        world.update_item(3)
        # Past the next TTN tick (185.4 s) and every re-push it can arm,
        # short of the one after (285.4 s).
        world.run(170.0)
        assert [target for _, target in sends] == [1, 1, 1]
        first, *repushes = [time for time, _ in sends]
        assert repushes == pytest.approx([first + 10.0, first + 20.0])
        assert world.metrics.counter("rpcc_update_undeliverable") == 1
        assert world.metrics.counter("rpcc_update_repushed") == 0


class TestCandidateFailure:
    """Paper: a candidate unreachable at APPLY_ACK time is removed from
    the relay table (MAC-layer discovery)."""

    def test_unreachable_candidate_removed(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        source = world.agent(3).source
        # Simulate: APPLY arrived, but the candidate vanished before ACK.
        world.host(1).set_online(False)
        world.network.topology.invalidate()
        from repro.consistency.messages import Apply

        source.handle_apply(Apply(sender=1, item_id=3))
        assert 1 not in source.relay_table
        assert world.metrics.counter("rpcc_apply_ack_undeliverable") == 1

    def test_candidate_reapplies_next_period(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        agent = world.agent(1)
        agent.roles.become_candidate(3)  # APPLY lost in transit
        agent.on_period_closed()  # new switching period: retry
        world.run(5.0)
        assert world.metrics.counter("rpcc_apply_retry") == 1
        assert agent.roles.is_relay(3)  # the retry succeeded

    def test_offline_candidate_does_not_retry(self):
        world = rpcc_world()
        world.give_copy(1, 3)
        make_eligible(world.host(1))
        agent = world.agent(1)
        agent.roles.become_candidate(3)
        world.host(1).set_online(False)
        agent.on_period_closed()
        assert world.metrics.counter("rpcc_apply_retry") == 0


class TestLossyLinks:
    def test_rpcc_answers_despite_loss(self):
        import random as random_module

        from repro.net.link import LinkModel

        world = rpcc_world()
        promote(world, 1, 3)
        world.network.link = LinkModel(
            loss_rate=0.15, rng=random_module.Random(5)
        )
        world.give_copy(2, 3)
        answered = 0
        for _ in range(8):
            record = world.agent(2).local_query(3, ConsistencyLevel.STRONG)
            world.run(60.0)
            answered += record.answered
        assert answered >= 6  # retries and fallbacks absorb the loss
