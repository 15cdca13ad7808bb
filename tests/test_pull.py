"""Unit tests for the simple pull baseline."""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.pull import PullStrategy
from repro.errors import ProtocolError

from tests.conftest import line_positions, make_world


def pull_world(count=4, ttl=8, poll_timeout=2.0):
    return make_world(
        line_positions(count),
        lambda ctx: PullStrategy(ctx, ttl=ttl, poll_timeout=poll_timeout),
    )


class TestPolling:
    def test_fresh_copy_confirmed(self):
        world = pull_world()
        world.give_copy(0, 1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        assert record.served_version == 0
        assert world.metrics.staleness.violations() == 0

    def test_stale_copy_refreshed(self):
        world = pull_world()
        world.give_copy(0, 1, version=0)
        world.update_item(1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        assert record.served_version == 1
        assert world.host(0).store.peek(1).version == 1

    def test_poll_is_flooded(self):
        world = pull_world()
        world.give_copy(0, 1)
        world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(5.0)
        polls = world.metrics.traffic.by_type()["PullPoll"]
        assert polls.transmissions >= 3  # reaches beyond the source

    def test_latency_is_round_trip_not_interval(self):
        world = pull_world()
        world.give_copy(0, 3)
        record = world.agent(0).local_query(3, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        assert record.latency < 1.0

    def test_every_query_polls(self):
        world = pull_world()
        world.give_copy(0, 1)
        for _ in range(3):
            world.agent(0).local_query(1, ConsistencyLevel.STRONG)
            world.run(5.0)
        assert world.metrics.traffic.messages("PullPoll") == 3

    def test_weak_level_still_polls(self):
        # The simple baselines provide a single consistency behaviour.
        world = pull_world()
        world.give_copy(0, 1)
        world.agent(0).local_query(1, ConsistencyLevel.WEAK)
        assert world.metrics.traffic.messages("PullPoll") == 1


class TestFailureHandling:
    def test_source_unreachable_serves_stale(self):
        world = pull_world(count=2, poll_timeout=1.0)
        world.give_copy(1, 0, version=0)
        world.update_item(0)
        world.host(0).set_online(False)
        record = world.agent(1).local_query(0, ConsistencyLevel.STRONG)
        world.run(30.0)
        assert record.answered
        assert record.served_version == 0
        assert world.metrics.counter("pull_fallback_stale") == 1
        assert world.metrics.counter("pull_retry") == 1

    def test_source_beyond_ttl_unreachable(self):
        world = pull_world(count=6, ttl=2, poll_timeout=1.0)
        world.give_copy(0, 5, version=0)
        record = world.agent(0).local_query(5, ConsistencyLevel.STRONG)
        world.run(30.0)
        # Poll flood (TTL 2) never reaches source 5 hops away -> stale serve.
        assert record.answered
        assert world.metrics.counter("pull_fallback_stale") == 1

    def test_copy_lost_while_polling(self):
        world = pull_world(count=2, poll_timeout=1.0)
        world.give_copy(1, 0)
        world.host(0).set_online(False)
        record = world.agent(1).local_query(0, ConsistencyLevel.STRONG)
        world.host(1).store.discard(0)
        world.run(30.0)
        assert not record.answered
        assert world.metrics.counter("pull_copy_lost") == 1

    def test_non_source_nodes_ignore_polls(self):
        world = pull_world()
        world.give_copy(0, 2)
        world.give_copy(1, 2)  # bystander holder must not reply
        record = world.agent(0).local_query(2, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        replies = world.metrics.traffic.messages("PullReply")
        assert replies == 1  # only the source replied


class TestValidation:
    def test_parameters_validated(self):
        world = pull_world()
        with pytest.raises(ProtocolError):
            PullStrategy(world.context, ttl=0)
        with pytest.raises(ProtocolError):
            PullStrategy(world.context, poll_timeout=0.0)

    def test_remote_query_timeout_covers_retries(self):
        world = pull_world(poll_timeout=2.0)
        assert world.strategy.remote_query_timeout() >= 4.0  # two attempts
