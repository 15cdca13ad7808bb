"""Unit tests for the simple push baseline."""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.push import PushStrategy

from tests.conftest import line_positions, make_world


def push_world(ttn=100.0, ttl=8, count=4):
    return make_world(
        line_positions(count),
        lambda ctx: PushStrategy(ctx, ttn=ttn, ttl=ttl),
    )


class TestSourceReports:
    def test_reports_flood_periodically(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.run(350.0)
        reports = world.metrics.traffic.by_type().get("PushInvalidation")
        assert reports is not None
        # 4 sources x 3 intervals, each actually flooded
        assert reports.messages >= 8

    def test_offline_source_skips_report(self):
        world = push_world(ttn=100.0, count=2)
        world.host(0).set_online(False)
        world.strategy.start()
        world.run(350.0)
        senders = {
            r.sender for r in []  # placeholder: check via traffic by type below
        }
        reports = world.metrics.traffic.by_type().get("PushInvalidation")
        # Only host 1 floods (host 0 offline): 3 intervals -> 3 messages.
        assert reports.messages == 3

class TestQueryWaiting:
    def test_query_waits_for_next_report(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(0, 1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        assert not record.answered  # must wait for the report
        world.run(200.0)
        assert record.answered
        assert record.latency > 0.0
        assert record.latency <= 110.0

    def test_fresh_copy_confirmed_by_report(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(0, 1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(200.0)
        assert record.served_version == 0
        assert world.metrics.staleness.violations() == 0

    def test_stale_copy_refreshed_from_source(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(0, 1, version=0)
        world.update_item(1)  # master v1
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(200.0)
        assert record.answered
        assert record.served_version == 1
        assert world.host(0).store.peek(1).version == 1

    def test_multiple_waiters_drain_together(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(0, 1)
        world.update_item(1)
        records = [
            world.agent(0).local_query(1, ConsistencyLevel.STRONG)
            for _ in range(3)
        ]
        world.run(200.0)
        assert all(record.answered for record in records)
        assert all(record.served_version == 1 for record in records)

    def test_giveup_serves_stale_when_source_unreachable(self):
        world = push_world(ttn=100.0, count=2)
        world.strategy.start()
        world.give_copy(1, 0, version=0)
        world.update_item(0)
        world.host(0).set_online(False)  # source gone
        record = world.agent(1).local_query(0, ConsistencyLevel.STRONG)
        world.run(400.0)
        assert record.answered
        assert record.served_version == 0  # stale fallback
        assert world.metrics.counter("push_fallback_stale") == 1

    def test_remote_query_timeout_covers_wait(self):
        world = push_world(ttn=100.0)
        assert world.strategy.remote_query_timeout() > 250.0  # 2.5 x TTN

    def test_remote_query_answered_after_holder_wait(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(1, 3)
        record = world.agent(0).local_query(3, ConsistencyLevel.STRONG)
        world.run(250.0)
        assert record.answered

    def test_waiting_count_introspection(self):
        world = push_world(ttn=100.0)
        world.strategy.start()
        world.give_copy(0, 1)
        world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        assert world.agent(0).waiting_count(1) == 1


class TestValidation:
    def test_parameters_validated(self):
        from repro.errors import ProtocolError

        world = push_world()
        with pytest.raises(ProtocolError):
            PushStrategy(world.context, ttn=0.0)
        with pytest.raises(ProtocolError):
            PushStrategy(world.context, ttl=0)
