"""Unit tests for the shared query machinery (local + remote queries)."""

import pytest

from repro.consistency.base import BaseAgent, ConsistencyStrategy
from repro.consistency.levels import ConsistencyLevel

from tests.conftest import line_positions, make_world


class EchoStrategy(ConsistencyStrategy):
    """Answers every held copy immediately with its local version."""

    name = "echo"

    def make_agent(self, host):
        return EchoAgent(self, host)

    def remote_query_timeout(self):
        return 5.0


class EchoAgent(BaseAgent):
    def validate_hit(self, copy, level, job):
        self.answer(job, copy.version, served_locally=True)

    def handle_protocol_message(self, message):
        raise AssertionError(f"unexpected message {message}")


@pytest.fixture
def world():
    return make_world(line_positions(4), EchoStrategy)


class TestLocalQueries:
    def test_source_answers_own_item_immediately(self, world):
        record = world.agent(0).local_query(0, ConsistencyLevel.STRONG)
        assert record.answered
        assert record.latency == 0.0
        assert record.served_locally

    def test_hit_validates_locally(self, world):
        world.give_copy(0, 2)
        record = world.agent(0).local_query(2, ConsistencyLevel.WEAK)
        assert record.answered
        assert record.cache_hit

    def test_query_counts_cache_access(self, world):
        before = world.host(0).tracker._accesses
        world.agent(0).local_query(2, ConsistencyLevel.WEAK)
        assert world.host(0).tracker._accesses == before + 1

    def test_offline_source_still_answers_own_item(self, world):
        world.host(0).set_online(False)
        record = world.agent(0).local_query(0, ConsistencyLevel.STRONG)
        assert record.answered

    def test_offline_host_serves_local_copy(self, world):
        world.give_copy(0, 2)
        world.host(0).set_online(False)
        record = world.agent(0).local_query(2, ConsistencyLevel.STRONG)
        assert record.answered
        assert world.metrics.counter("query_answered_offline") == 1

    def test_offline_host_without_copy_unanswerable(self, world):
        world.host(0).set_online(False)
        record = world.agent(0).local_query(2, ConsistencyLevel.WEAK)
        assert not record.answered
        assert world.metrics.counter("query_offline_unanswerable") == 1


class TestRemoteQueries:
    def test_miss_served_by_nearest_holder(self, world):
        world.give_copy(1, 3)  # holder one hop away; source 3 hops
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(1.0)
        assert record.answered
        assert not record.cache_hit
        assert record.latency > 0.0

    def test_miss_served_by_source_when_no_holder(self, world):
        record = world.agent(0).local_query(3, ConsistencyLevel.STRONG)
        world.run(1.0)
        assert record.answered

    def test_reply_not_cached_by_default(self, world):
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(1.0)
        assert record.answered
        assert 3 not in world.host(0).store

    def test_reply_cached_when_enabled(self, world):
        world.context.cache_on_read = True
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(1.0)
        assert record.answered
        assert 3 in world.host(0).store

    def test_retry_after_holder_evicts(self, world):
        world.give_copy(1, 3)
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        # Holder drops the copy before the request arrives.
        world.host(1).store.discard(3)
        world.run(30.0)
        assert record.answered  # retried against the source

    def test_remote_query_counts_access_at_holder(self, world):
        world.give_copy(1, 3)
        before = world.host(1).tracker._accesses
        world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(1.0)
        assert world.host(1).tracker._accesses == before + 1

    def test_abandoned_when_nobody_reachable(self):
        # Requester isolated from every holder and the source.
        world = make_world([(0, 0), (10_000, 0), (10_100, 0)], EchoStrategy)
        record = world.agent(0).local_query(2, ConsistencyLevel.WEAK)
        world.run(60.0)
        assert not record.answered
        assert world.metrics.counter("query_no_holder") >= 1

    def test_staleness_audited_at_client(self, world):
        world.give_copy(1, 3, version=0)
        world.update_item(3)  # master now v1; holder still v0
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(1.0)
        assert record.answered
        assert world.metrics.staleness.stale_reads() == 1

    def test_late_duplicate_reply_ignored(self, world):
        world.give_copy(1, 3)
        world.give_copy(2, 3)
        record = world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.run(60.0)
        assert record.answered
        # exactly one close: no "answered twice" error was raised
        assert world.metrics.latency.answered == 1
