"""Tests for the update/query workload drivers wired to real hosts."""

import pytest

from repro.consistency.base import BaseAgent, ConsistencyStrategy
from repro.sim.rng import RandomStreams
from repro.workload.access import UniformAccess
from repro.workload.drivers import QueryWorkload, UpdateWorkload
from repro.workload.mix import LevelMix

from tests.conftest import line_positions, make_world


class EchoStrategy(ConsistencyStrategy):
    name = "echo"

    def make_agent(self, host):
        return EchoAgent(self, host)

    def remote_query_timeout(self):
        return 5.0


class EchoAgent(BaseAgent):
    def validate_hit(self, copy, level, job):
        self.answer(job, copy.version, served_locally=True)

    def handle_protocol_message(self, message):
        raise AssertionError("unexpected protocol message")


@pytest.fixture
def world():
    return make_world(line_positions(4), EchoStrategy)


class TestUpdateWorkload:
    def test_updates_advance_master_versions(self, world):
        workload = UpdateWorkload(
            world.hosts.values(), RandomStreams(3), mean_interval=10.0
        )
        workload.start()
        world.run(300.0)
        assert workload.total_updates > 0
        total_versions = sum(
            world.catalog.master(i).version for i in range(4)
        )
        assert total_versions == workload.total_updates

    def test_hosts_without_source_skipped(self, world):
        world.host(0).source_item = None
        workload = UpdateWorkload(
            world.hosts.values(), RandomStreams(3), mean_interval=10.0
        )
        assert len(workload._processes) == 3


class TestQueryWorkload:
    def make_workload(self, world, restrict=None, mean=5.0):
        return QueryWorkload(
            world.hosts.values(),
            RandomStreams(5),
            world.strategy,
            UniformAccess(world.catalog.item_ids),
            LevelMix.pure("wc"),
            mean_interval=mean,
            restrict_to_items=restrict,
        )

    def test_queries_flow_into_metrics(self, world):
        workload = self.make_workload(world)
        workload.start()
        world.run(200.0)
        assert workload.total_queries > 0
        assert world.metrics.latency.issued == workload.total_queries

    def test_queries_never_target_own_item(self, world):
        workload = self.make_workload(world)
        workload.start()
        world.run(300.0)
        for record in world.metrics.latency.records():
            assert record.item_id != record.node_id

    def test_restriction_to_single_item(self, world):
        workload = self.make_workload(world, restrict=[2])
        workload.start()
        world.run(200.0)
        records = world.metrics.latency.records()
        assert records
        assert all(record.item_id == 2 for record in records)
        # Host 2 never queries its own (the only) item.
        assert all(record.node_id != 2 for record in records)

    def test_restriction_with_no_candidates_is_silent(self, world):
        # Only item 2 allowed and only host 2 issues -> nothing happens.
        workload = QueryWorkload(
            [world.host(2)],
            RandomStreams(5),
            world.strategy,
            UniformAccess(world.catalog.item_ids),
            LevelMix.pure("wc"),
            mean_interval=5.0,
            restrict_to_items=[2],
        )
        workload.start()
        world.run(100.0)
        assert world.metrics.latency.issued == 0

    def test_deterministic_streams(self):
        def issue_counts(seed):
            world = make_world(line_positions(4), EchoStrategy)
            workload = QueryWorkload(
                world.hosts.values(),
                RandomStreams(seed),
                world.strategy,
                UniformAccess(world.catalog.item_ids),
                LevelMix.hybrid(),
                mean_interval=7.0,
            )
            workload.start()
            world.run(200.0)
            return [
                (record.node_id, record.item_id, record.level)
                for record in world.metrics.latency.records()
            ]

        assert issue_counts(9) == issue_counts(9)
        assert issue_counts(9) != issue_counts(10)
