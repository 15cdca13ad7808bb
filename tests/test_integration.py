"""End-to-end integration tests: full simulations, cross-strategy shape
invariants, and failure injection (disconnections, partitions, loss).
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.pull import PullStrategy
from repro.consistency.push import PushStrategy
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation
from repro.net.link import LinkModel

from tests.conftest import line_positions, make_eligible, make_world


def small_config(**kwargs):
    defaults = dict(
        n_peers=16,
        sim_time=900.0,
        warmup=300.0,
        seed=21,
        terrain_width=900.0,
        terrain_height=900.0,
        switch_interval=150.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestShapeInvariants:
    """The qualitative relations the paper's evaluation rests on."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            spec: run_simulation(small_config(), spec)
            for spec in ("pull", "push", "rpcc-sc", "rpcc-wc")
        }

    def test_pull_traffic_dominates(self, results):
        pull = results["pull"].summary.transmissions
        for spec in ("push", "rpcc-sc", "rpcc-wc"):
            assert pull > results[spec].summary.transmissions

    def test_weak_rpcc_cheapest_rpcc(self, results):
        assert (
            results["rpcc-wc"].summary.transmissions
            < results["rpcc-sc"].summary.transmissions
        )

    def test_push_latency_dominates(self, results):
        push = results["push"].summary.mean_latency
        for spec in ("pull", "rpcc-sc", "rpcc-wc"):
            assert push > 3 * results[spec].summary.mean_latency

    def test_rpcc_latency_same_order_as_pull(self, results):
        # "At the same level as pull": within 1.5 orders of magnitude and
        # far below push.
        rpcc = results["rpcc-sc"].summary.mean_latency
        push = results["push"].summary.mean_latency
        assert rpcc < push / 3

    def test_relays_emerge(self, results):
        assert results["rpcc-sc"].mean_relay_count > 0

    def test_push_serves_fresher_data_than_weak(self, results):
        assert (
            results["push"].summary.stale_ratio
            < results["rpcc-wc"].summary.stale_ratio
        )


class TestVersionMonotonicity:
    """Versions held anywhere never exceed the master's and never go back."""

    def test_cached_versions_bounded_by_master(self):
        result_config = small_config(sim_time=600.0, warmup=0.0)
        from repro.experiments.runner import build_simulation

        simulation = build_simulation(result_config, "rpcc-sc")
        simulation.run()
        for host in simulation.hosts.values():
            for item_id in host.store.item_ids:
                copy = host.store.peek(item_id)
                master = simulation.catalog.master(item_id)
                assert 0 <= copy.version <= master.version


class TestFailureInjection:
    def test_source_crash_rpcc_still_answers(self):
        config = RPCCConfig(
            ttn=60.0, ttr=45.0, ttp=100.0, poll_timeout=2.0,
        )
        world = make_world(
            line_positions(5), lambda ctx: RPCCStrategy(ctx, config)
        )
        world.give_copy(1, 0)
        make_eligible(world.host(1))
        world.strategy.start()
        world.run(70.0)  # node 1 becomes a relay for item 0
        world.host(0).set_online(False)  # source crashes
        world.run(10.0)
        world.give_copy(3, 0)
        record = world.agent(3).local_query(0, ConsistencyLevel.STRONG)
        world.run(60.0)
        # Either a relay answered or the forced-stale path served the copy.
        assert record.answered

    def test_mass_disconnection_and_recovery(self):
        result = run_simulation(
            small_config(mean_online=120.0, mean_offline=60.0, stable_fraction=0.25),
            "rpcc-sc",
        )
        # Heavy churn: many queries still answered, and every answer audited.
        answered_ratio = (
            result.summary.queries_answered / result.summary.queries_issued
        )
        assert answered_ratio > 0.5

    def test_push_survives_lossy_links(self):
        world = make_world(
            line_positions(4),
            lambda ctx: PushStrategy(ctx, ttn=50.0, ttl=8),
        )
        import random as random_module

        world.network.link = LinkModel(
            loss_rate=0.2, rng=random_module.Random(3)
        )
        world.strategy.start()
        world.give_copy(0, 1)
        records = []
        for start in range(0, 200, 40):
            world.run(40.0)
            records.append(world.agent(0).local_query(1, ConsistencyLevel.STRONG))
        world.run(300.0)
        assert any(record.answered for record in records)

    def test_pull_survives_lossy_links(self):
        world = make_world(
            line_positions(4),
            lambda ctx: PullStrategy(ctx, poll_timeout=2.0),
        )
        import random as random_module

        world.network.link = LinkModel(loss_rate=0.2, rng=random_module.Random(3))
        world.give_copy(0, 3)
        answered = 0
        for _ in range(10):
            record = world.agent(0).local_query(3, ConsistencyLevel.STRONG)
            world.run(20.0)
            answered += record.answered
        assert answered >= 8  # retries absorb the losses

    def test_partition_heals_and_queries_resume(self):
        # Two halves joined by a bridge node that goes down and comes back.
        world = make_world(
            line_positions(5), lambda ctx: PullStrategy(ctx, poll_timeout=1.0)
        )
        world.give_copy(0, 4, version=0)
        world.host(2).set_online(False)  # bridge down: 0 cut off from 4
        world.update_item(4)
        record_during = world.agent(0).local_query(4, ConsistencyLevel.STRONG)
        world.run(30.0)
        assert record_during.answered
        assert record_during.served_version == 0  # stale fallback
        world.host(2).set_online(True)  # bridge restored
        world.run(5.0)
        record_after = world.agent(0).local_query(4, ConsistencyLevel.STRONG)
        world.run(30.0)
        assert record_after.answered
        assert record_after.served_version == 1  # fresh again

    def test_relay_churn_consistency_maintained(self):
        result = run_simulation(
            small_config(switch_interval=120.0), "rpcc-dc"
        )
        # Delta guarantees hold for the vast majority of reads despite churn.
        assert result.summary.violation_ratio < 0.5


class TestHybridWorkload:
    def test_levels_all_present(self):
        result = run_simulation(small_config(), "rpcc-hy")
        from repro.experiments.runner import build_simulation

        simulation = build_simulation(small_config(), "rpcc-hy")
        simulation.run()
        levels = {r.level for r in simulation.metrics.latency.records()}
        assert levels == {"strong", "delta", "weak"}

    def test_hybrid_between_extremes(self):
        weak = run_simulation(small_config(), "rpcc-wc").summary.transmissions
        strong = run_simulation(small_config(), "rpcc-sc").summary.transmissions
        hybrid = run_simulation(small_config(), "rpcc-hy").summary.transmissions
        assert weak < hybrid < strong


class TestRandomizedRobustness:
    """Mini-sim smoke property: random small configs never break invariants."""

    def test_random_configs_hold_invariants(self):
        import random as random_module

        rng = random_module.Random(2024)
        for trial in range(6):
            spec = ("pull", "push", "rpcc-sc", "rpcc-dc",
                    "rpcc-wc", "rpcc-hy")[trial]
            config = SimulationConfig(
                n_peers=rng.randint(8, 20),
                cache_num=rng.randint(2, 8),
                sim_time=float(rng.randint(200, 400)),
                warmup=0.0,
                update_interval=float(rng.randint(30, 200)),
                query_interval=float(rng.randint(5, 40)),
                stable_fraction=rng.choice((0.2, 0.4, 0.6)),
                terrain_width=float(rng.randint(600, 1200)),
                terrain_height=float(rng.randint(600, 1200)),
                seed=rng.randint(1, 10_000),
            )
            result = run_simulation(config, spec)
            summary = result.summary
            assert summary.queries_answered <= summary.queries_issued
            assert 0.0 <= summary.stale_ratio <= 1.0
            assert summary.violation_ratio <= summary.stale_ratio + 1e-9
            assert summary.transmissions >= 0
            assert result.energy_consumed >= 0.0
            assert 0.0 <= result.mean_battery_fraction <= 1.0
