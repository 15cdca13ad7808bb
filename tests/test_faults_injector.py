"""Unit tests for the fault injector: link faults, partitions, crashes,
relay kills, and the degradation meter."""

from __future__ import annotations

import pytest

from repro.consistency.pull import PullStrategy
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.errors import ConfigurationError
from repro.faults import (
    BurstyLoss,
    Crash,
    DelayJitter,
    FaultInjector,
    FaultPlan,
    Partition,
    RelayKill,
)
from repro.metrics.degradation import DegradationMeter
from repro.net.link import GilbertElliott
from repro.sim.engine import Simulator

from tests.conftest import line_positions, make_world


def pull_world(count=4):
    return make_world(line_positions(count), PullStrategy)


def injector_for(world, plan, seed=0, width=1000.0, height=1000.0):
    injector = FaultInjector(
        plan,
        sim=world.sim,
        network=world.network,
        hosts=world.hosts,
        metrics=world.metrics,
        strategy=world.strategy,
        seed=seed,
        terrain_width=width,
        terrain_height=height,
    )
    world.network.faults = injector
    return injector


class TestGilbertElliott:
    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliott(1.5, 0.3, 0.0, 0.5, None)
        with pytest.raises(ConfigurationError):
            GilbertElliott(0.1, 0.3, 0.0, -0.5, None)

    def test_deterministic_given_seeded_rng(self):
        import random

        a = GilbertElliott(0.3, 0.3, 0.1, 0.9, random.Random(42))
        b = GilbertElliott(0.3, 0.3, 0.1, 0.9, random.Random(42))
        assert [a.sample_loss() for _ in range(200)] == [
            b.sample_loss() for _ in range(200)
        ]

    def test_degenerate_chains(self):
        import random

        never = GilbertElliott(0.0, 0.0, 0.0, 1.0, random.Random(1))
        assert not any(never.sample_loss() for _ in range(100))  # stays good
        always = GilbertElliott(1.0, 0.0, 1.0, 1.0, random.Random(1))
        assert all(always.sample_loss() for _ in range(100))


class TestLinkHooks:
    def test_bursty_loss_is_deterministic_across_injectors(self):
        plan = FaultPlan(faults=(BurstyLoss(p_good_bad=0.3, loss_bad=0.9),))
        first = injector_for(pull_world(), plan, seed=5)
        second = injector_for(pull_world(), plan, seed=5)
        hops = [(0, 1), (1, 2), (2, 3), (1, 0)] * 50
        assert [first.unicast_hop_lost(a, b) for a, b in hops] == [
            second.unicast_hop_lost(a, b) for a, b in hops
        ]

    def test_bursty_loss_respects_the_window(self):
        plan = FaultPlan(faults=(BurstyLoss(start=100.0, end=200.0, loss_bad=1.0,
                                            p_good_bad=1.0),))
        world = pull_world()
        injector = injector_for(world, plan)
        assert not injector.unicast_hop_lost(0, 1)  # before the window
        world.run(150.0)
        assert any(injector.unicast_hop_lost(0, 1) for _ in range(50))
        world.run(100.0)  # now at t=250, past the window
        assert not injector.unicast_hop_lost(0, 1)

    def test_links_carry_independent_chains(self):
        plan = FaultPlan(faults=(BurstyLoss(p_good_bad=0.5, loss_bad=1.0),))
        injector = injector_for(pull_world(), plan)
        for _ in range(20):
            injector.unicast_hop_lost(0, 1)
        # A second link starts its own chain in the good state.
        assert len(injector._chains) == 1
        injector.unicast_hop_lost(2, 3)
        assert len(injector._chains) == 2

    def test_jitter_bounds_and_window(self):
        plan = FaultPlan(faults=(DelayJitter(start=0.0, end=50.0, max_delay=0.05),))
        world = pull_world()
        injector = injector_for(world, plan)
        for _ in range(100):
            assert 0.0 <= injector.extra_delay() <= 0.05
        world.run(60.0)
        assert injector.extra_delay() == 0.0

    def test_duplicate_rate_zero_never_duplicates(self):
        plan = FaultPlan(faults=(DelayJitter(max_delay=0.01, duplicate_rate=0.0),))
        injector = injector_for(pull_world(), plan)
        assert not any(injector.duplicate() for _ in range(200))

    def test_scripted_plan_creates_no_rngs(self):
        plan = FaultPlan(faults=(Crash(node=1, at=5.0),))
        injector = injector_for(pull_world(), plan)
        assert injector._ge_rng is None
        assert injector._jitter_rng is None
        assert not injector.unicast_hop_lost(0, 1)
        assert injector.extra_delay() == 0.0
        assert not injector.duplicate()


class TestPartitions:
    def test_nodes_mode_isolates_the_island(self):
        plan = FaultPlan(faults=(
            Partition(start=10.0, duration=20.0, mode="nodes", nodes=(3,)),
        ))
        world = pull_world()
        injector = injector_for(world, plan)
        injector.start()
        assert set(world.network.snapshot().neighbors(3)) == {2}
        world.run(15.0)  # mid-partition
        assert injector.active_partition_count == 1
        assert set(world.network.snapshot().neighbors(3)) == set()
        assert set(world.network.snapshot().neighbors(2)) == {1}
        world.run(20.0)  # healed at t=30
        assert injector.active_partition_count == 0
        assert world.network.topology.edge_filter is None
        assert set(world.network.snapshot().neighbors(3)) == {2}
        counters = world.metrics.counters
        assert counters["fault_partitions_started"] == 1
        assert counters["fault_partitions_healed"] == 1

    def test_spatial_cut_splits_the_line(self):
        # Hosts at x = 0, 100, 200, 300; a cut at frac 0.5 of a 400 m
        # terrain suppresses exactly the 100-200 edge.
        plan = FaultPlan(faults=(
            Partition(start=5.0, duration=10.0, mode="spatial", axis="x", frac=0.5),
        ))
        world = pull_world()
        injector = injector_for(world, plan, width=400.0, height=400.0)
        injector.start()
        world.run(7.0)
        snapshot = world.network.snapshot()
        assert set(snapshot.neighbors(1)) == {0}
        assert set(snapshot.neighbors(2)) == {3}
        world.run(10.0)
        assert set(world.network.snapshot().neighbors(1)) == {0, 2}

    def test_partition_blocks_unicast_across_the_cut(self):
        plan = FaultPlan(faults=(
            Partition(start=0.0, duration=100.0, mode="nodes", nodes=(0, 1)),
        ))
        world = pull_world()
        injector = injector_for(world, plan)
        injector.start()
        world.run(1.0)
        from repro.consistency.messages import PullPoll

        message = PullPoll(sender=0, item_id=2, version=0, poll_id=999)
        assert world.agent(0).send(1, message)      # inside the island
        assert not world.agent(0).send(2, message)  # across the cut

    def test_unknown_partition_node_rejected_at_start(self):
        plan = FaultPlan(faults=(
            Partition(mode="nodes", nodes=(99,)),
        ))
        injector = injector_for(pull_world(), plan)
        with pytest.raises(ConfigurationError, match="unknown node"):
            injector.start()


class TestCrashes:
    def test_crash_and_reboot_cycle(self):
        plan = FaultPlan(faults=(Crash(node=2, at=10.0, down_for=20.0),))
        world = pull_world()
        world.give_copy(2, 0)
        injector = injector_for(world, plan)
        injector.start()
        world.run(15.0)
        assert not world.host(2).online
        assert world.host(2).store.peek(0) is not None  # cache retained
        world.run(20.0)
        assert world.host(2).online
        counters = world.metrics.counters
        assert counters["fault_crashes"] == 1
        assert counters["fault_reboots"] == 1

    def test_wiped_crash_empties_the_cache_through_the_hooks(self):
        plan = FaultPlan(faults=(Crash(node=2, at=10.0, wipe_cache=True),))
        world = pull_world()
        world.give_copy(2, 0)
        world.give_copy(2, 1)
        injector = injector_for(world, plan)
        injector.start()
        world.run(15.0)
        assert len(world.host(2).store) == 0
        # The global directory saw the discards too.
        assert 2 not in world.directory.holders(0)
        assert not world.host(2).online  # never rebooted

    def test_crash_never_touches_the_master_copy(self):
        plan = FaultPlan(faults=(Crash(node=1, at=5.0, wipe_cache=True),))
        world = pull_world()
        injector = injector_for(world, plan)
        injector.start()
        world.run(10.0)
        assert world.host(1).source_item is not None

    def test_unknown_crash_node_rejected_at_start(self):
        plan = FaultPlan(faults=(Crash(node=42, at=1.0),))
        injector = injector_for(pull_world(), plan)
        with pytest.raises(ConfigurationError, match="unknown node"):
            injector.start()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 22")
    def test_a_crash_forever_outlasts_churn(self):
        """``down_for=None`` means the node never reboots, churn or not.

        Every host churns (200 s on, 20 s off) and every node crashes
        forever at 100 s.  The host's switching process still flips the
        state it last set: 19 of 20 hosts come back, the first at 109.1 s.
        """
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import build_simulation
        from repro.obs import ListSink, TraceBus

        plan = FaultPlan(faults=tuple(Crash(node=node, at=100.0) for node in range(20)))
        config = SimulationConfig(
            n_peers=20, seed=5, stable_fraction=0.0, mean_online=200.0,
            mean_offline=20.0, sim_time=400.0, warmup=0.0, faults=plan,
        )
        bus = TraceBus()
        sink = bus.add_sink(ListSink())
        build_simulation(config, "rpcc-hy", trace=bus).run()
        bus.close()
        crashed, back = set(), []
        for event in sink.events:
            if event.etype == "fault_node_crash":
                crashed.add(event.node)
            elif event.etype == "node_online" and event.node in crashed:
                back.append((event.node, round(event.time, 1)))
        assert crashed == set(range(20))
        assert back == []


class TestRelayKills:
    def test_noop_without_relay_roles(self):
        plan = FaultPlan(faults=(RelayKill(at=5.0, count=2),))
        world = pull_world()
        injector = injector_for(world, plan)
        injector.start()
        world.run(10.0)
        assert world.metrics.counters["fault_relay_kill_noop"] == 1
        assert "fault_relay_kills" not in world.metrics.counters
        assert all(host.online for host in world.hosts.values())

    def test_kills_live_relays_in_node_id_order(self):
        config = RPCCConfig(ttn=100.0, ttr=75.0, ttp=200.0)
        world = make_world(
            line_positions(4), lambda ctx: RPCCStrategy(ctx, config)
        )
        from tests.conftest import make_eligible

        world.give_copy(1, 3)
        world.give_copy(2, 3)
        make_eligible(world.host(1))
        make_eligible(world.host(2))
        world.strategy.start()
        world.update_item(3)
        world.run(110.0)  # INVALIDATION -> APPLY -> APPLY_ACK for both
        assert world.agent(1).roles.is_relay(3)
        assert world.agent(2).roles.is_relay(3)

        plan = FaultPlan(faults=(RelayKill(at=world.sim.now + 1.0, count=1,
                                           down_for=5.0, item=3),))
        injector = injector_for(world, plan)
        injector.start()
        world.run(2.0)
        assert not world.host(1).online  # lowest node id dies first
        assert world.host(2).online
        world.run(10.0)
        assert world.host(1).online  # rebooted
        assert world.metrics.counters["fault_relay_kills"] == 1


class TestDegradationMeter:
    def test_partition_exposure_and_stale_rate(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_read(0.0, stale=False)  # outside any partition: ignored
        now[0] = 10.0
        meter.on_partition_start(10.0)
        meter.on_read(12.0, stale=True)
        meter.on_read(14.0, stale=False)
        now[0] = 30.0
        meter.on_partition_end(30.0)
        snap = meter.snapshot()
        assert snap["partition_seconds"] == 20.0
        assert snap["reads_in_partition"] == 2
        assert snap["stale_reads_in_partition"] == 1
        assert snap["stale_serve_rate_in_partition"] == 0.5

    def test_time_to_reconverge_tracks_the_last_stale_read(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(0.0)
        now[0] = 50.0
        meter.on_partition_end(50.0)
        meter.on_read(55.0, stale=True)
        meter.on_read(60.0, stale=True)
        meter.on_read(70.0, stale=False)  # fresh reads do not extend it
        now[0] = 100.0
        meter.on_partition_start(100.0)  # settles the previous heal
        snap = meter.snapshot()
        assert snap["heals_observed"] == 1
        assert snap["mean_time_to_reconverge"] == 10.0

    def test_overlapping_partitions_refcount(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(0.0)
        meter.on_partition_start(5.0)
        now[0] = 10.0
        meter.on_partition_end(10.0)
        meter.on_read(12.0, stale=False)  # still one partition active
        now[0] = 20.0
        meter.on_partition_end(20.0)
        snap = meter.snapshot()
        assert snap["partition_seconds"] == 20.0
        assert snap["reads_in_partition"] == 1

    def test_reset_keeps_the_live_partition_open(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(0.0)
        now[0] = 30.0
        meter.reset()  # warm-up boundary mid-partition
        now[0] = 50.0
        meter.on_partition_end(50.0)
        snap = meter.snapshot()
        assert snap["partition_seconds"] == 20.0  # only post-reset exposure

    def test_snapshot_does_not_mutate(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(0.0)
        now[0] = 10.0
        first = meter.snapshot()
        second = meter.snapshot()
        assert first == second


class TestDegradationBoundaries:
    """Edge cases that must never leak NaN/inf into stats or CSV."""

    def test_never_healing_partition_reports_cleanly(self):
        import math

        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(10.0)
        meter.on_read(100.0, stale=True)
        now[0] = 500.0  # end of run: the partition never healed
        snap = meter.snapshot()
        assert snap["partition_seconds"] == 490.0
        # No heal ever happened: zero observations, a clean 0.0 mean —
        # never a division artefact.
        assert snap["heals_observed"] == 0.0
        assert snap["mean_time_to_reconverge"] == 0.0
        assert all(math.isfinite(value) for value in snap.values())

    def test_zero_read_partition_has_zero_stale_rate(self):
        now = [0.0]
        meter = DegradationMeter(lambda: now[0])
        meter.on_partition_start(0.0)
        now[0] = 60.0
        snap = meter.snapshot()
        assert snap["reads_in_partition"] == 0.0
        assert snap["stale_serve_rate_in_partition"] == 0.0

    def test_zero_query_window_availability_is_one(self):
        """availability with no queries issued is 1.0, never 0/0."""
        from repro.metrics.collector import MetricsCollector

        sim = Simulator()
        metrics = MetricsCollector()
        metrics.degradation = DegradationMeter(lambda: sim.now)
        stats = metrics.summary().fault_stats
        assert stats["availability"] == 1.0

    def test_unhealed_partition_run_emits_finite_stats(self):
        """End-to-end: a partition outliving the run stays CSV-clean."""
        import math

        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import build_simulation

        plan = FaultPlan(faults=(
            Partition(start=20.0, duration=10_000.0, mode="spatial", frac=0.5),
        ))
        config = SimulationConfig(
            n_peers=10, terrain_width=600.0, terrain_height=600.0,
            sim_time=90.0, warmup=0.0, seed=3, faults=plan,
        )
        result = build_simulation(config, "rpcc-sc", "standard").run()
        stats = result.summary.fault_stats
        assert stats["heals_observed"] == 0.0
        assert stats["partition_seconds"] == pytest.approx(70.0)
        for name, value in stats.items():
            assert math.isfinite(value), f"{name} is not finite: {value!r}"
        rendered = repr(stats)
        assert "nan" not in rendered and "inf" not in rendered
