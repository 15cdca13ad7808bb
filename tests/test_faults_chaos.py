"""The checker-gated chaos suite plus targeted RPCC hardening tests.

Every cell of the chaos sweep (``benchmarks.control_campaign.CHAOS``:
every shipped example fault plan against every strategy spec and two
seeds at golden scale) runs through the sweep's checked path; the
invariant checker must hold on each trace.
"""

from __future__ import annotations

import pytest

from benchmarks.control_campaign import CHAOS, plan_name
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.experiments.sweep import run_checked
from repro.faults import FaultPlan
from repro.obs import ListSink, TraceBus

from tests.conftest import line_positions, make_eligible, make_world

#: The chaos sweep's cells by test id: ``<plan>-<spec>-s<seed>``.
CELLS = {
    f"{plan_name(cell)}-{cell.spec}-s{cell.values['seed']}": cell for cell in CHAOS.cells()
}


def _run_traced(config: SimulationConfig, spec: str):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(config, spec, "standard", trace=bus).run()
    bus.close()
    return result, sink.events


@pytest.mark.parametrize("cell_id", CELLS)
def test_chaos_suite_holds_the_invariants(cell_id):
    (result,), (report,) = run_checked([CELLS[cell_id]])
    assert report.ok, f"{cell_id}:\n{report.format()}"
    assert report.reads_checked > 0
    assert result.summary.queries_answered > 0  # degraded, not dead


def test_chaos_suite_is_the_full_grid():
    assert len(CELLS) == CHAOS.size == 40


def test_relay_kill_plan_actually_kills_relays():
    result, events = _run_traced(CELLS["relay_kill-rpcc-sc-s7"].config, "rpcc-sc")
    counters = result.summary.counters
    assert counters.get("fault_relay_kills", 0) > 0
    assert any(e.etype == "fault_relay_kill" for e in events)
    # Reconnect hardening fired: rebooted relays refreshed before vouching.
    assert counters.get("rpcc_relay_resync", 0) > 0


def test_partition_plan_reports_degradation():
    result, _ = _run_traced(CELLS["partition-rpcc-sc-s7"].config, "rpcc-sc")
    stats = result.summary.fault_stats
    assert stats["partition_seconds"] == pytest.approx(60.0)
    assert 0.0 < stats["availability"] <= 1.0
    assert stats["heals_observed"] == 1


def test_disabled_faults_are_bit_identical():
    """faults=None and an empty plan both keep the pre-fault event stream."""
    def digest(config):
        result, events = _run_traced(config, "rpcc-sc")
        stripped = [
            {k: v for k, v in e.to_dict().items() if not k.endswith("_id")}
            for e in events
        ]
        return result.summary.transmissions, stripped

    base = SimulationConfig(
        n_peers=12, terrain_width=800.0, terrain_height=800.0,
        sim_time=90.0, warmup=30.0, seed=5,
    )
    assert digest(base) == digest(base.with_overrides(faults=FaultPlan()))


# ----------------------------------------------------------------------
# Targeted RPCC hardening: relay crash mid-TTR (the satellite scenario)
# ----------------------------------------------------------------------

def _hardened_world(count=5):
    config = RPCCConfig(
        ttn=100.0, ttr=75.0, ttp=200.0, poll_timeout=2.0, hardened=True
    )
    return make_world(line_positions(count), lambda ctx: RPCCStrategy(ctx, config))


def _promote(world, node_id, item_id):
    world.give_copy(node_id, item_id)
    make_eligible(world.host(node_id))


class TestRelayCrashMidTTR:
    def test_cache_peer_reregisters_with_a_surviving_relay(self):
        world = _hardened_world()
        _promote(world, 1, 0)
        _promote(world, 2, 0)
        world.give_copy(3, 0)
        world.strategy.start()
        world.update_item(0)
        world.run(110.0)  # both candidates promoted via the TTN cycle
        assert world.agent(1).roles.is_relay(0)
        assert world.agent(2).roles.is_relay(0)
        # A fresh relay opens its TTR window at the *next* INVALIDATION
        # (promotion alone vouches for nothing): run one more TTN cycle.
        world.run(100.0)

        # First poll: node 3 remembers whichever relay answered.
        record = world.agent(3).local_query(0, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        remembered = world.agent(3).cache_peer._known_relay[0]
        assert remembered in (1, 2)
        survivor = 2 if remembered == 1 else 1

        # Crash the remembered relay mid-TTR (its window is still open).
        assert world.agent(remembered).relay.ttr_remaining(0) > 0
        world.host(remembered).crash()

        record = world.agent(3).local_query(0, ConsistencyLevel.STRONG)
        world.run(10.0)
        assert record.answered
        assert world.metrics.counter("rpcc_forced_stale") == 0  # validated
        # The discovery flood found the survivor and re-registered it.
        assert world.agent(3).cache_peer._known_relay[0] == survivor

    def test_all_relays_dead_falls_back_to_source_poll(self):
        # The cache peer (node 6) sits at the far end of a 7-node line,
        # six hops from the source (node 0), so its 3-hop discovery flood
        # cannot reach the source and losing the only relay forces the
        # wide-broadcast fallback stage.  The relay (node 7) sits off the
        # line, three hops from either end, so crashing it does not also
        # sever the route back to the source.
        config = RPCCConfig(
            ttn=100.0, ttr=75.0, ttp=200.0, poll_timeout=2.0, hardened=True
        )
        world = make_world(
            line_positions(7) + [(300.0, 100.0)],
            lambda ctx: RPCCStrategy(ctx, config),
        )
        _promote(world, 7, 0)
        world.give_copy(6, 0)
        world.strategy.start()
        world.update_item(0)
        world.run(110.0)
        assert world.agent(7).roles.is_relay(0)
        world.run(100.0)  # open the relay's TTR window

        record = world.agent(6).local_query(0, ConsistencyLevel.STRONG)
        world.run(5.0)
        assert record.answered
        assert world.agent(6).cache_peer._known_relay[0] == 7
        world.host(7).crash()

        # The only relay is dead: the broadcast stage reaches the source,
        # which answers the poll directly — RPCC degenerates into pull.
        record = world.agent(6).local_query(0, ConsistencyLevel.STRONG)
        world.run(15.0)
        assert record.answered
        assert world.metrics.counter("rpcc_forced_stale") == 0  # validated
        assert world.metrics.counter("rpcc_poll_fallback_source") > 0

    def test_fast_failover_drops_an_unroutable_relay(self, monkeypatch):
        world = _hardened_world()
        _promote(world, 1, 0)
        world.give_copy(3, 0)
        world.strategy.start()
        world.update_item(0)
        world.run(110.0)

        cache_peer = world.agent(3).cache_peer
        cache_peer._remember_relay(0, 1)
        world.host(1).crash()
        # Simulate the stale-snapshot race: the reachability pre-check
        # still believes in the dead relay, so the unicast itself fails.
        monkeypatch.setattr(
            type(cache_peer), "_relay_in_reach", lambda self, relay_id: True
        )
        record = world.agent(3).local_query(0, ConsistencyLevel.STRONG)
        world.run(1.0)  # far less than the 2 s poll_timeout
        assert world.metrics.counter("rpcc_relay_failover_fast") == 1
        assert 0 not in cache_peer._known_relay
        # The crash cut the line, so the rest of the ladder (flood, two
        # broadcasts, 30 s of grace) ends in a forced-stale answer.
        world.run(45.0)
        assert record.answered

    def test_rebooted_relay_resyncs_instead_of_vouching_stale(self):
        world = _hardened_world()
        _promote(world, 1, 0)
        world.give_copy(2, 0)
        world.strategy.start()
        world.update_item(0)
        world.run(110.0)
        assert world.agent(1).roles.is_relay(0)
        world.run(95.0)  # let the next TTN renew the relay's TTR window

        # Crash the relay with its TTR open; the source updates meanwhile,
        # so the copy the relay holds is now stale.
        assert world.agent(1).relay.ttr_remaining(0) > 0
        world.host(1).crash()
        world.update_item(0)
        stale_version = world.host(1).store.peek(0).version
        world.host(1).reboot()
        world.run(1.0)
        # Resync closed the pre-outage TTR window and refreshed.
        assert world.metrics.counter("rpcc_relay_resync") == 1
        world.run(5.0)
        assert world.host(1).store.peek(0).version > stale_version

    def test_resync_disabled_keeps_the_stale_window_open(self):
        config = RPCCConfig(ttn=100.0, ttr=75.0, ttp=200.0)
        world = make_world(
            line_positions(5), lambda ctx: RPCCStrategy(ctx, config)
        )
        _promote(world, 1, 0)
        world.strategy.start()
        world.update_item(0)
        world.run(110.0)
        world.run(95.0)
        assert world.agent(1).relay.ttr_remaining(0) > 0
        world.host(1).crash()
        world.update_item(0)
        world.host(1).reboot()
        world.run(1.0)
        # Paper-faithful behaviour: nothing expires until INVALIDATION.
        assert world.metrics.counter("rpcc_relay_resync") == 0
        assert world.agent(1).relay.ttr_remaining(0) > 0
