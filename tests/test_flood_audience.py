"""A flood copy outside its audience is booked, not handled — and nothing shows.

``Network._deliver_batch`` runs the handler only at the hosts the strategy
declares as a message type's audience and books every other copy itself.
Hypothesis holds that to ``tests/oracle.py``'s unfiltered batch, which
sends every copy through ``_deliver`` and its handler: the same trace
(event for event, and byte for byte as JSONL), delivery counters, per-host
``messages_handled`` and batteries, and the same metrics, under churn,
link loss and a fault plan with crashes, a relay kill and a partition —
which also switches RPCC's hardening on.  Under RPCC the run-global relay
index the poll and invalidation audiences read must equal the role tables.
"""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.messages import Invalidation
from repro.consistency.rpcc import RPCCStrategy
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults.plan import Crash, FaultPlan, Partition, RelayKill
from repro.obs import ListSink, TraceBus
from tests.conftest import line_positions, make_world
from tests.oracle import unfiltered_deliver_batch
# The second run of a pair draws its ``*_id`` values from process-global
# counters that the first one advanced: compare them renumbered.
from tests.test_golden_e2e import _renumbered, _trace_bytes

PLAN = FaultPlan(
    faults=(
        Crash(node=3, at=40.0, down_for=50.0, wipe_cache=True),
        Crash(node=8, at=70.0, down_for=30.0),
        RelayKill(at=90.0, count=2, down_for=40.0),
        Partition(start=60.0, duration=60.0),
    ),
    name="audience-oracle",
)


def _run(config: SimulationConfig, spec: str, traced: bool, reference: bool):
    bus = sink = None
    if traced:
        bus = TraceBus()
        sink = bus.add_sink(ListSink())
    simulation = build_simulation(config, spec, "standard", trace=bus)
    network = simulation.network
    if reference:
        network._deliver_batch = functools.partial(unfiltered_deliver_batch, network)
    through_deliver = []
    deliver = network._deliver

    def counted_deliver(target, message):
        through_deliver.append(target)
        deliver(target, message)

    network._deliver = counted_deliver
    result = simulation.run()
    if bus is not None:
        bus.close()
    hosts = sorted(simulation.hosts.items())
    relays = getattr(simulation.strategy, "relays", None)
    if relays is not None:
        # The run-global relay index is exactly what the role tables say.
        by_roles = {}
        for node_id, host in hosts:
            for item_id in host.agent.roles.relay_items():
                by_roles.setdefault(item_id, set()).add(node_id)
        assert {item: members for item, members in relays.items() if members} == by_roles
    return {
        "summary": dataclasses.asdict(result.summary),
        "events_processed": result.events_processed,
        "network": (
            network.messages_sent, network.messages_delivered, network.messages_undeliverable
        ),
        "handled": [host.messages_handled for _, host in hosts],
        "batteries": [
            (host.battery.level, host.battery.total_consumed,
             host.battery.tx_count, host.battery.rx_count)
            for _, host in hosts
        ],
        "trace": _renumbered(sink.events) if traced else None,
        "through_deliver": len(through_deliver),
    }


@settings(max_examples=24, deadline=None)
@given(
    spec=st.sampled_from(("pull", "push", "rpcc-hy")),
    faulted=st.booleans(),
    traced=st.booleans(),
    seed=st.integers(0, 2**16),
    loss_rate=st.sampled_from((0.0, 0.2)),
    stable_fraction=st.sampled_from((0.0, 0.4)),
)
def test_filtered_batch_matches_the_unfiltered_reference(
    spec, faulted, traced, seed, loss_rate, stable_fraction
):
    config = SimulationConfig(
        n_peers=20,
        terrain_width=1000.0,
        terrain_height=1000.0,
        sim_time=200.0,
        warmup=0.0,
        seed=seed,
        loss_rate=loss_rate,
        stable_fraction=stable_fraction,
        mean_online=60.0,
        mean_offline=20.0,
        faults=PLAN if faulted else None,
    )
    filtered = _run(config, spec, traced, reference=False)
    reference = _run(config, spec, traced, reference=True)
    assert filtered["network"] == reference["network"]
    assert filtered["handled"] == reference["handled"]
    assert filtered["batteries"] == reference["batteries"]
    assert filtered["events_processed"] == reference["events_processed"]
    assert filtered["summary"] == reference["summary"]
    if traced:
        assert filtered["trace"] == reference["trace"]
        assert _trace_bytes(filtered["trace"]) == _trace_bytes(reference["trace"])
    # Not vacuous: some copies were booked without their handler.
    assert filtered["through_deliver"] < reference["through_deliver"]


def test_a_relay_without_its_copy_still_hears_the_invalidation():
    """Relays are in an invalidation's audience even when they hold no copy
    (every path that drops a copy also resigns, so no seeded run has one):
    the handler resigns them on hearing it."""
    world = make_world(line_positions(3), RPCCStrategy)
    roles = world.agent(2).roles
    roles.become_candidate(0)
    roles.promote(0)
    assert world.strategy.relays[0] == {2}
    world.network.flood(0, Invalidation(sender=0, item_id=0, version=1), ttl=3)
    world.run(5.0)
    assert not roles.is_relay(0)
    assert world.strategy.relays[0] == set()
