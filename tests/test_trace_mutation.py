"""Mutation smoke test: the checker must *catch* an injected protocol bug.

The scenario plants an RPCC relay whose APPLY was lost — the source does
not know about it, so the invalidation flood is the relay's only refresh
channel — then suppresses every invalidation delivery to that relay.
A later strong read served through the stale relay must produce exactly
one ``strong`` violation; the identical run without the suppression must
be clean.  This proves the observability layer detects real consistency
bugs rather than vacuously passing.
"""

from __future__ import annotations

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.obs import InvariantChecker, ListSink, TraceBus

from tests.conftest import World, line_positions, make_world


def _rpcc_world() -> World:
    # ttn < ttr inverts the paper's defaults on purpose: the invalidation
    # flood fires while the relay's TTR is still open, which is the only
    # window in which a suppressed delivery can leave the relay answering
    # polls with a version it should know is dead.  Node 2's poll flood
    # also reaches the source, but the relay one hop away answers first.
    return make_world(
        line_positions(3),
        lambda ctx: RPCCStrategy(ctx, RPCCConfig(ttn=30.0, ttr=90.0)),
    )


def _plant_unregistered_relay(world: World) -> None:
    """Node 1 acts as relay for item 0, but the source never saw its APPLY."""
    world.give_copy(1, 0)
    world.give_copy(2, 0)
    agent = world.agent(1)
    agent.roles.become_candidate(0)
    agent.roles.promote(0)
    agent.relay.renew_ttr(0)
    # Deliberately NOT in world.agent(0).source.relay_table: a registered
    # relay would be resynchronised by the source's unicast UPDATE push,
    # which is not an invalidation and therefore not suppressed.


def _suppress_invalidations_to(world: World, victim: int) -> None:
    original = world.network._deliver

    def lossy_deliver(target, message):
        if target == victim and message.is_invalidation:
            return  # the injected bug: this delivery silently vanishes
        original(target, message)

    world.network._deliver = lossy_deliver


def _run_scenario(world: World, sink: ListSink) -> None:
    bus = TraceBus()
    bus.add_sink(sink)
    world.sim.attach_trace(bus)
    world.run(1.0)
    world.update_item(0)
    world.agent(0).source._on_ttn()  # flood the invalidation now
    world.run(5.0)
    world.agent(2).local_query(0, ConsistencyLevel.STRONG)
    world.run(30.0)


def _check(sink: ListSink):
    return InvariantChecker(delta=240.0).feed_all(sink.events).finish()


def test_suppressed_invalidation_yields_exactly_one_strong_violation():
    world = _rpcc_world()
    _plant_unregistered_relay(world)
    _suppress_invalidations_to(world, victim=1)
    sink = ListSink()
    _run_scenario(world, sink)

    report = _check(sink)
    assert not report.ok
    assert report.by_invariant() == {"strong": 1}
    (violation,) = report.violations
    assert violation.invariant == "strong"
    assert violation.node == 2
    assert violation.item == 0
    assert violation.served_version == 0


def test_control_run_without_mutation_is_clean():
    world = _rpcc_world()
    _plant_unregistered_relay(world)
    sink = ListSink()
    _run_scenario(world, sink)

    report = _check(sink)
    assert report.ok, report.format()
    # The same machinery observed real reads — the pass is not vacuous.
    assert report.reads_checked >= 1


def test_mutated_and_control_runs_trace_the_same_shape():
    """Both runs issue the query; only the verdict differs."""
    results = {}
    for label, mutate in (("control", False), ("mutated", True)):
        world = _rpcc_world()
        _plant_unregistered_relay(world)
        if mutate:
            _suppress_invalidations_to(world, victim=1)
        sink = ListSink()
        _run_scenario(world, sink)
        results[label] = (
            sum(1 for e in sink.events if e.etype == "query_issued"),
            _check(sink).ok,
        )
    assert results["control"] == (1, True)
    assert results["mutated"] == (1, False)
