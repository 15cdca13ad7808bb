"""Startup batching: one vectorized ``schedule_batch`` filing pass.

``Simulation.run`` collects every startup arm (TTN timers, arrival
streams, coefficient-period timers, switching processes, samplers, the
controller tick) into a :class:`~repro.sim.engine.StartupBatch` and files
them in a single :meth:`~repro.sim.engine.Simulator.schedule_batch`
call.  The contract under test: the batched pass is *bit-identical* to
the per-call ``schedule`` loop — same sequence numbers, same fire order —
through both filing branches of ``schedule_batch``: bulk ``extend`` +
``heapify`` for a batch that rivals the store, per-event ``heappush`` for
a small batch into a large store.  (Several test ids still say ``wheel``
and ``heap``: they paired two engines until the wheel was removed.)
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.sim.engine import Simulator, StartupBatch
from repro.sim.timers import PeriodicTimer
from repro.workload.arrivals import ExponentialProcess


# Sub-second ties, minute- and hour-scale delays and a zero delay.
DELAYS = (
    [0.1, 0.1, 0.1, 5.0, 5.0, 63.9, 64.0, 1000.0, 16383.0, 20000.0, 0.0]
    + [float(i) % 97.0 + 0.25 for i in range(200)]
)


def _fire_log(sim: Simulator, schedule) -> list:
    """Drain ``sim`` fully, recording (time, tag) per firing."""
    log = []
    schedule(sim, log)
    sim.run()
    return log


def _per_call(sim: Simulator, log: list) -> None:
    for tag, delay in enumerate(DELAYS):
        sim.schedule(delay, lambda t=tag: log.append((sim.now, t)))


def _batched(sim: Simulator, log: list) -> None:
    batch = StartupBatch()
    for tag, delay in enumerate(DELAYS):
        batch.add(delay, lambda t=tag: log.append((sim.now, t)))
    assert len(batch) == len(DELAYS)
    handles = batch.flush(sim)
    assert len(handles) == len(DELAYS)


def _seeded(schedule, events: int):
    """``schedule`` into a store that already holds ``events`` entries."""
    def seeded(sim: Simulator, log: list) -> None:
        for tag in range(events):
            sim.schedule(50.0 + tag, lambda t=tag: log.append(("pre", t)))
        schedule(sim, log)

    return seeded


class TestFireOrderEquivalence:
    def test_batch_matches_per_call_on_wheel(self):
        """Into an empty store: the batch takes the extend+heapify branch."""
        unbatched = _fire_log(Simulator(), _per_call)
        batched = _fire_log(Simulator(), _batched)
        assert batched == unbatched

    def test_batch_matches_per_call_on_heap(self):
        """Into a store 8x its size: the batch takes the heappush branch."""
        events = len(DELAYS) * 8 + 1
        unbatched = _fire_log(Simulator(), _seeded(_per_call, events))
        batched = _fire_log(Simulator(), _seeded(_batched, events))
        assert batched == unbatched

    def test_wheel_vs_heap_batched(self):
        """The two filing branches put the same batch in the same order."""
        events = len(DELAYS) * 8 + 1
        pushed = _fire_log(Simulator(), _seeded(_batched, events))
        heapified = _fire_log(Simulator(), _batched)
        assert [entry for entry in pushed if entry[0] != "pre"] == heapified
        assert len(pushed) == events + len(heapified)

    def test_heap_heapify_branch_matches_push_branch(self):
        """A small batch (pushed) then a big one (heapified) into one
        store fire like the same events scheduled one call at a time."""
        def per_call(sim: Simulator, events: list) -> None:
            for delay, callback in events:
                sim.schedule(delay, callback)

        def batched(sim: Simulator, events: list) -> None:
            batch = StartupBatch()
            for delay, callback in events:
                batch.add(delay, callback)
            batch.flush(sim)

        def small_then_large(file):
            def schedule(sim: Simulator, log: list) -> None:
                # 40 entries: a 3-event batch takes the per-event push
                # branch (batch * 8 < len(heap)), the DELAYS batch the
                # extend+heapify one.
                for tag in range(40):
                    sim.schedule(500.0 + tag, lambda t=tag: log.append(("pre", t)))
                for name, delays in (("small", [1.0, 2.0, 3.0]), ("large", DELAYS)):
                    file(sim, [
                        (delay, lambda n=name, t=tag: log.append((sim.now, n, t)))
                        for tag, delay in enumerate(delays)
                    ])

            return schedule

        batched_log = _fire_log(Simulator(), small_then_large(batched))
        per_call_log = _fire_log(Simulator(), small_then_large(per_call))
        assert batched_log == per_call_log

    def test_seq_numbers_assigned_in_add_order(self):
        sim = Simulator()
        batch = StartupBatch()
        for delay in (5.0, 1.0, 5.0):
            batch.add(delay, lambda: None)
        handles = batch.flush(sim)
        seqs = [handle.seq for handle in handles]
        assert seqs == sorted(seqs)
        # Ties at t=5.0 break by add order.
        assert handles[0].seq < handles[2].seq


class TestStartupBatchContract:
    def test_single_shot(self):
        sim = Simulator()
        batch = StartupBatch()
        batch.add(1.0, lambda: None)
        batch.flush(sim)
        with pytest.raises(SchedulingError):
            batch.flush(sim)
        with pytest.raises(SchedulingError):
            batch.add(1.0, lambda: None)

    def test_empty_flush(self):
        assert StartupBatch().flush(Simulator()) == []

    def test_adopt_receives_handle(self):
        sim = Simulator()
        batch = StartupBatch()
        seen = []
        batch.add(2.5, lambda: None, adopt=seen.append)
        handles = batch.flush(sim)
        assert seen == handles
        assert seen[0].pending and seen[0].time == 2.5

    def test_periodic_timer_rearms_after_batched_start(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 10.0, lambda: None)
        batch = StartupBatch()
        timer.start(batch)
        assert not timer.running  # handle arrives at flush
        batch.flush(sim)
        assert timer.running
        sim.run_until(35.0)
        assert timer.ticks == 3
        assert timer.running  # re-armed through the adopted handle

    def test_exponential_process_draws_rng_at_add_time(self):
        """Batched start consumes the RNG exactly like the unbatched one."""
        import random

        def arrivals(batched: bool) -> list:
            sim = Simulator()
            rng = random.Random(42)
            times = []
            process = ExponentialProcess(
                sim, rng, 7.0, lambda: times.append(sim.now)
            )
            if batched:
                batch = StartupBatch()
                process.start(batch)
                batch.flush(sim)
            else:
                process.start()
            sim.run_until(200.0)
            return times

        assert arrivals(True) == arrivals(False)


class TestSimulationStartupBatched:
    """End-to-end: batched startup is invisible in simulation results."""

    CONFIG = dict(
        n_peers=12,
        terrain_width=800.0,
        terrain_height=800.0,
        sim_time=120.0,
        warmup=30.0,
        seed=13,
    )

    def _digest(self):
        result = build_simulation(
            SimulationConfig(**self.CONFIG), "rpcc-sc", "standard"
        ).run()
        summary = result.summary
        return (
            summary.transmissions,
            summary.messages,
            summary.queries_issued,
            summary.queries_answered,
            round(summary.mean_latency, 9),
            round(summary.stale_ratio, 9),
            result.events_processed,
        )

    def test_wheel_and_heap_runs_identical(self):
        # The tuple both engines produced before the wheel was removed.
        assert self._digest() == (1043, 168, 71, 71, 0.019606986, 0.0, 532)
