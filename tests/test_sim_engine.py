"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.0).now == 42.0

    def test_non_finite_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=float("nan"))

    def test_schedule_returns_pending_handle(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        assert not handle.fired

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_infinite_time_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_at(float("inf"), lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, "not callable")

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestExecution:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_callback_args_passed(self, sim):
        result = []
        sim.schedule(1.0, lambda a, b: result.append(a + b), 2, 3)
        sim.run()
        assert result == [5]

    def test_run_until_stops_at_horizon(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_run_until_sets_clock_even_without_events(self, sim):
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), float("-inf")])
    def test_run_until_non_finite_horizon_rejected(self, sim, horizon):
        # nan used to fire every pending event (no comparison with nan is
        # true) and inf left the clock at inf, poisoning every later schedule.
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError):
            sim.run_until(horizon)
        assert fired == []
        assert sim.now == 0.0
        assert sim.pending_events == 1

    def test_clock_never_runs_backwards_across_run_and_run_until(self, sim):
        # run_until used to take max_events and still jump the clock to
        # the horizon, so the events it left behind fired in the past.
        seen = []
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, lambda: seen.append(sim.now))
        assert sim.run(max_events=1) == 1
        assert sim.run_until(10.0) == 2
        assert seen == [1.0, 2.0, 3.0]
        assert sim.now == 10.0
        assert sim.pending_events == 0
        with pytest.raises(TypeError):
            sim.run_until(20.0, max_events=1)

    def test_run_until_inclusive_of_boundary(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run_until(5.0)
        assert fired == [1]

    def test_events_scheduled_during_run_fire(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]

    def test_run_returns_event_count(self, sim):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 4

    def test_max_events_limits_run(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 7

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.run(max_events=1) == 1
        assert fired == [1]

    def test_step_on_empty_heap_returns_false(self, sim):
        assert sim.run(max_events=1) == 0

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        assert handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_cancel_after_fire_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_cancelled_events_not_counted(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert keep.fired

    def test_cancel_during_run(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestPendingCounter:
    """pending_events is a live O(1) counter, not a heap scan."""

    def test_tracks_schedule_cancel_fire(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[1].cancel()
        assert sim.pending_events == 3
        sim.run(max_events=1)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_double_cancel_decrements_once(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_does_not_decrement(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_during_run_stays_consistent(self, sim):
        later = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert sim.pending_events == 0

    def test_reschedule_chain_stays_consistent(self, sim):
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert sim.pending_events == 0
        assert count[0] == 100


class TestHeapCompaction:
    """Cancelled entries are swept once they outnumber live events."""

    def test_heap_stays_bounded_under_cancel_churn(self):
        # A rearmed-timer workload: every iteration schedules a far-future
        # event and immediately cancels the previous one.  Without
        # compaction the heap would hold ~10_000 tombstones.
        sim = Simulator()
        pending = None
        for i in range(10_000):
            fresh = sim.schedule(1_000.0 + i, lambda: None)
            if pending is not None:
                pending.cancel()
            pending = fresh
        assert sim.pending_events == 1
        assert sim.heap_size <= 2 * Simulator._COMPACT_FLOOR
        assert sim.heap_compactions > 0

    def test_compaction_preserves_fire_order(self):
        # Same live schedule twice; one store also schedules and cancels
        # enough extras to trigger compaction mid-build.
        plain, compacted = Simulator(), Simulator()
        order_plain, order_compacted = [], []
        for i in range(200):
            when = float((i * 37) % 100) + 1.0  # interleaved, with time ties
            plain.schedule(when, order_plain.append, i)
            compacted.schedule(when, order_compacted.append, i)
            compacted.schedule(500.0 + i, order_compacted.append, -i).cancel()
            compacted.schedule(700.0 + i, order_compacted.append, -i).cancel()
        assert plain.heap_compactions == 0
        assert compacted.heap_compactions > 0
        assert plain.run() == compacted.run() == 200
        assert order_compacted == order_plain

    def test_compaction_from_inside_a_callback(self, sim):
        # A callback cancels most of the store, so the heap is rebuilt
        # while the run loop is in the middle of draining it.
        fired = []
        doomed = [sim.schedule(5.0 + i, fired.append, -i) for i in range(150)]
        survivors = [sim.schedule(2.0 + i * 0.001, fired.append, i) for i in range(50)]

        def purge():
            for handle in doomed:
                handle.cancel()

        sim.schedule(1.0, purge)
        assert sim.run() == 1 + len(survivors)
        assert sim.heap_compactions > 0
        assert fired == list(range(50))
        assert sim.pending_events == sim.heap_size == sim.tombstones == 0

    def test_small_stores_never_compact(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None).cancel()
        assert sim.heap_compactions == 0
        assert sim.heap_size == 10


class TestEventStore:
    """Far-future times, renewal and pooling."""

    def test_far_future_events_fire_in_time_order(self, sim):
        # Hours-ahead events share the store with sub-second ones and
        # must still fire in time order, whatever order they arrived in.
        order = []
        sim.schedule(40_000.0, order.append, "far2")
        sim.schedule(20_000.0, order.append, "far1")
        sim.schedule(1.0, order.append, "near")
        sim.schedule(100.0, order.append, "mid")
        sim.run()
        assert order == ["near", "mid", "far1", "far2"]
        assert sim.pending_events == 0

    def test_reschedule_moves_a_pending_event(self, sim):
        fired = []
        handle = sim.schedule(5.0, fired.append, "x")
        moved = sim.reschedule(handle, 2.0)
        assert sim.pending_events == 1
        sim.run_until(2.0)
        assert fired == ["x"]
        assert not moved.pending
        sim.run()
        assert fired == ["x"]  # fires exactly once

    def test_reschedule_consumes_one_seq_like_cancel_plus_schedule(self):
        # Interleave a renewal with ordinary schedules at a tied time,
        # once through reschedule and once through the idiom it stands
        # for: the relative order must match exactly.
        def renew(sim, handle):
            return sim.reschedule(handle, 3.0)

        def cancel_and_schedule(sim, handle):
            handle.cancel()
            return sim.schedule(3.0, handle.callback, *handle.args)

        logs = []
        for move in (renew, cancel_and_schedule):
            sim = Simulator()
            order = []
            handle = sim.schedule(1.0, order.append, "renewed")
            sim.schedule(3.0, order.append, "a")
            move(sim, handle)  # tied with "a", later seq
            sim.schedule(3.0, order.append, "b")
            sim.run()
            logs.append(order)
        assert logs[0] == logs[1] == ["a", "renewed", "b"]

    def test_reschedule_rearms_a_fired_handle_in_place(self, sim):
        # The timers re-arm from inside their own callback and keep the
        # handle; a pending or cancelled one comes back as a new handle.
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert sim.reschedule(handle, 2.0) is handle
        assert handle.pending and handle.time == 3.0
        moved = sim.reschedule(handle, 5.0)
        assert moved is not handle and handle.cancelled and moved.pending
        assert sim.pending_events == 1 and sim.tombstones == 1
        sim.run()
        assert fired == ["x", "x"]
        assert sim.now == 6.0

    def test_post_fires_and_recycles_handles(self, sim):
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.post(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        assert sim.pending_events == 0
        # The handles went back to the freelist and are reused.
        assert len(sim._pool) == 2
        sim.post(1.0, fired.append, "c")
        assert len(sim._pool) == 1
        sim.run()
        assert fired == ["a", "b", "c"]
