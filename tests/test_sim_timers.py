"""Unit tests for periodic and countdown timers."""

import pytest

from repro.errors import SimulationError
from repro.sim.timers import CountdownTimer, PeriodicTimer, staggered_start


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_offset(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now), start_offset=3.0)
        timer.start()
        sim.run_until(25.0)
        assert ticks == [3.0, 13.0, 23.0]

    def test_start_idempotent(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(1))
        timer.start()
        timer.start()
        sim.run_until(10.0)
        assert ticks == [1]

    def test_interval_change_applies_after_pending_tick(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run_until(10.0)
        # The tick at t=20 is already scheduled; the new interval kicks in
        # for the tick after it.
        timer.interval = 5.0
        sim.run_until(25.0)
        assert ticks == [10.0, 20.0, 25.0]

    def test_tick_counter(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        sim.run_until(5.5)
        assert timer.ticks == 5

    @pytest.mark.parametrize("interval", [0.0, float("nan"), float("inf")])
    def test_non_positive_interval_rejected(self, sim, interval):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, interval, lambda: None)

    @pytest.mark.parametrize("interval", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_interval_rejected_at_assignment(self, sim, interval):
        # Not at the next tick, with the engine's generic scheduling error.
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run_until(10.0)
        with pytest.raises(SimulationError, match="interval"):
            timer.interval = interval
        assert timer.interval == 10.0
        sim.run_until(30.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_interval_assignment_stores_a_float(self, sim):
        timer = PeriodicTimer(sim, 10, lambda: None)
        timer.interval = 4
        assert timer.interval == 4.0 and type(timer.interval) is float

    @pytest.mark.parametrize("offset", [-1.0, float("nan"), float("inf")])
    def test_bad_start_offset_rejected_at_construction(self, sim, offset):
        # Not only at start(), with the engine's generic scheduling error.
        with pytest.raises(SimulationError, match="start_offset"):
            PeriodicTimer(sim, 1.0, lambda: None, start_offset=offset)

    def test_running_property(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        assert not timer.running
        timer.start()
        assert timer.running


class TestCountdownTimer:
    def test_starts_expired(self, sim):
        timer = CountdownTimer(sim, 10.0)
        assert timer.expired
        assert timer.remaining == 0.0

    def test_renew_opens_window(self, sim):
        timer = CountdownTimer(sim, 10.0)
        timer.renew()
        assert timer.remaining == pytest.approx(10.0)
        assert not timer.expired

    def test_remaining_decreases_with_clock(self, sim):
        timer = CountdownTimer(sim, 10.0)
        timer.renew()
        sim.run_until(4.0)
        assert timer.remaining == pytest.approx(6.0)

    def test_expires_after_duration(self, sim):
        timer = CountdownTimer(sim, 10.0)
        timer.renew()
        sim.run_until(10.0)
        assert timer.expired

    def test_renew_extends_window(self, sim):
        timer = CountdownTimer(sim, 10.0)
        timer.renew()
        sim.run_until(8.0)
        timer.renew()
        sim.run_until(12.0)
        assert timer.remaining == pytest.approx(6.0)

    def test_renew_custom_duration(self, sim):
        timer = CountdownTimer(sim, 10.0)
        timer.renew(3.0)
        assert timer.remaining == pytest.approx(3.0)

    @pytest.mark.parametrize("window", [-1.0, float("nan")])
    def test_negative_renew_rejected(self, sim, window):
        timer = CountdownTimer(sim, 10.0)
        with pytest.raises(SimulationError):
            timer.renew(window)

    def test_expire_now(self, sim):
        timer = CountdownTimer(sim, 5.0)
        timer.renew()
        timer.expire_now()
        assert timer.expired
        assert sim.pending_events == 0  # a countdown schedules nothing

    @pytest.mark.parametrize("duration", [0.0, float("nan")])
    def test_non_positive_duration_rejected(self, sim, duration):
        with pytest.raises(SimulationError):
            CountdownTimer(sim, duration)

    def test_expires_at(self, sim):
        timer = CountdownTimer(sim, 7.0)
        timer.renew()
        assert timer.expires_at == pytest.approx(7.0)


class TestStaggeredStart:
    def test_node_zero_waits_one_full_period(self):
        assert staggered_start(120.0, 0) == 120.0

    def test_phases_lie_inside_the_period_and_differ_per_node(self):
        starts = [staggered_start(120.0, node) for node in range(1, 50)]
        assert all(0.0 < start < 120.0 for start in starts)
        assert len(set(starts)) == len(starts)

    def test_phase_is_the_golden_ratio_fraction_of_the_period(self):
        # The digests depend on this exact float expression.
        assert staggered_start(90.0, 7) == 90.0 * ((7 * 0.6180339887498949) % 1.0)
