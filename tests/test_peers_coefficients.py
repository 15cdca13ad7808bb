"""Unit tests for the relay-selection coefficients (eqs 4.2.1-4.2.8)."""

import pytest

from repro.errors import ConfigurationError
from repro.peers.coefficients import CoefficientTracker, SelectionThresholds


class TestSelectionThresholds:
    def test_table1_defaults(self):
        thresholds = SelectionThresholds()
        assert thresholds.mu_car == 0.15
        assert thresholds.mu_cs == 0.6
        assert thresholds.mu_ce == 0.6

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            SelectionThresholds(mu_car=0.0)
        with pytest.raises(ConfigurationError):
            SelectionThresholds(mu_cs=1.5)


class TestCoefficientTracker:
    def test_initial_coefficients(self):
        tracker = CoefficientTracker()
        assert tracker.car == 1.0  # PAR = 0
        assert tracker.cs == 1.0
        assert tracker.ce == 1.0

    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            CoefficientTracker(phi=0.0)
        with pytest.raises(ConfigurationError):
            CoefficientTracker(omega=1.0)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf")])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ConfigurationError, match="phi"):
            CoefficientTracker(phi=phi)

    def test_par_three_window_smoothing(self):
        # omega=0.2: PAR_t = PAR_{t-2}*0.05 + PAR_{t-1}*0.1 + rate*0.85
        tracker = CoefficientTracker(phi=100.0, omega=0.2)
        tracker.record_access(10)
        tracker.close_period()
        assert tracker.par == pytest.approx(10 * 0.85)
        tracker.record_access(10)
        tracker.close_period()
        assert tracker.par == pytest.approx(8.5 * 0.1 + 10 * 0.85)
        tracker.record_access(10)
        tracker.close_period()
        assert tracker.par == pytest.approx(8.5 * 0.05 + 9.35 * 0.1 + 8.5)

    def test_psr_ewma(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.2)
        tracker.record_switch()
        tracker.record_switch()
        tracker.close_period()
        assert tracker.psr == pytest.approx(2 * 0.8)
        tracker.close_period()  # quiet period decays PSR
        assert tracker.psr == pytest.approx(2 * 0.8 * 0.2)

    def test_pmr_ewma(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.2)
        tracker.record_moves(5)
        tracker.close_period()
        assert tracker.pmr == pytest.approx(5 * 0.8)

    def test_rates_count_events_per_period(self):
        # Rates are per period phi, whatever its length: 6 events -> 6.
        for phi in (60.0, 120.0):
            tracker = CoefficientTracker(phi=phi, omega=0.0)
            for _ in range(6):
                tracker.record_switch()
            tracker.close_period()
            assert tracker.psr == 6.0

    def test_car_formula(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(9)
        tracker.close_period()
        assert tracker.car == pytest.approx(1.0 / (1.0 + 9.0))

    def test_cs_formula(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_switch()
        tracker.record_moves(2)
        tracker.close_period()
        assert tracker.cs == pytest.approx(1.0 / (1.0 + 1.0 + 2.0))

    def test_energy_fraction_validated(self):
        tracker = CoefficientTracker()
        with pytest.raises(ConfigurationError):
            tracker.set_energy_fraction(1.5)

    def test_counters_reset_each_period(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(10)
        tracker.close_period()
        tracker.close_period()
        assert tracker.par == 0.0  # no accesses in the second period

    def test_eligibility_stable_busy_energetic(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(20)  # CAR = 1/21 < 0.15
        tracker.set_energy_fraction(0.9)
        tracker.close_period()
        assert tracker.eligible(SelectionThresholds())

    def test_idle_node_not_eligible(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(2)  # CAR = 1/3 > 0.15
        tracker.close_period()
        assert not tracker.eligible(SelectionThresholds())

    def test_unstable_node_not_eligible(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(20)
        tracker.record_switch()
        tracker.close_period()
        # CS = 1/(1+0.8... omega=0 -> 1/(1+1) = 0.5 < 0.6
        assert not tracker.eligible(SelectionThresholds())

    def test_depleted_node_not_eligible(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.0)
        tracker.record_access(20)
        tracker.set_energy_fraction(0.5)
        tracker.close_period()
        assert not tracker.eligible(SelectionThresholds())

    def test_periods_closed_counter(self):
        tracker = CoefficientTracker()
        tracker.close_period()
        tracker.close_period()
        assert tracker.periods_closed == 2

    def test_mobile_node_loses_eligibility_over_time(self):
        tracker = CoefficientTracker(phi=100.0, omega=0.2)
        tracker.record_access(20)
        tracker.close_period()
        assert tracker.eligible(SelectionThresholds())
        tracker.record_access(20)
        tracker.record_moves(3)
        tracker.close_period()
        assert not tracker.eligible(SelectionThresholds())
