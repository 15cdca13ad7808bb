"""Unit tests for the battery and energy-cost model."""

import pytest

from repro.energy.battery import Battery, EnergyCosts
from repro.errors import ConfigurationError


class TestEnergyCosts:
    def test_transmit_cost_scales_with_size(self):
        costs = EnergyCosts(tx_fixed=0.01, tx_per_byte=0.001)
        assert costs.transmit_cost(100) == pytest.approx(0.11)

    def test_receive_cheaper_than_transmit_by_default(self):
        costs = EnergyCosts()
        assert costs.receive_cost(100) < costs.transmit_cost(100)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyCosts(tx_fixed=-1.0)

    @pytest.mark.parametrize(
        "name",
        ["tx_fixed", "tx_per_byte", "rx_fixed", "rx_per_byte", "idle_per_second"],
    )
    def test_read_only_after_validation(self, name):
        """One price list is shared by every default battery."""
        costs = EnergyCosts()
        with pytest.raises(AttributeError):
            setattr(costs, name, 1.0)
        # No new attribute either (CPython 3.11's frozen + slots dataclass
        # refuses it with a TypeError, later versions with AttributeError).
        with pytest.raises((AttributeError, TypeError)):
            costs.surcharge = 1.0
        assert getattr(costs, name) == getattr(EnergyCosts(), name)


class TestBattery:
    def test_default_costs_are_one_shared_object(self):
        assert Battery().costs is Battery(capacity=5.0).costs
        assert Battery().costs == EnergyCosts()
        own = EnergyCosts(idle_per_second=0.5)
        assert Battery(costs=own).costs is own

    def test_starts_full(self):
        battery = Battery(capacity=50.0)
        assert battery.level == 50.0
        assert battery.fraction == 1.0

    def test_initial_charge(self):
        battery = Battery(capacity=100.0, initial=25.0)
        assert battery.fraction == 0.25

    def test_initial_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity=10.0, initial=20.0)

    def test_capacity_positive(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity=0.0)

    def test_consume_drains(self):
        battery = Battery(capacity=10.0)
        battery.consume(4.0)
        assert battery.level == pytest.approx(6.0)
        assert battery.total_consumed == pytest.approx(4.0)

    def test_consume_clamps_at_empty(self):
        battery = Battery(capacity=1.0)
        battery.consume(5.0)
        assert battery.level == 0.0
        assert battery.depleted
        assert battery.total_consumed == pytest.approx(1.0)

    def test_negative_consume_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery().consume(-1.0)

    def test_transmit_receive_counters(self):
        battery = Battery()
        battery.on_transmit(100)
        battery.on_transmit(100)
        battery.on_receive(100)
        assert battery.tx_count == 2
        assert battery.rx_count == 1
        assert battery.level < battery.capacity

    def test_idle_drain(self):
        costs = EnergyCosts(idle_per_second=0.5)
        battery = Battery(capacity=10.0, costs=costs)
        battery.idle(4.0)
        assert battery.level == pytest.approx(8.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery().idle(-1.0)

    def test_full_recharge(self):
        battery = Battery(capacity=10.0, initial=2.0)
        battery.recharge()
        assert battery.level == 10.0

    def test_partial_recharge_capped(self):
        battery = Battery(capacity=10.0, initial=8.0)
        battery.recharge(5.0)
        assert battery.level == 10.0

    def test_negative_recharge_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery().recharge(-1.0)

    def test_fraction_tracks_level(self):
        battery = Battery(capacity=20.0)
        battery.consume(5.0)
        assert battery.fraction == pytest.approx(0.75)
