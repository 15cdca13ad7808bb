"""Unit tests for the battery and energy-cost model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.battery import Battery, EnergyCosts
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from tests.expectations import committed

NON_FINITE = [math.nan, math.inf, -math.inf]


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

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "name",
        ["tx_fixed", "tx_per_byte", "rx_fixed", "rx_per_byte", "idle_per_second"],
    )
    def test_non_finite_cost_rejected(self, name, value):
        """``nan < 0`` is false: a bare sign check would let it through."""
        with pytest.raises(ConfigurationError, match=name):
            EnergyCosts(**{name: value})

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

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_capacity_and_charge_rejected(self, value):
        with pytest.raises(ConfigurationError):
            Battery(capacity=value)
        with pytest.raises(ConfigurationError):
            Battery(capacity=10.0, initial=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("method", ["consume", "idle"])
    def test_non_finite_amount_rejected_and_level_untouched(self, method, value):
        """One ``nan`` in the level would switch depletion off for the run."""
        battery = Battery(capacity=10.0, initial=4.0)
        with pytest.raises(ConfigurationError):
            getattr(battery, method)(value)
        assert battery.level == 4.0
        assert battery.total_consumed == 0.0
        assert not battery.depleted

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

    def test_fraction_tracks_level(self):
        battery = Battery(capacity=20.0)
        battery.consume(5.0)
        assert battery.fraction == pytest.approx(0.75)


class ReferenceBattery:
    """The radio path as it was: price the packet, then ``consume`` it."""

    def __init__(self, capacity, costs, initial):
        self.costs, self.level = costs, initial
        self.total_consumed, self.tx_count, self.rx_count = 0.0, 0, 0

    def consume(self, joules):
        drained = min(joules, self.level)
        self.level -= drained
        self.total_consumed += drained

    def on_transmit(self, size):
        self.tx_count += 1
        self.consume(self.costs.transmit_cost(size))

    def on_receive(self, size):
        self.rx_count += 1
        self.consume(self.costs.receive_cost(size))

    def on_relay(self, size):
        self.on_receive(size)
        self.on_transmit(size)

    def idle(self, seconds):
        self.consume(self.costs.idle_per_second * seconds)


_PRICE = st.floats(min_value=0.0, max_value=0.01, allow_nan=False)
_STEP = st.one_of(
    st.tuples(
        st.sampled_from(["on_transmit", "on_receive", "on_relay"]),
        st.integers(min_value=0, max_value=64 * 1024),
    ),
    st.tuples(
        st.sampled_from(["idle", "consume"]),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    prices=st.tuples(_PRICE, _PRICE, _PRICE, _PRICE, _PRICE),
    initial=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    script=st.lists(_STEP, max_size=60),
)
def test_radio_hooks_bit_identical_to_price_then_consume(prices, initial, script):
    """The inlined hooks do ``consume``'s arithmetic in ``consume``'s order.

    Levels start low enough that most scripts cross empty, and every
    comparison is ``==``: not one bit of any float may move.
    """
    costs = EnergyCosts(*prices)
    battery = Battery(capacity=3.0, costs=costs, initial=initial)
    reference = ReferenceBattery(3.0, costs, initial)
    for method, amount in script:
        getattr(battery, method)(amount)
        getattr(reference, method)(amount)
        assert battery.level == reference.level
        assert battery.total_consumed == reference.total_consumed
        assert (battery.tx_count, battery.rx_count) == (
            reference.tx_count, reference.rx_count
        )


#: The strategies of ``tests/golden/energy.json``.
ENERGY_SPECS = ("pull", "push", "rpcc-hy")


def _energy_record(spec: str) -> dict:
    """150 s of the Table-1 world: what its radios spent and delivered."""
    config = SimulationConfig(seed=7, sim_time=150.0, warmup=0.0)
    simulation = build_simulation(config, spec, "standard")
    result = simulation.run()
    hosts = simulation.hosts.values()
    return {
        "energy_consumed": result.energy_consumed,
        "mean_battery_fraction": result.mean_battery_fraction,
        "tx_count": sum(host.battery.tx_count for host in hosts),
        "rx_count": sum(host.battery.rx_count for host in hosts),
        "messages_delivered": simulation.network.messages_delivered,
        "messages_undeliverable": simulation.network.messages_undeliverable,
        "messages_handled": sum(host.messages_handled for host in hosts),
    }


def energy() -> dict:
    """The content of ``tests/golden/energy.json``."""
    return {spec: _energy_record(spec) for spec in ENERGY_SPECS}


@pytest.mark.expectation
@pytest.mark.parametrize("spec", ENERGY_SPECS)
def test_table1_run_energy_and_deliveries_as_recorded(spec):
    """150 s of the Table-1 world, recorded before the radio path was inlined.

    Energy is compared with ``==`` (JSON round-trips a float exactly); the
    delivery counts say that no bystander delivery was skipped.
    """
    assert _energy_record(spec) == committed("energy")[spec]


@pytest.mark.expectation
def test_energy_file_holds_every_spec():
    assert set(committed("energy")) == set(ENERGY_SPECS)
