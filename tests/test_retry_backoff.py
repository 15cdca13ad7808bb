"""RetryBackoff: growth, cap, deterministic jitter, and wiring."""

from __future__ import annotations

import pytest

from repro.consistency.base import BACKOFF_CAP, BACKOFF_JITTER, RetryBackoff
from repro.errors import ProtocolError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults import Crash, FaultPlan


def ladder(base, attempt, factor=2.0):
    """The un-jittered wait of retry ``attempt``."""
    return min(BACKOFF_CAP, base * factor ** max(0, attempt - 1))


def in_band(wait, raw):
    """``wait`` lies within the shipped jitter around ``raw``."""
    return raw * (1 - BACKOFF_JITTER) <= wait <= raw * (1 + BACKOFF_JITTER)


class TestDelaySchedule:
    def test_exponential_growth_within_the_jitter_band(self):
        backoff = RetryBackoff(factor=2.0, seed=0)
        waits = [backoff.delay(5.0, attempt, "k") for attempt in (1, 2, 3)]
        for attempt, wait in zip((1, 2, 3), waits):
            assert in_band(wait, 5.0 * 2.0 ** (attempt - 1))
        assert waits[0] < waits[1] < waits[2]  # the bands do not overlap

    def test_cap_bounds_the_wait(self):
        backoff = RetryBackoff(factor=2.0, seed=0)
        assert in_band(backoff.delay(5.0, 10, "k"), 60.0)

    def test_attempt_zero_and_one_share_the_base(self):
        backoff = RetryBackoff(factor=3.0, seed=0)
        assert in_band(backoff.delay(4.0, 0, "k"), 4.0)
        assert in_band(backoff.delay(4.0, 1, "k"), 4.0)

    def test_jitter_is_a_pure_function_of_seed_key_attempt(self):
        a = RetryBackoff(factor=2.0, seed=7)
        b = RetryBackoff(factor=2.0, seed=7)
        for attempt in range(1, 6):
            assert a.delay(5.0, attempt, "3/12") == b.delay(5.0, attempt, "3/12")

    def test_jitter_stays_in_band(self):
        backoff = RetryBackoff(factor=2.0, seed=1)
        for attempt in range(1, 8):
            assert in_band(backoff.delay(5.0, attempt, "n/i"), ladder(5.0, attempt))

    def test_jitter_differs_across_keys_and_seeds(self):
        backoff = RetryBackoff(factor=1.0, seed=1)
        other_seed = RetryBackoff(factor=1.0, seed=2)
        waits = {backoff.delay(5.0, 1, f"0/{item}") for item in range(20)}
        assert len(waits) > 1  # keys actually spread the retries
        assert backoff.delay(5.0, 1, "0/0") != other_seed.delay(5.0, 1, "0/0")

    @pytest.mark.parametrize("kwargs", [
        {"factor": 0.9}, {"factor": float("nan")},
        {"factor": 0.0}, {"factor": -2.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ProtocolError):
            RetryBackoff(seed=0, **kwargs)


class TestCapSaturation:
    def test_delays_pin_at_cap_once_reached(self):
        backoff = RetryBackoff(factor=2.0, seed=0)
        waits = [backoff.delay(5.0, attempt, "k") for attempt in range(1, 12)]
        # 5, 10, 20, 40, then pinned at 60 s.
        assert [ladder(5.0, attempt) for attempt in range(1, 6)] == [
            5.0, 10.0, 20.0, 40.0, 60.0
        ]
        for attempt, wait in enumerate(waits, start=1):
            assert in_band(wait, ladder(5.0, attempt))
        assert all(in_band(wait, 60.0) for wait in waits[4:])

    def test_cap_saturation_survives_huge_attempt_numbers(self):
        # factor ** attempt overflows a float around attempt ~1024; the
        # min() against the cap must still yield a finite, pinned wait.
        backoff = RetryBackoff(factor=2.0, seed=0)
        assert in_band(backoff.delay(5.0, 10_000, "k"), 60.0)

    def test_jitter_still_varies_at_the_cap(self):
        backoff = RetryBackoff(factor=2.0, seed=3)
        waits = {backoff.delay(5.0, attempt, "k") for attempt in range(6, 16)}
        assert len(waits) > 1  # saturated retries still decorrelate
        assert all(in_band(wait, 60.0) for wait in waits)

    def test_base_above_cap_clamps_immediately(self):
        backoff = RetryBackoff(factor=2.0, seed=0)
        assert in_band(backoff.delay(200.0, 1, "k"), 60.0)


class TestJitterDeterminism:
    def test_identical_attempt_key_pairs_always_agree(self):
        backoff = RetryBackoff(factor=2.0, seed=9)
        first = [backoff.delay(5.0, a, "2/7") for a in range(1, 6)]
        second = [backoff.delay(5.0, a, "2/7") for a in range(1, 6)]
        assert first == second  # no hidden per-call state

    def test_call_order_does_not_leak_into_the_jitter(self):
        # Interleaving draws for other keys must not perturb a pair.
        reference = RetryBackoff(factor=2.0, seed=9)
        noisy = RetryBackoff(factor=2.0, seed=9)
        for other in range(50):
            noisy.delay(5.0, 1 + other % 4, f"noise/{other}")
        for attempt in range(1, 6):
            assert (
                noisy.delay(5.0, attempt, "2/7")
                == reference.delay(5.0, attempt, "2/7")
            )


class _RecordingBackoff(RetryBackoff):
    """RetryBackoff that logs every (attempt, key, base, wait) it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def delay(self, base, attempt, key):
        wait = super().delay(base, attempt, key)
        self.calls.append((attempt, key, base, wait))
        return wait


class TestResetAfterReconnect:
    """A fresh query after a reconnect restarts the ladder at attempt 1.

    Backoff state lives in the per-query ``PendingQuery.attempts``
    counter, never in the shared :class:`RetryBackoff` — so abandoning a
    query during an outage and issuing a new one after the network heals
    must start from the base wait again, not resume the grown one.
    """

    def _outage_world(self):
        from tests.conftest import line_positions, make_world
        from repro.consistency.pull import PullStrategy

        world = make_world(line_positions(4), PullStrategy)
        backoff = _RecordingBackoff(factor=2.0, seed=0)
        world.context.backoff = backoff
        # Phantom holders of item 3 at nodes 1 and 2: listed in the
        # directory but with no copy in their store, so they receive the
        # request and stay silent — each client timeout climbs one rung
        # of the ladder and retries the next holder.
        world.directory.add(3, 1)
        world.directory.add(3, 2)
        return world, backoff

    def test_ladder_grows_during_outage_and_resets_after_reconnect(self):
        from repro.consistency.levels import ConsistencyLevel

        world, backoff = self._outage_world()
        world.hosts[3].set_online(False)  # the real source is down
        world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.sim.run_until(60.0)
        outage_calls = list(backoff.calls)
        # Both phantom holders tried, each retry one rung higher; the
        # third attempt finds no reachable holder and gives up.
        assert [attempt for attempt, _, _, _ in outage_calls] == [1, 2]
        assert all(key == "0/3" for _, key, _, _ in outage_calls)
        (_, _, base, first), (_, _, second_base, second) = outage_calls
        assert second_base == base
        assert in_band(first, base) and in_band(second, 2.0 * base)
        assert world.metrics.counter("query_no_holder") == 1

        # Source back online; a fresh query restarts at rung 1 with the
        # base wait — the grown ladder died with the abandoned query.
        world.hosts[3].set_online(True)
        backoff.calls.clear()
        world.agent(0).local_query(3, ConsistencyLevel.WEAK)
        world.sim.run_until(120.0)
        assert backoff.calls, "post-reconnect query never reached a holder"
        first_attempt, key, _, wait = backoff.calls[0]
        assert first_attempt == 1
        assert key == "0/3"
        assert wait == first  # back to the base wait
        assert world.metrics.latency.answered >= 1


class TestWiring:
    def _context(self, config, spec="pull"):
        return build_simulation(config, spec, "standard").strategy.context

    def _small(self, **overrides):
        return SimulationConfig(
            n_peers=6, terrain_width=600.0, terrain_height=600.0,
            sim_time=30.0, warmup=0.0, seed=1, **overrides,
        )

    def test_default_run_has_no_backoff(self):
        assert self._context(self._small()).backoff is None

    def test_fault_plan_auto_enables_backoff(self):
        plan = FaultPlan(faults=(Crash(node=1, at=5.0),))
        context = self._context(self._small(faults=plan))
        assert context.backoff is not None
        assert context.backoff.factor == 2.0
        assert context.backoff.seed == 1

    def test_empty_plan_counts_as_no_plan(self):
        context = self._context(self._small(faults=FaultPlan()))
        assert context.backoff is None

    def test_context_default_is_no_backoff(self):
        # Direct construction (the unit-test path) keeps the historical
        # fixed retry wait unless a backoff is handed in explicitly.
        from tests.conftest import line_positions, make_world
        from repro.consistency.pull import PullStrategy

        world = make_world(line_positions(3), PullStrategy)
        assert world.context.backoff is None
