"""Unit tests for arrival processes, access patterns and level mixes."""

from collections import Counter

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.errors import WorkloadError
from repro.sim.timers import ArrivalClock
from repro.workload.access import UniformAccess, ZipfAccess
from repro.workload.arrivals import ExponentialProcess
from repro.workload.mix import LevelMix

#: Seed of the processes built here (the ``rng`` fixture's, so the draws are its).
SEED = 12345


def _clocked(sim, seed, mean, on_arrival):
    """A stream on a one-member arrival clock: how it runs standalone."""
    process = ExponentialProcess(seed, mean)
    clock = ArrivalClock(sim, lambda member: on_arrival())
    return process, clock


class TestExponentialProcess:
    def test_mean_interval_approximate(self, sim):
        times = []
        process, clock = _clocked(sim, SEED, 10.0, lambda: times.append(sim.now))
        clock.start([process])
        sim.run_until(10_000.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert 8.5 < mean_gap < 11.5
        assert process.arrivals == len(times)

    def test_start_idempotent(self, sim):
        process, clock = _clocked(sim, SEED, 5.0, lambda: None)
        clock.start([process])
        clock.start([process])
        assert sim.pending_events == 1

    def test_invalid_mean(self):
        with pytest.raises(WorkloadError):
            ExponentialProcess(SEED, 0.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_unusable_mean_rejected_at_construction(self, mean):
        # NaN used to pass until start(); inf there raised ZeroDivisionError.
        with pytest.raises(WorkloadError, match="mean_interval"):
            ExponentialProcess(SEED, mean)

    def test_deterministic_given_seed(self):
        def run_once():
            from repro.sim.engine import Simulator

            local = Simulator()
            times = []
            process, clock = _clocked(local, 7, 5.0, lambda: times.append(local.now))
            clock.start([process])
            local.run_until(100.0)
            return times

        assert run_once() == run_once()


class TestUniformAccess:
    def test_never_returns_own_item(self, rng):
        access = UniformAccess(range(10))
        assert all(access.choose(rng, 3) != 3 for _ in range(200))

    def test_covers_all_items(self, rng):
        access = UniformAccess(range(5))
        seen = {access.choose(rng, 0) for _ in range(500)}
        assert seen == {1, 2, 3, 4}

    def test_roughly_uniform(self, rng):
        access = UniformAccess(range(5))
        counts = Counter(access.choose(rng, 0) for _ in range(4000))
        assert max(counts.values()) / min(counts.values()) < 1.4

    def test_single_item_degenerate(self, rng):
        access = UniformAccess([7])
        assert access.choose(rng, 7) == 7

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            UniformAccess([])


class TestZipfAccess:
    def test_skewed_popularity(self, rng):
        access = ZipfAccess(range(50), theta=0.9, seed=1)
        counts = Counter(access.choose(rng, -1) for _ in range(20_000))
        frequencies = sorted(counts.values(), reverse=True)
        top_share = sum(frequencies[:5]) / 20_000
        assert top_share > 0.3  # the head dominates

    def test_theta_zero_is_uniform(self, rng):
        access = ZipfAccess(range(10), theta=0.0, seed=1)
        counts = Counter(access.choose(rng, -1) for _ in range(10_000))
        assert max(counts.values()) / min(counts.values()) < 1.4

    def test_avoids_own_item(self, rng):
        access = ZipfAccess(range(5), theta=1.0, seed=2)
        assert all(access.choose(rng, 2) != 2 for _ in range(300))

    def test_negative_theta_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfAccess(range(5), theta=-0.5)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfAccess([])

    def test_rank_shuffle_depends_on_seed(self, rng):
        heavy_a = Counter(
            ZipfAccess(range(20), theta=1.2, seed=1).choose(rng, -1)
            for _ in range(3000
        )).most_common(1)[0][0]
        heavy_b = Counter(
            ZipfAccess(range(20), theta=1.2, seed=2).choose(rng, -1)
            for _ in range(3000
        )).most_common(1)[0][0]
        assert heavy_a != heavy_b  # popular item placed differently


class TestLevelMix:
    def test_pure_mix(self, rng):
        mix = LevelMix.pure("sc")
        assert all(
            mix.choose(rng) is ConsistencyLevel.STRONG for _ in range(50)
        )

    def test_hybrid_equal_thirds(self, rng):
        mix = LevelMix.hybrid()
        counts = Counter(mix.choose(rng) for _ in range(9000))
        for level in ConsistencyLevel:
            assert 2600 < counts[level] < 3400

    def test_weighted_mix(self, rng):
        mix = LevelMix({ConsistencyLevel.WEAK: 3.0, ConsistencyLevel.STRONG: 1.0})
        counts = Counter(mix.choose(rng) for _ in range(8000))
        ratio = counts[ConsistencyLevel.WEAK] / counts[ConsistencyLevel.STRONG]
        assert 2.4 < ratio < 3.6

    def test_invalid_weights(self):
        with pytest.raises(WorkloadError):
            LevelMix({})
        with pytest.raises(WorkloadError):
            LevelMix({ConsistencyLevel.WEAK: -1.0})

    def test_levels_property(self):
        mix = LevelMix.pure("dc")
        assert mix.levels == (ConsistencyLevel.DELTA,)
