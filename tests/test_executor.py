"""Tests for the campaign executor.

The load-bearing property is *bit-identity*: every run is a pure function
of its ``(config, spec, scenario)`` triple, so the parallel executor and
the store must be invisible to the science — same summaries, same series,
same relay samples, whatever the jobs count or store state.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import executor as executor_module
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    CampaignExecutor,
    CampaignRunError,
    env_jobs,
    run_key,
)
from repro.experiments.figures.base import run_axis_sweep
from repro.experiments.runner import STRATEGY_SPECS, run_simulation
from repro.experiments.store import STORE_FORMAT_VERSION, ResultStore
from repro.faults.plan import FaultPlan
from repro.peers.coefficients import SelectionThresholds

FAULT_PLANS = Path(__file__).resolve().parents[1] / "examples" / "faults"


def tiny_config(**kwargs):
    defaults = dict(
        n_peers=10,
        sim_time=120.0,
        warmup=0.0,
        seed=11,
        terrain_width=800.0,
        terrain_height=800.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def result_fingerprint(result):
    """Everything that must be identical across execution modes."""
    return (
        result.spec,
        result.scenario,
        result.config,
        result.summary,
        result.total_queries,
        result.total_updates,
        result.relay_samples,
        result.traffic_series.times,
        result.traffic_series.values,
        result.energy_consumed,
        result.mean_battery_fraction,
    )


class TestRunKey:
    def test_equal_configs_share_a_key(self):
        assert run_key(tiny_config(), "push") == run_key(tiny_config(), "push")

    def test_any_field_changes_the_key(self):
        base = run_key(tiny_config(), "push")
        assert run_key(tiny_config(seed=12), "push") != base
        assert run_key(tiny_config(cache_num=9), "push") != base
        assert run_key(tiny_config(), "pull") != base
        assert run_key(tiny_config(), "push", "single_source") != base

    def test_spec_normalised(self):
        assert run_key(tiny_config(), " PUSH ") == run_key(tiny_config(), "push")

    @pytest.mark.parametrize(
        "config",
        [
            tiny_config(),
            tiny_config(
                controller="hysteresis",
                thresholds=SelectionThresholds(mu_car=0.2),
            ),
        ]
        + [
            tiny_config(faults=FaultPlan.load(path))
            for path in sorted(FAULT_PLANS.glob("*.json"))
        ],
    )
    def test_key_hashes_the_asdict_json(self, config):
        """The key is the hash of ``dataclasses.asdict(config)``'s JSON."""
        blob = json.dumps(
            {
                "version": STORE_FORMAT_VERSION,
                "config": dataclasses.asdict(config),
                "spec": "push",
                "scenario": "standard",
            },
            sort_keys=True,
            default=repr,
        )
        expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert run_key(config, "push") == expected


class TestPickleRoundTrip:
    def test_config_roundtrip(self):
        config = tiny_config(access_pattern="zipf", zipf_theta=0.8)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_result_roundtrip(self):
        result = run_simulation(tiny_config(), "rpcc-sc")
        clone = pickle.loads(pickle.dumps(result))
        assert result_fingerprint(clone) == result_fingerprint(result)


class TestBitIdentity:
    def test_parallel_matches_serial_for_every_spec(self):
        tasks = [(tiny_config(), spec, "standard") for spec in STRATEGY_SPECS]
        serial = CampaignExecutor(jobs=1).run_many(tasks)
        parallel = CampaignExecutor(jobs=2).run_many(tasks)
        for spec, left, right in zip(STRATEGY_SPECS, serial, parallel):
            assert result_fingerprint(left) == result_fingerprint(right), spec

    def test_parallel_campaign_matches_serial(self):
        tasks = [
            (tiny_config(seed=seed), spec, "standard")
            for seed in (11, 12)
            for spec in ("push", "pull")
        ]
        serial = CampaignExecutor(jobs=1).run_many(tasks)
        parallel = CampaignExecutor(jobs=3).run_many(tasks)
        for left, right in zip(serial, parallel):
            assert result_fingerprint(left) == result_fingerprint(right)

class TestStoreBackedExecutor:
    def test_parameter_change_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignExecutor(store=store).run_one(tiny_config(), "push")
        changed = CampaignExecutor(store=store)
        changed.run_one(tiny_config(seed=99), "push")
        assert changed.runs_executed == 1
        assert changed.store_hits == 0


class TestExecutorSemantics:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(jobs=0)

    def test_constructor_takes_jobs_and_a_store_only(self):
        """One campaign path: nothing else selects how a campaign runs."""
        import inspect

        parameters = inspect.signature(CampaignExecutor).parameters
        assert [(name, p.default) for name, p in parameters.items()] == [
            ("jobs", 1), ("store", None),
        ]

    def test_duplicate_tasks_run_once(self):
        executor = CampaignExecutor()
        results = executor.run_many([(tiny_config(), "push", "standard")] * 3)
        assert executor.runs_executed == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_serial_failure_names_the_point(self):
        executor = CampaignExecutor()
        with pytest.raises(CampaignRunError) as excinfo:
            executor.run_many([
                (tiny_config(), "push", "standard"),
                (tiny_config(), "gossip", "standard"),
            ])
        error = excinfo.value
        assert error.spec == "gossip"
        assert error.config == tiny_config()
        assert "ConfigurationError" in error.worker_traceback

    def test_parallel_failure_fails_cleanly(self):
        executor = CampaignExecutor(jobs=2)
        with pytest.raises(CampaignRunError) as excinfo:
            executor.run_many([
                (tiny_config(), "push", "standard"),
                (tiny_config(), "gossip", "standard"),
                (tiny_config(), "pull", "standard"),
            ])
        assert excinfo.value.spec == "gossip"
        assert "ConfigurationError" in excinfo.value.worker_traceback

    @pytest.mark.skipif(
        # The pool's start method, read without fixing it for the process.
        (multiprocessing.get_start_method(allow_none=True)
         or multiprocessing.get_all_start_methods()[0]) != "fork",
        reason="the workers must inherit the patched run_simulation",
    )
    def test_dead_worker_is_blamed_on_its_own_task(self, tmp_path, monkeypatch):
        """A worker that dies mid-task breaks the pool; the error names
        that task, not one that already finished and was committed."""
        real_run = executor_module.run_simulation
        root = tmp_path / "store"

        def run_or_die(config, spec, scenario):
            if spec != "push":
                return real_run(config, spec, scenario)
            # Die once the parent has committed the other point.
            deadline = time.monotonic() + 60.0
            while len(ResultStore(root)) < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(1)

        monkeypatch.setattr(executor_module, "run_simulation", run_or_die)
        monkeypatch.setattr(executor_module, "COMMIT_INTERVAL_S", 0.0)
        executor = CampaignExecutor(jobs=2, store=ResultStore(root))
        with pytest.raises(CampaignRunError) as excinfo:
            executor.run_many([
                (tiny_config(), "pull", "standard"),
                (tiny_config(), "push", "standard"),
            ])
        assert excinfo.value.spec == "push"
        assert "worker process died abruptly" in excinfo.value.worker_traceback
        assert ResultStore(root).keys() == {run_key(tiny_config(), "pull")}


class TestAxisSweepDedup:
    def test_duplicate_axis_values_run_once(self):
        executor = CampaignExecutor()
        results = run_axis_sweep(
            tiny_config(), "cache_num", (2, 2, 4), ("push",), executor=executor
        )
        assert executor.runs_executed == 2
        assert set(results) == {("push", 2), ("push", 4)}


class TestEnvJobs:
    def test_default_when_unset_or_blank(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        assert env_jobs("REPRO_TEST_JOBS") == 1
        assert env_jobs("REPRO_TEST_JOBS", default=4) == 4
        monkeypatch.setenv("REPRO_TEST_JOBS", "   ")
        assert env_jobs("REPRO_TEST_JOBS") == 1

    def test_parses_positive_integers(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", "8")
        assert env_jobs("REPRO_TEST_JOBS") == 8

    @pytest.mark.parametrize("bad", ["0", "-3", "two", "1.5"])
    def test_rejects_invalid_values(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TEST_JOBS", bad)
        with pytest.raises(ConfigurationError):
            env_jobs("REPRO_TEST_JOBS")
