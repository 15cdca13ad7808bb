"""Campaign resume semantics against the SQLite result store.

The contract: kill a campaign mid-flight and restart it against the same
store, and (1) only the incomplete points re-run, (2) the merged results
— and any figure data built from them — are bit-identical to a
single-shot campaign that never failed.  Parallel execution must likewise
be invisible to the science.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    CampaignExecutor,
    CampaignRunError,
    run_key,
)
from repro.experiments.figures import reproduce
from repro.experiments.store import ResultStore
from tests.conftest import result_fingerprint

REPO = Path(__file__).resolve().parent.parent


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


GOOD_TASKS = [
    (tiny_config(seed=seed), spec, "standard")
    for seed in (11, 12)
    for spec in ("push", "rpcc-sc")
]

POISON = (tiny_config(), "gossip", "standard")


def keys_of(tasks):
    return {run_key(config, spec, scenario) for config, spec, scenario in tasks}


class TestResume:
    def test_killed_campaign_resumes_from_completed_points(self, tmp_path):
        single_shot = CampaignExecutor().run_many(GOOD_TASKS)

        # Mid-flight failure: the third point is unrunnable, so the serial
        # loop completes exactly two points before the campaign dies.
        store = ResultStore(tmp_path / "store")
        broken = GOOD_TASKS[:2] + [POISON] + GOOD_TASKS[2:]
        crashed = CampaignExecutor(store=store)
        with pytest.raises(CampaignRunError) as excinfo:
            crashed.run_many(broken)
        assert excinfo.value.spec == "gossip"
        assert crashed.runs_executed == 2
        assert ResultStore(tmp_path / "store").keys() == keys_of(GOOD_TASKS[:2])

        # Restart against the same store with the corrected point list:
        # only the two incomplete points simulate.
        resumed_executor = CampaignExecutor(store=ResultStore(tmp_path / "store"))
        resumed = resumed_executor.run_many(GOOD_TASKS)
        assert resumed_executor.runs_executed == 2
        assert resumed_executor.store_hits == 2

        for reference, result in zip(single_shot, resumed):
            assert result_fingerprint(result) == result_fingerprint(reference)

    def test_full_resume_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignExecutor(store=store).run_many(GOOD_TASKS)
        again = CampaignExecutor(store=ResultStore(tmp_path / "store"))
        again.run_many(GOOD_TASKS)
        assert again.runs_executed == 0
        assert again.store_hits == len(GOOD_TASKS)

    def test_controller_decisions_survive_the_store(self, tmp_path):
        """A re-served controller run carries the decisions it printed fresh."""
        from repro.faults import FaultPlan

        config = SimulationConfig(
            sim_time=180.0, warmup=60.0, seed=7, controller="hysteresis",
            faults=FaultPlan.load(REPO / "examples" / "faults" / "partition.json"),
        )
        fresh = CampaignExecutor(store=ResultStore(tmp_path / "store")).run_one(
            config, "rpcc-sc"
        )
        assert fresh.control_decisions, "the example must make the controller act"
        served_by = CampaignExecutor(store=ResultStore(tmp_path / "store"))
        served = served_by.run_one(config, "rpcc-sc")
        assert served_by.runs_executed == 0
        assert served.control_decisions == fresh.control_decisions
        assert result_fingerprint(served) == result_fingerprint(fresh)


class TestShardedCampaign:
    """Fan-out over worker processes, into a store, changes no number
    (the ids predate the process pool being the only fan-out)."""

    def test_sharded_matches_serial_bit_for_bit(self, tmp_path):
        serial = CampaignExecutor().run_many(GOOD_TASKS)
        pooled = CampaignExecutor(
            jobs=2, store=ResultStore(tmp_path / "st")
        ).run_many(GOOD_TASKS)
        for left, right in zip(serial, pooled):
            assert result_fingerprint(left) == result_fingerprint(right)

    def test_sharded_sweep_figure_data_identical(self, tmp_path):
        config = tiny_config()
        serial_figures, serial = reproduce(
            ("fig7c",), config, CampaignExecutor(), values=(2, 4)
        )
        pooled_executor = CampaignExecutor(
            jobs=2, store=ResultStore(tmp_path / "st")
        )
        pooled_figures, pooled = reproduce(
            ("fig7c",), config, pooled_executor, values=(2, 4)
        )
        assert set(serial) == set(pooled)
        for point in serial:
            assert serial[point].summary == pooled[point].summary
        assert pooled_figures["fig7c"].to_csv() == serial_figures["fig7c"].to_csv()

        # And a resumed rerun of the same sweep re-reads, not re-runs.
        resumed_executor = CampaignExecutor(store=ResultStore(tmp_path / "st"))
        resumed_figures, resumed = reproduce(
            ("fig7c",), config, resumed_executor, values=(2, 4)
        )
        assert resumed_executor.runs_executed == 0
        for point in serial:
            assert serial[point].summary == resumed[point].summary
        assert resumed_figures["fig7c"].to_csv() == serial_figures["fig7c"].to_csv()

    def test_sharded_failure_commits_completed_shard_work(self, tmp_path):
        """Whatever a failing campaign finished is in the store, and the
        rerun simulates exactly the rest."""
        reference = CampaignExecutor().run_many(GOOD_TASKS)
        for jobs in (1, 2):
            root = tmp_path / f"store-{jobs}"
            executor = CampaignExecutor(jobs=jobs, store=ResultStore(root))
            with pytest.raises(CampaignRunError):
                executor.run_many(GOOD_TASKS + [POISON])
            survivors = ResultStore(root).keys()
            assert survivors <= keys_of(GOOD_TASKS)
            # Every completion that reached the parent was committed; the
            # serial loop reaches the poisoned point after all the others.
            assert len(survivors) == executor.runs_executed
            if jobs == 1:
                assert survivors == keys_of(GOOD_TASKS)
            # Resume finishes whatever was lost, bit-identically.
            resumed = CampaignExecutor(store=ResultStore(root))
            results = resumed.run_many(GOOD_TASKS)
            assert resumed.runs_executed == len(GOOD_TASKS) - len(survivors)
            assert resumed.store_hits == len(survivors)
            for left, right in zip(reference, results):
                assert result_fingerprint(left) == result_fingerprint(right)


# ----------------------------------------------------------------------
# A real kill: SIGKILL reaches no ``finally``, so only what the executor
# had already committed survives.


def kill_config(**kwargs):
    return SimulationConfig(
        n_peers=30, warmup=0.0, terrain_width=1000.0, terrain_height=1000.0,
        **kwargs,
    )


#: Forty points, a few seconds of work: several commit intervals.
KILL_TASKS = [
    (kill_config(sim_time=300.0, seed=seed), spec, "standard")
    for seed in range(1, 21)
    for spec in ("rpcc-sc", "pull")
]

#: A point that outlasts the test, so the campaign never reaches the
#: commit every campaign makes as it closes.
ENDLESS = (kill_config(sim_time=3.0e6, seed=1), "push", "standard")

#: The endless point goes where it leaves the others one worker: last
#: when serial, first (occupying a worker of its own) on a pool.
KILL_CHILD = """
import sys
from repro.experiments.executor import CampaignExecutor
from repro.experiments.store import ResultStore
from tests.test_campaign_resume import ENDLESS, KILL_TASKS

jobs = int(sys.argv[2])
tasks = KILL_TASKS + [ENDLESS] if jobs == 1 else [ENDLESS] + KILL_TASKS
CampaignExecutor(jobs=jobs, store=ResultStore(sys.argv[1])).run_many(tasks)
"""


@pytest.fixture(scope="module")
def kill_reference():
    return CampaignExecutor(jobs=2).run_many(KILL_TASKS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sigkilled_campaign_keeps_what_it_committed(tmp_path, kill_reference, jobs):
    root = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    # Its own session, so the kill takes the pool's workers with it.
    child = subprocess.Popen(
        [sys.executable, "-c", KILL_CHILD, str(root), str(jobs)],
        cwd=REPO, env=env, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(ResultStore(root)) < 1:
            assert child.poll() is None, "child exited before it was killed"
            assert time.monotonic() < deadline, "child never committed a point"
            time.sleep(0.02)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it exited by itself; the loop's assert says so
        child.wait(timeout=30)

    survivors = ResultStore(root).keys()
    assert 1 <= len(survivors)
    assert survivors <= keys_of(KILL_TASKS)

    resumed_executor = CampaignExecutor(jobs=2, store=ResultStore(root))
    resumed = resumed_executor.run_many(KILL_TASKS)
    assert resumed_executor.store_hits == len(survivors)
    assert resumed_executor.runs_executed == len(KILL_TASKS) - len(survivors)
    for reference, result in zip(kill_reference, resumed):
        assert result_fingerprint(result) == result_fingerprint(reference)
