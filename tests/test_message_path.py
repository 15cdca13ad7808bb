"""What a message costs: calls per delivery and per radio event, gated.

DESIGN.md ("What a message costs") has the two call chains before and
after; ``benchmarks/message_frames.py`` counts them with ``sys.setprofile``
on a seeded 50-peer world, and this file holds the counts to what the
tree reached plus 3 % — so a refactor that re-grows the chain between the
network and a handler, or between a radio event and the battery, fails a
test and not a benchmark.  The counts are exact and box-independent.

The import-graph test is the other half of what one run pays before its
first event: a plain run must not load the campaign machinery.  The
thread tests hold what numpy's import costs: no BLAS worker thread, and
an environment left as it was.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import message_frames

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def measured():
    counts = {spec: message_frames.measure(spec) for spec in message_frames.SPECS}
    counts["radio"] = message_frames.measure_radio()
    return counts


def test_counts_within_budget(measured):
    assert message_frames.over_budget(measured) == []


def test_the_issue_targets_hold(measured):
    """<= 5 calls for an ignored flood copy (it was 10), <= 2 per radio event (5)."""
    assert measured["pull"]["bystander"] <= 5
    assert all(measured[spec]["reach_handler"] <= 5 for spec in message_frames.SPECS)
    assert all(calls <= 2 for calls in measured["radio"].values())


def test_a_bystander_copy_runs_no_handler_frame(measured):
    """Outside its declared audience a flood copy is booked in the level batch:
    no call at all, so none into ``_deliver``, ``deliver`` or ``handle_message``."""
    for spec in message_frames.SPECS:
        assert measured[spec]["bystander_dispatch"] == 0, spec
        assert measured[spec]["bystander"] == 0, spec


def test_is_bystander_states_the_shipped_audiences(measured):
    """``is_bystander`` (the audiences written again from the handlers) and the
    strategies' declarations agree on every flood copy of the world."""
    for spec in message_frames.SPECS:
        assert measured[spec]["disagreements"] == 0, spec


def test_the_world_is_mostly_bystanders(measured):
    """The gate is vacuous unless the flood strategies are what is measured."""
    for spec in message_frames.SPECS:
        row = measured[spec]
        assert row["deliveries"] > 2_000
        assert row["bystanders"] > row["deliveries"] / 2


def test_a_regrown_chain_is_caught(measured):
    worse = {row: dict(counts) for row, counts in measured.items()}
    worse["rpcc-hy"]["bystander"] += 1
    worse["radio"]["relay"] += 0.5
    assert len(message_frames.over_budget(worse)) == 2
    worse["pull"]["bystander_dispatch"] += 1
    assert len(message_frames.over_budget(worse)) == 3


def test_plain_run_imports_no_campaign_machinery():
    """``build_simulation`` must not drag in the executor, store, faults, control
    or — for a stock strategy — the variants its factories import on demand; nor
    OpenSSL's hashlib, ``statistics`` (and its decimal/fractions) or the checker."""
    unwanted = (
        "repro.experiments.executor", "repro.experiments.store",
        "repro.experiments.analysis",
        "repro.faults.injector", "repro.faults.plan", "repro.control.controller",
        "repro.scenarios.matrix", "repro.consistency.rpcc.relay_control",
        "repro.consistency.rpcc.selection_ablation", "repro.consistency.uir_push",
        "multiprocessing", "concurrent.futures",
        "hashlib", "_hashlib", "statistics", "decimal", "fractions", "repro.obs.checker",
    )
    code = (
        "import sys\n"
        "from repro.experiments.config import SimulationConfig\n"
        "from repro.experiments.runner import build_simulation\n"
        "build_simulation(SimulationConfig(n_peers=5, sim_time=1.0), 'rpcc-hy').run()\n"
        f"print([name for name in {unwanted!r} if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[]"


#: The variables OpenBLAS sizes its thread pool from (``repro._np``).
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


def _fresh(code: str, **pool) -> str:
    """``code``'s stdout in a fresh interpreter with only ``pool`` of the pool variables set."""
    env = {name: value for name, value in os.environ.items() if name not in POOL_VARIABLES}
    env.update(pool, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


@needs_proc_tasks
def test_a_run_is_one_thread_and_leaves_the_environment_as_it_was():
    """numpy loads without OpenBLAS's worker thread, and ``OPENBLAS_NUM_THREADS``
    is gone again once it has (docs/decisions/15-no-blas-pool.md)."""
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import repro.cli\n"
        "from repro.experiments.config import SimulationConfig\n"
        "from repro.experiments.runner import build_simulation\n"
        "build_simulation(SimulationConfig(n_peers=5, sim_time=1.0), 'rpcc-hy').run()\n"
        "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n"
    )
    assert _fresh(code) == "1 True"


@needs_proc_tasks
def test_a_pool_size_the_caller_set_is_left_alone():
    code = (
        "import os\n"
        "import repro.cli\n"
        "import numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], 'openblas' in blas.lower(),\n"
        "      len(os.listdir('/proc/self/task')))\n"
    )
    value, openblas, threads = _fresh(code, OPENBLAS_NUM_THREADS="2").split()
    assert value == "2"
    # OpenBLAS caps its pool at the CPUs the process may run on.
    if openblas == "True" and len(os.sched_getaffinity(0)) >= 2:
        assert threads == "2"


def test_a_numpy_imported_first_leaves_the_environment_as_it_was():
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import numpy\n"
        "import repro.cli\n"
        "print(dict(os.environ) == before)\n"
    )
    assert _fresh(code) == "True"


def test_lazy_package_names_still_resolve():
    """``from package import name``, ``import *`` and ``dir()`` all keep working."""
    import repro
    import repro.experiments
    import repro.obs
    import repro.scenarios

    for package in (repro, repro.experiments, repro.obs, repro.scenarios):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)
            assert name in dir(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
    from repro import run_simulation
    from repro.experiments import CampaignExecutor, run_simulation as same

    assert run_simulation is same
    assert CampaignExecutor.__module__ == "repro.experiments.executor"
