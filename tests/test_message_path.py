"""What a message costs: calls per delivery and per radio event, gated.

DESIGN.md ("What a message costs") has the two call chains before and
after; ``benchmarks/message_frames.py`` counts them with ``sys.setprofile``
on a seeded 50-peer world, and this file holds the counts to what the
tree reached plus 3 % — so a refactor that re-grows the chain between the
network and a handler, or between a radio event and the battery, fails a
test and not a benchmark.  The counts are exact and box-independent.

The import-graph test is the other half of what one run pays before its
first event: a plain run must not load the campaign machinery.
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


def test_plain_run_imports_no_campaign_machinery():
    """``build_simulation`` must not drag in the executor, store, faults, control
    or — for a stock strategy — the variants its factories import on demand."""
    unwanted = (
        "repro.experiments.executor", "repro.experiments.store",
        "repro.experiments.analysis",
        "repro.faults.injector", "repro.faults.plan", "repro.control.controller",
        "repro.scenarios.matrix", "repro.consistency.rpcc.relay_control",
        "repro.consistency.rpcc.selection_ablation", "repro.consistency.uir_push",
        "multiprocessing", "concurrent.futures",
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


def test_lazy_package_names_still_resolve():
    """``from package import name``, ``import *`` and ``dir()`` all keep working."""
    import repro
    import repro.experiments
    import repro.scenarios

    for package in (repro, repro.experiments, repro.scenarios):
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
