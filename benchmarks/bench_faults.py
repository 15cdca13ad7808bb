"""Fault-injection benchmarks: chaos must be cheap and disabled faults free.

Three shapes of the same chaos-scale run (20 peers, 3+1 simulated minutes,
RPCC strong, short switching interval so relays actually form):

* **off** — ``faults=None``: the guard path every production run takes.
  No injector, no degradation meter, no backoff; the hooks are
  ``None``-checked attributes.  The end-to-end ledger
  (``benchmarks/e2e``) times this path on every row.
* **partition** — the shipped east-west spatial partition plan: topology
  edge filtering plus degradation accounting.
* **bursty-loss** — the shipped Gilbert–Elliott + delay-jitter plan: the
  per-hop link hooks run on *every* unicast hop, the most invasive shape.

The pytest entry points assert the correctness side (disabled faults
are bit-identical) and bound what injected chaos costs over the
fault-free run, as a median of alternating pairs (``paired_ratio``).
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults import FaultPlan

from benchmarks.conftest import paired_ratio
from benchmarks.control_campaign import CHAOS, EXAMPLES

FAULT_SPEC = "rpcc-sc"


def faults_config(plan: Optional[FaultPlan] = None) -> SimulationConfig:
    """The chaos sweep's world at seed 7: small enough to repeat, relays form in-window."""
    return CHAOS.base.with_overrides(seed=7, faults=plan)


def run_with_plan(plan: Optional[FaultPlan]):
    return build_simulation(faults_config(plan), FAULT_SPEC, "standard").run()


def example_plan(name: str) -> FaultPlan:
    return FaultPlan.load(EXAMPLES / f"{name}.json")


# ----------------------------------------------------------------------
# pytest entry points: correctness first, measured overhead printed.


def test_disabled_faults_are_bit_identical_at_bench_scale():
    """faults=None and an empty plan take literally the same code path."""
    off = run_with_plan(None)
    empty = run_with_plan(FaultPlan())
    assert off.summary == empty.summary
    assert off.summary.fault_stats == empty.summary.fault_stats == {}


def test_fault_overhead_is_bounded(capsys):
    """Injected chaos costs something; it must never dominate the run."""
    off = functools.partial(run_with_plan, None)
    partition = paired_ratio(
        off, functools.partial(run_with_plan, example_plan("partition"))
    )
    bursty = paired_ratio(
        off, functools.partial(run_with_plan, example_plan("bursty_loss"))
    )
    print(f"\n  partition        {partition:5.2f}x faults off")
    print(f"  bursty loss      {bursty:5.2f}x faults off")
    # A hot-path regression (per-hop RNG draws on the fault-free path,
    # say) would blow past this envelope; shared-box noise does not.
    assert partition < 3.0
    assert bursty < 3.0
