"""Online-controller benchmarks: observation must be near-free.

Three shapes of the same chaos-scale run (20 peers, 3+1 simulated
minutes, RPCC strong, short switching interval so relays actually form):

* **off** — ``controller=None``: the guard path every production run
  takes.  No controller object exists; the startup batch never arms a
  tick timer and no named ``"controller"`` RNG stream is drawn, so this
  arm is bit-identical to pre-controller builds (the golden digest
  suites hold that exactly).
* **static** — the no-op policy: the full sampling loop runs every tick
  (metric deltas, degradation snapshot, host CAR/CS/CE means) but no
  decision ever actuates.  This prices pure observation — the overhead
  an operator pays just to *watch* a healthy system.
* **hysteresis-chaos** — the adaptive policy under the shipped east-west
  partition plan: sampling plus real actuations through the strategy
  seams, the full closed loop the adaptive-vs-static campaign runs.

The pytest entry points assert the correctness side (static sampling is
observationally free), hold the fault-free controller overhead to the
5% budget and the closed loop under chaos to the 3x fault envelope.
Each overhead is the median over alternating off/arm pairs
(``paired_ratio``): a single best-of-N ratio of two ~0.1 s runs swings
by more than the 5% it is meant to resolve.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.experiments.runner import build_simulation
from repro.faults import FaultPlan

from benchmarks.bench_faults import FAULT_SPEC, example_plan, faults_config
from benchmarks.conftest import paired_ratio


def run_with_controller(
    controller: Optional[str], plan: Optional[FaultPlan] = None
):
    config = faults_config(plan).with_overrides(controller=controller)
    return build_simulation(config, FAULT_SPEC, "standard").run()


# ----------------------------------------------------------------------
# pytest entry points: correctness first, measured overhead printed.


def test_static_sampling_is_observationally_free():
    """The no-op policy samples every window yet perturbs nothing.

    Sampling is pull-based (metric deltas and degradation snapshots);
    the only extra events are the controller's own ticks and its RNG is
    the named ``"controller"`` stream — so the metrics summary must be
    *equal*, not merely close, to the controller-less run.
    """
    off = run_with_controller(None)
    static = run_with_controller("static")
    assert static.summary == off.summary
    assert static.control_decisions == []


def test_fault_free_controller_overhead_is_bounded(capsys):
    """Watching a healthy system must cost at most 5% wall-clock.

    One pair's ratio spreads over an interquartile range of ~0.15 on a
    shared 2-vCPU box, so the median of 20 pairs (standard error ~0.03)
    crosses 1.05 in about one invocation in ten while the true overhead
    is ~1.00; the median of 100 pairs (~0.015) resolves the budget.
    """
    static = paired_ratio(
        functools.partial(run_with_controller, None),
        functools.partial(run_with_controller, "static"),
        pairs=100,
    )
    print(f"\n  static sampling  {static:5.3f}x controller off")
    assert static < 1.05


def test_adaptive_loop_overhead_is_bounded(capsys):
    """The full closed loop under chaos stays within the fault budget.

    The hysteresis arm pays for the partition plan *and* the actuations;
    the fault suite already bounds injected chaos at 3x fault-free, so
    the adaptive loop on top must stay inside the same envelope.
    """
    partition = example_plan("partition")
    adaptive = paired_ratio(
        functools.partial(run_with_controller, None),
        functools.partial(run_with_controller, "hysteresis", partition),
    )
    print(f"\n  adaptive chaos   {adaptive:5.2f}x controller off")
    assert adaptive < 3.0
