"""The adaptive-vs-static chaos campaign and its committed artifact.

Adds a ``controller`` axis to the 40-cell chaos sweep :data:`CHAOS`
(4 shipped fault plans x 5 strategy specs x 2 seeds), which makes the
80-run controller comparison :data:`CAMPAIGN`: every cell runs once
under the ``static`` policy (full sampling cost, no actuation) and once
under ``hysteresis``.  Every run is traced and replayed through the
:class:`~repro.obs.checker.InvariantChecker` — the campaign is only
valid when *all 80 traces* are violation-free.

The committed artifact ``benchmarks/CONTROL_campaign.json`` records the
per-cell numbers and the aggregate comparison.  The regression gate
(``tests/test_control_campaign.py``) asserts the graceful-degradation
guarantees *from the artifact* — adaptive dominates or matches static on

* availability (answered / issued),
* stale-serve rate while partitioned, and
* mean time to reconverge after a heal,

within tolerance — and re-runs one cell bit-exactly.  :func:`run_campaign`
computes the artifact; ``python tools/adopt.py control_campaign``
recomputes all 80 runs in CI and fails on any value that moved.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Dict, List, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.sweep import Cell, Sweep, aggregate, run_checked

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "faults"

PLANS = ("partition", "bursty_loss", "relay_kill", "crash_reboot")
SPECS = ("push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc")
SEEDS = (7, 11)
POLICIES = ("static", "hysteresis")

#: The 40-cell chaos matrix at golden scale, which
#: ``tests/test_faults_chaos.py`` runs checker-gated as it stands.
#: ``switch_interval`` is shortened so relays form inside the window;
#: otherwise relay kills would be vacuous no-ops.
CHAOS = Sweep(
    SimulationConfig(
        n_peers=20,
        terrain_width=1000.0,
        terrain_height=1000.0,
        sim_time=180.0,
        warmup=60.0,
        switch_interval=60.0,
    ),
    {
        "faults": tuple(str(EXAMPLES / f"{plan}.json") for plan in PLANS),
        "spec": SPECS,
        "seed": SEEDS,
    },
)
#: The campaign: every chaos cell under each control policy.
CAMPAIGN = CHAOS.with_axis("controller", POLICIES)

#: Aggregate tolerances of the dominance gate.  Individual cells may
#: trade a little availability for a lot of freshness; the aggregates
#: must not.
EPS_AVAILABILITY = 0.01
EPS_STALE_RATE = 0.01
EPS_RECONVERGE = 2.0  # seconds

FLOAT_DIGITS = 9

#: Per-cell numbers the aggregate averages, and those it adds up.
MEANS = ("availability", "stale_serve_rate_in_partition", "mean_time_to_reconverge")
SUMS = ("violations", "decisions")


def plan_name(cell: Cell) -> str:
    """The fault plan of a chaos cell, by its file stem."""
    return pathlib.Path(cell.values["faults"]).stem


def records(cells: Sequence[Cell]) -> List[Dict]:
    """Run ``cells`` traced and checked; reduce each to the recorded numbers."""
    results, reports = run_checked(cells)
    out = []
    for cell, result, report in zip(cells, results, reports):
        summary, stats = result.summary, result.summary.fault_stats
        issued = summary.queries_issued
        numbers = {
            "availability": summary.queries_answered / issued if issued else 1.0,
            "stale_serve_rate_in_partition": stats.get("stale_serve_rate_in_partition", 0.0),
            "mean_time_to_reconverge": stats.get("mean_time_to_reconverge", 0.0),
            "stale_ratio": summary.stale_ratio,
        }
        row = {
            "plan": plan_name(cell),
            "spec": cell.spec,
            "seed": cell.values["seed"],
            "policy": cell.values["controller"],
        }
        for key, value in numbers.items():
            row[key] = round(value, FLOAT_DIGITS)
        row["violations"] = len(report.violations)
        row["decisions"] = len(result.control_decisions)
        out.append(row)
    return out


def dominance_failures(aggregates: Dict[str, Dict[str, float]]) -> List[str]:
    """The graceful-degradation guarantees, as a list of broken clauses."""
    adaptive = aggregates["hysteresis"]
    static = aggregates["static"]
    failures = []
    if adaptive["violations"] or static["violations"]:
        failures.append(
            f"campaign not violation-free: adaptive={adaptive['violations']} "
            f"static={static['violations']}"
        )
    if adaptive["availability"] < static["availability"] - EPS_AVAILABILITY:
        failures.append(
            f"availability: adaptive {adaptive['availability']:.4f} < "
            f"static {static['availability']:.4f} - {EPS_AVAILABILITY}"
        )
    if (
        adaptive["stale_serve_rate_in_partition"]
        > static["stale_serve_rate_in_partition"] + EPS_STALE_RATE
    ):
        failures.append(
            "stale-serve-in-partition: adaptive "
            f"{adaptive['stale_serve_rate_in_partition']:.4f} > static "
            f"{static['stale_serve_rate_in_partition']:.4f} + {EPS_STALE_RATE}"
        )
    if (
        adaptive["mean_time_to_reconverge"]
        > static["mean_time_to_reconverge"] + EPS_RECONVERGE
    ):
        failures.append(
            "mean-time-to-reconverge: adaptive "
            f"{adaptive['mean_time_to_reconverge']:.2f}s > static "
            f"{static['mean_time_to_reconverge']:.2f}s + {EPS_RECONVERGE}s"
        )
    if adaptive["decisions"] == 0:
        failures.append("adaptive arm never actuated: the comparison is vacuous")
    return failures


def run_campaign(verbose: bool = True) -> Dict:
    cells = CAMPAIGN.cells()
    rows = records(cells)
    if verbose:
        for cell in rows:
            print(
                f"  {cell['plan']:12s} {cell['spec']:8s} seed{cell['seed']:3d} "
                f"{cell['policy']:10s} avail={cell['availability']:.4f} "
                f"stale@part={cell['stale_serve_rate_in_partition']:.4f} "
                f"mttr={cell['mean_time_to_reconverge']:6.2f}s "
                f"viol={cell['violations']} "
                f"dec={cell['decisions']}"
            )
    groups = aggregate(
        cells, [{key: row[key] for key in MEANS + SUMS} for row in rows],
        by=("controller",),
    )
    return {
        "matrix": {
            "plans": list(PLANS),
            "specs": list(SPECS),
            "seeds": list(SEEDS),
            "policies": list(POLICIES),
        },
        "cells": rows,
        "aggregates": {
            group.key[0]: {
                "cells": group.size,
                **{key: round(group.mean[key], FLOAT_DIGITS) for key in MEANS},
                **{key: sum(group.values[key]) for key in SUMS},
            }
            for group in groups
        },
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    campaign = run_campaign()
    aggregates = campaign["aggregates"]
    for policy in POLICIES:
        agg = aggregates[policy]
        print(
            f"{policy:10s} avail={agg['availability']:.4f} "
            f"stale@part={agg['stale_serve_rate_in_partition']:.4f} "
            f"mttr={agg['mean_time_to_reconverge']:6.2f}s "
            f"violations={agg['violations']} decisions={agg['decisions']}"
        )
    failures = dominance_failures(aggregates)
    for failure in failures:
        print(f"DOMINANCE FAILURE: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
