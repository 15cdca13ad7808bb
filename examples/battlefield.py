#!/usr/bin/env python3
"""Battlefield scenario (the paper's first motivating example).

"In a battlefield, a group of soldiers, each with a micro-data center and
related communication tools, can form a mobile ad hoc network.  The
soldiers update the information (e.g. geographic or enemy information) in
their data centers momentarily, and can share with each other the new
information and commands."

Modelled here: a platoon of 40 radios on a 1 km x 1 km area — a handful
of dug-in command posts (stable, mains-powered: natural relay peers) and
fast-moving squads (unstable, battery-drained).  Enemy-position items are
update-hot; queries demand strong consistency — a stale enemy position is
worse than a slow one — and popularity is Zipf-skewed towards the contact
zone's items.

The run shows RPCC's relay overlay emerging on the command posts and
compares it against simple push (too slow for targeting data) and simple
pull (radio-silence-hostile flood volume).

Usage::

    python examples/battlefield.py

Set ``REPRO_SMOKE=1`` for a seconds-long sanity run (used by the example
smoke tests) instead of the full example scale.
"""

import os

from repro.experiments import SimulationConfig, run_simulation
from repro.metrics.report import format_table

SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def battlefield_config(seed: int = 7) -> SimulationConfig:
    config = SimulationConfig(
        n_peers=40,
        terrain_width=1000.0,
        terrain_height=1000.0,
        radio_range=300.0,           # squad radios
        cache_num=8,
        update_interval=60.0,        # enemy positions change fast
        query_interval=15.0,         # constant situational queries
        sim_time=900.0,
        warmup=600.0,
        stable_fraction=0.25,        # few dug-in command posts
        mean_online=480.0,           # squads drop in and out of cover
        mean_offline=45.0,
        speed_min=2.0,
        speed_max=6.0,               # moving squads
        access_pattern="zipf",       # the contact zone dominates queries
        zipf_theta=0.9,
        seed=seed,
    )
    if SMOKE:
        config = config.with_overrides(n_peers=16, sim_time=90.0, warmup=60.0)
    return config


def main() -> None:
    config = battlefield_config()
    print("Battlefield MP2P: 40 radios, 10 command posts, Zipf-hot intel")
    print()
    rows = []
    rpcc_result = None
    for spec, label in (
        ("rpcc-sc", "RPCC (strong: targeting data)"),
        ("push", "simple push"),
        ("pull", "simple pull"),
    ):
        result = run_simulation(config, spec)
        if spec == "rpcc-sc":
            rpcc_result = result
        summary = result.summary
        rows.append(
            (
                label,
                summary.transmissions,
                round(summary.mean_latency, 2),
                round(summary.p95_latency, 1),
                round(summary.violation_ratio, 3),
                f"{summary.queries_answered}/{summary.queries_issued}",
            )
        )
    print(
        format_table(
            ("strategy", "radio tx", "mean lat (s)", "p95 lat (s)",
             "stale intel", "answered"),
            rows,
            title="15 simulated minutes of contact",
        )
    )
    assert rpcc_result is not None
    print()
    print(
        f"RPCC relay overlay: {rpcc_result.mean_relay_count:.1f} (post, item) "
        "relay pairs on average — the command posts carry the load."
    )
    promotions = rpcc_result.summary.counters.get("rpcc_promotions", 0)
    demotions = rpcc_result.summary.counters.get("rpcc_demotions", 0)
    print(f"promotions/demotions during the window: {promotions}/{demotions}")
    print()
    print("Reading: push's ~minute-long waits are useless for targeting;")
    print("pull's flood-per-query lights up the spectrum.  RPCC keeps")
    print("latency in pull territory at a fraction of the radio traffic.")


if __name__ == "__main__":
    main()
