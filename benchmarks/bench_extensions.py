"""Benches for what needs more than a registered spec to run: waypoint
vs random-walk mobility.

The strategy variants (``rpcc-controlled-*``, ``rpcc-random-selection-*``,
``push-uir``) are registered specs: ``tests/test_strategy_variants.py``
holds their shapes and ``repro run <spec>`` prints their numbers.
"""

from repro.experiments.runner import run_simulation
from repro.metrics.report import format_table


def test_ablation_mobility_model(benchmark, quick_config):
    """Waypoint vs random-walk mobility: do the shapes survive?"""

    def run():
        waypoint = run_simulation(quick_config, "rpcc-sc")
        walk = run_simulation(
            quick_config.with_overrides(mobility="walk"), "rpcc-sc"
        )
        return waypoint, walk

    waypoint, walk = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("mobility", "tx", "latency", "relays", "answered"),
        [
            ("random waypoint", waypoint.summary.transmissions,
             waypoint.summary.mean_latency, waypoint.mean_relay_count,
             waypoint.summary.queries_answered),
            ("random walk", walk.summary.transmissions,
             walk.summary.mean_latency, walk.mean_relay_count,
             walk.summary.queries_answered),
        ],
        title="Ablation: mobility model",
    ))
    for result in (waypoint, walk):
        assert result.summary.queries_answered > 0
        assert result.mean_relay_count > 0
