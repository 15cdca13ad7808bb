"""Ablation benches for the design choices DESIGN.md calls out.

* TTR sensitivity: the relay freshness horizon trades traffic vs staleness;
* omega: history weighting of the coefficient EWMAs.
"""

from repro.experiments.runner import run_simulation
from repro.metrics.report import format_table


def test_ablation_ttr_sensitivity(benchmark, quick_config):
    """TTR horizon: longer trust windows save traffic, cost freshness."""

    def run():
        results = {}
        for ttr in (30.0, 90.0, 115.0):
            config = quick_config.with_overrides(ttr=ttr)
            results[ttr] = run_simulation(config, "rpcc-sc")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (f"TTR={ttr:.0f}s", r.summary.transmissions, r.summary.stale_ratio,
         r.summary.mean_latency)
        for ttr, r in sorted(results.items())
    ]
    print()
    print(format_table(("variant", "tx", "stale", "latency"), rows,
                       title="Ablation: TTR sensitivity"))
    for result in results.values():
        assert result.summary.queries_answered > 0


def test_ablation_omega_weighting(benchmark, quick_config):
    """The EWMA history weight's effect on relay stability."""

    def run():
        results = {}
        for omega in (0.0, 0.2, 0.8):
            config = quick_config.with_overrides(omega=omega)
            results[omega] = run_simulation(config, "rpcc-sc")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (f"omega={omega}", r.mean_relay_count,
         r.summary.counters.get("rpcc_demotions", 0))
        for omega, r in sorted(results.items())
    ]
    print()
    print(format_table(("variant", "relays", "demotions"), rows,
                       title="Ablation: omega history weighting"))
    for result in results.values():
        assert result.summary.queries_answered > 0


def test_ablation_cache_on_read(benchmark, quick_config):
    """Read-through caching churns items out from under their relay roles."""

    def run():
        oracle = run_simulation(quick_config, "rpcc-sc")
        churny = run_simulation(
            quick_config.with_overrides(cache_on_read=True), "rpcc-sc"
        )
        return oracle, churny

    oracle, churny = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("placement", "relays", "relay demotions+evictions", "tx"),
        [
            ("static (paper oracle)", oracle.mean_relay_count,
             oracle.summary.counters.get("rpcc_demotions", 0),
             oracle.summary.transmissions),
            ("read-through caching", churny.mean_relay_count,
             churny.summary.counters.get("rpcc_demotions", 0),
             churny.summary.transmissions),
        ],
        title="Ablation: cache-on-read churn (DESIGN.md deviation 2)",
    ))
    for result in (oracle, churny):
        assert result.summary.queries_answered > 0
