"""Ablation benches for the design choices DESIGN.md calls out.

* relay hold notice vs paper-faithful silence;
* TTR sensitivity: the relay freshness horizon trades traffic vs staleness;
* omega: history weighting of the coefficient EWMAs.
"""

import pytest

from repro.experiments.runner import build_simulation, run_simulation
from repro.metrics.report import format_table

from benchmarks.conftest import bench_config


def _run_rpcc(config, **flags):
    """An ``rpcc-sc`` run with :class:`RPCCConfig` ablation flags set.

    The flags are read by the protocol at run time and no
    ``SimulationConfig`` field reaches them, so they are set on the built
    strategy's config before the run starts.
    """
    simulation = build_simulation(config, "rpcc-sc")
    for name, value in flags.items():
        assert hasattr(simulation.strategy.config, name), name
        setattr(simulation.strategy.config, name, value)
    return simulation.run()


def test_ablation_hold_notice(benchmark, quick_config):
    """POLL_HOLD notice vs paper-faithful silence during TTR dead windows."""

    def run():
        with_hold = _run_rpcc(quick_config, relay_hold_notice=True)
        without = _run_rpcc(quick_config, relay_hold_notice=False)
        return with_hold, without

    with_hold, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("variant", "tx", "fallback broadcasts"),
        [
            ("hold notice", with_hold.summary.transmissions,
             with_hold.summary.counters.get("rpcc_poll_fallback_source", 0)),
            ("silent (paper)", without.summary.transmissions,
             without.summary.counters.get("rpcc_poll_fallback_source", 0)),
        ],
        title="Ablation: relay hold notice",
    ))
    # Silence forces more wide-broadcast escalations.
    assert (
        without.summary.counters.get("rpcc_poll_fallback_source", 0)
        >= with_hold.summary.counters.get("rpcc_poll_fallback_source", 0)
    )


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


def test_ablation_routing_policy(benchmark, quick_config):
    """Per-send BFS vs DSR-style cached routing: does a route cache pay?"""

    def run():
        bfs = run_simulation(quick_config, "rpcc-sc")
        cached = run_simulation(
            quick_config.with_overrides(routing="cached"), "rpcc-sc"
        )
        return bfs, cached

    bfs, cached = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("routing", "tx", "latency", "answered"),
        [
            ("per-send BFS (default)", bfs.summary.transmissions,
             bfs.summary.mean_latency, bfs.summary.queries_answered),
            ("DSR-style route cache", cached.summary.transmissions,
             cached.summary.mean_latency, cached.summary.queries_answered),
        ],
        title="Ablation: routing policy",
    ))
    # Cached routes may be slightly longer (stale but valid paths), so
    # traffic can differ a little; answered-rate must hold either way.
    for result in (bfs, cached):
        assert result.summary.queries_answered > 0
    ratio = cached.summary.transmissions / bfs.summary.transmissions
    assert 0.8 < ratio < 1.3


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
