"""The registered ``repro.extensions`` variants, run like any other spec.

Each claim is read off ``run_simulation(config, spec)`` — the path the CLI,
a matrix and the golden digests take — against the stock strategy under
the same config.  (``tests/test_extensions.py`` and ``tests/test_uir_push.py``
hold the mechanisms on hand-wired worlds.)
"""

from __future__ import annotations

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation, run_simulation

CONFIG = SimulationConfig(n_peers=30, sim_time=600.0, warmup=300.0, seed=7)


def run(spec):
    return run_simulation(CONFIG, spec)


def test_relay_cap_binds():
    """Future work 2: a capped source turns candidates away, so fewer relay."""
    stock, capped = run("rpcc-sc"), run("rpcc-controlled-sc")
    assert capped.summary.counters["rpcc_apply_rejected_cap"] > 0
    assert "rpcc_apply_rejected_cap" not in stock.summary.counters
    assert 0 < capped.mean_relay_count < stock.mean_relay_count


def test_uir_trades_traffic_for_latency():
    """Cao'00: reports between IRs divide the wait and multiply the floods."""
    stock, uir = run("push"), run("push-uir")
    assert uir.summary.mean_latency < 0.5 * stock.summary.mean_latency
    assert uir.summary.transmissions > 2 * stock.summary.transmissions


def test_random_selection_still_elects_relays():
    """The ablation drops eq 4.2.8, not the relay layer."""
    result = run("rpcc-random-selection-sc")
    assert result.mean_relay_count > 0
    assert result.summary.queries_answered > 0


def test_random_selection_coins_follow_the_run_seed():
    """Each seed of a campaign promotes on its own coins; a replay on the same."""

    def coins(seed):
        simulation = build_simulation(
            SimulationConfig(n_peers=6, sim_time=1.0, seed=seed),
            "rpcc-random-selection-sc",
        )
        return [
            simulation.hosts[node].agent._coin.random()
            for node in sorted(simulation.hosts)
        ]

    assert coins(3) == coins(3)
    assert coins(3) != coins(4)

