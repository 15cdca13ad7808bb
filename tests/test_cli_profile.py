"""CLI coverage of the profiling flag and the topology counter footer."""

from __future__ import annotations

import pstats
import re

import pytest

from repro.cli import build_parser, main

BASE = ["--sim-time", "120", "--warmup", "30", "--seed", "3"]


@pytest.fixture(autouse=True)
def _isolate_cache(tmp_path, monkeypatch):
    """Keep CLI result stores out of the repo during tests."""
    monkeypatch.chdir(tmp_path)


def test_run_profile_writes_loadable_pstats(tmp_path, capsys):
    out = tmp_path / "run.pstats"
    code = main(BASE + ["--no-store", "run", "push", "--profile", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert f"-> {out}" in captured.out
    assert "events processed" in captured.out

    # The hot-spot digest goes to stderr: top functions by cumulative
    # time, without polluting the stdout summary.
    assert "cumulative" in captured.err
    assert "engine.py" in captured.err

    # Round-trip: the dump must load as pstats data and contain frames
    # from the simulation loop itself.
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0
    assert any("engine.py" in filename for filename, _, _ in stats.stats)


def test_run_profile_bypasses_result_cache(tmp_path, capsys):
    # Prime the store, then profile the same configuration: the profiled
    # run must execute the simulation (a served result would profile nothing).
    assert main(BASE + ["run", "push"]) == 0
    capsys.readouterr()
    out = tmp_path / "cached.pstats"
    assert main(BASE + ["run", "push", "--profile", str(out)]) == 0
    stats = pstats.Stats(str(out))
    assert any("engine.py" in filename for filename, _, _ in stats.stats)


def _topology_footer(output: str) -> str:
    (line,) = [ln for ln in output.splitlines() if ln.startswith("topology:")]
    return line


def test_run_footer_reports_topology_counters(capsys):
    code = main(BASE + ["--no-store", "run", "push"])
    assert code == 0
    captured = capsys.readouterr().out
    # 50 peers are under the array-refresh crossover: no pair list.
    footer = _topology_footer(captured)
    assert re.fullmatch(r"topology: \d+ built, \d+ reused, \d+ invalidations", footer)
    # The events line ends at the wall clock: there is one core to run on.
    (events,) = [ln for ln in captured.splitlines() if ln.startswith("events processed:")]
    assert events.endswith("s wall clock")


def test_run_footer_names_the_array_rebuild_path(capsys):
    """From the array-refresh crossover on, the rebuilds take their
    candidate pairs from a pair list, and the footer says how.  (The
    CLI runs 50 peers, so the larger result is built here and handed to
    the footer.)"""
    from repro import cli
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import build_simulation
    from repro.net import soa

    n_peers = soa.ARRAY_REFRESH_MIN_NODES + 88
    side = 1500.0 * (n_peers / 50.0) ** 0.5
    config = SimulationConfig(
        n_peers=n_peers, terrain_width=side, terrain_height=side,
        mobility="walk", sim_time=5.0, warmup=0.0, query_interval=100.0,
        update_interval=2.0, seed=3,
    )
    cli._print_topology_stats(build_simulation(config, "rpcc-sc", "single_source").run())
    footer = _topology_footer(capsys.readouterr().out)
    match = re.fullmatch(
        r"topology: (\d+) built, \d+ reused, \d+ invalidations "
        r"\(pair list: (\d+) built, (\d+) reused, (\d+) re-anchored\)",
        footer,
    )
    assert match, footer
    rebuilds, builds, reuses, _ = map(int, match.groups())
    assert builds >= 1 and 0 < builds + reuses <= rebuilds


def test_parser_accepts_profile_flag():
    parser = build_parser()
    args = parser.parse_args(["run", "push", "--profile", "out.pstats"])
    assert args.profile == "out.pstats"
    args = parser.parse_args(["run", "push"])
    assert args.profile is None
