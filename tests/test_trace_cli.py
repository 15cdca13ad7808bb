"""CLI coverage of the trace surface: export, reload, check, and the
guarantee that untraced runs produce zero trace output."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.obs import InvariantChecker, NULL_TRACE
from repro.obs.events import read_jsonl

BASE = ["--sim-time", "120", "--warmup", "30", "--seed", "3"]


@pytest.fixture(autouse=True)
def _isolate_cache(tmp_path, monkeypatch):
    """Keep CLI result stores out of the repo during tests."""
    monkeypatch.chdir(tmp_path)


def test_trace_command_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(BASE + ["trace", "rpcc-sc", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "invariants: OK" in captured
    assert f"-> {out}" in captured

    events = read_jsonl(str(out))
    assert events, "trace file is empty"
    # The file replays cleanly on its own — full export -> import path.
    report = InvariantChecker(delta=240.0).feed_all(events).finish()
    assert report.ok
    assert report.reads_checked > 0


@pytest.mark.parametrize("spec", ["pull", "push"])
def test_trace_command_no_check_skips_the_replay(tmp_path, capsys, spec):
    out = tmp_path / "trace.jsonl"
    code = main(BASE + ["trace", spec, "--out", str(out), "--no-check"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "invariants" not in captured
    assert "trace: " in captured
    assert read_jsonl(str(out))


def test_run_without_trace_leaves_no_trace_file(tmp_path, capsys):
    code = main(BASE + ["--no-store", "run", "push"])
    assert code == 0
    assert "trace" not in capsys.readouterr().out
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".jsonl")]


def test_untraced_build_uses_null_trace():
    config = SimulationConfig(
        n_peers=10, terrain_width=800.0, terrain_height=800.0,
        sim_time=60.0, warmup=10.0, seed=1,
    )
    simulation = build_simulation(config, "push", "standard")
    assert simulation.sim.trace is NULL_TRACE
    assert simulation.sim.trace.enabled is False


def test_parser_accepts_trace_surface():
    parser = build_parser()
    args = parser.parse_args(["trace", "rpcc-dc", "--out", "x.jsonl", "--no-check"])
    assert args.command == "trace"
    assert args.no_check is True
    args = parser.parse_args(["trace", "push", "--out", "y.jsonl", "--no-check"])
    assert args.out == "y.jsonl"
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "not-a-spec"])
    with pytest.raises(SystemExit):  # one traced-run path: `trace`
        parser.parse_args(["run", "push", "--trace", "y.jsonl"])


@pytest.mark.parametrize("flag,value", [
    ("--delta", "nan"), ("--delta", "inf"), ("--delta", "-1"),
    ("--slack", "nan"), ("--slack", "-5"), ("--slack", "Infinity"),
])
def test_trace_rejects_a_checker_bound_that_can_never_fail(
    tmp_path, capsys, flag, value
):
    """Refused by the parser (exit 2) before anything is simulated."""
    out = tmp_path / "never.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(BASE + ["trace", "rpcc-dc", "--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_traced_metrics_match_untraced_metrics(tmp_path):
    """Tracing observes; it must never change simulation behaviour."""
    config = SimulationConfig(
        n_peers=12, terrain_width=800.0, terrain_height=800.0,
        sim_time=120.0, warmup=30.0, seed=9,
    )
    from repro.obs import JsonlSink, TraceBus

    untraced = build_simulation(config, "rpcc-sc", "standard").run()
    bus = TraceBus()
    bus.add_sink(JsonlSink(str(tmp_path / "t.jsonl")))
    traced = build_simulation(config, "rpcc-sc", "standard", trace=bus).run()
    bus.close()
    assert traced.summary == untraced.summary
