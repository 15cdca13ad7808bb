"""CLI surface for fault injection: --faults / --loss-rate on run and
trace, plus the --delta / --slack checker knobs on trace."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import _config, build_parser, main

EXAMPLES = Path(__file__).parent.parent / "examples" / "faults"
BASE = ["--sim-time", "120", "--warmup", "30", "--seed", "3"]


@pytest.fixture(autouse=True)
def _isolate_cache(tmp_path, monkeypatch):
    """Keep CLI result stores out of the repo during tests."""
    monkeypatch.chdir(tmp_path)


def test_parser_accepts_fault_flags_on_run_and_trace():
    parser = build_parser()
    for command in ("run", "trace"):
        args = parser.parse_args([
            command, "rpcc-sc",
            "--loss-rate", "0.05",
            "--faults", "plan.json",
        ])
        assert args.loss_rate == 0.05
        assert args.faults == "plan.json"


def test_parser_accepts_checker_knobs_on_trace():
    parser = build_parser()
    args = parser.parse_args(["trace", "pull", "--delta", "90", "--slack", "2.5"])
    assert args.delta == 90.0
    assert args.slack == 2.5
    # run has no checker, so the knobs must not leak onto it.
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "pull", "--delta", "90"])


def test_loss_rate_and_faults_reach_the_config():
    parser = build_parser()
    args = parser.parse_args(BASE + [
        "run", "push",
        "--loss-rate", "0.1",
        "--faults", str(EXAMPLES / "partition.json"),
    ])
    config = _config(args)
    assert config.loss_rate == 0.1
    assert config.faults is not None
    assert config.faults.name == "east-west" or config.faults.partitions


def test_flags_default_to_a_fault_free_config():
    parser = build_parser()
    config = _config(parser.parse_args(BASE + ["run", "push"]))
    assert config.loss_rate == 0.0
    assert config.faults is None


def test_trace_with_fault_plan_prints_degradation_and_passes(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(BASE + [
        "trace", "rpcc-sc",
        "--faults", str(EXAMPLES / "partition.json"),
        "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0, captured
    assert "degradation:" in captured
    assert "invariants: OK" in captured


def test_trace_checker_knobs_are_applied(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(BASE + [
        "trace", "pull",
        "--delta", "500", "--slack", "3.0",
        "--out", str(out),
    ])
    assert code == 0
    assert "invariants: OK" in capsys.readouterr().out


def test_run_with_fault_plan_prints_degradation(capsys):
    code = main(BASE + [
        "--no-store", "run", "rpcc-dc",
        "--faults", str(EXAMPLES / "bursty_loss.json"),
    ])
    captured = capsys.readouterr().out
    assert code in (0, None)
    assert "degradation:" in captured


def test_run_without_faults_has_no_degradation_footer(capsys):
    code = main(BASE + ["--no-store", "run", "push"])
    assert code in (0, None)
    assert "degradation:" not in capsys.readouterr().out


def test_a_served_run_prints_what_the_fresh_run_printed(tmp_path, capsys):
    """Every footer a fresh run prints reads the same when the run is
    served from the store; only the ``store:`` line differs."""
    argv = [
        "--store", str(tmp_path / "store"),
        "--sim-time", "180", "--warmup", "60", "--seed", "7",
        "run", "rpcc-sc",
        "--faults", str(EXAMPLES / "partition.json"),
        "--controller", "hysteresis",
    ]
    outputs = []
    for _ in range(2):
        assert main(argv) in (0, None)
        outputs.append(capsys.readouterr().out.splitlines())
    fresh, served = outputs
    assert fresh[-1].endswith("; 1 runs simulated")
    assert served[-1].endswith("; 0 runs simulated")
    for footer in ("topology:", "degradation:", "controller:"):
        assert any(line.startswith(footer) for line in fresh), footer
    assert fresh[:-1] == served[:-1]
    assert [line for line in fresh if line.startswith("store:")] == [fresh[-1]]
