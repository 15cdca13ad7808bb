"""``repro all`` pinned end to end at a tiny window.

One ``repro --sim-time 20 --warmup 10 --no-store all`` run writes the
eight CSVs of ``tests/golden/figures_tiny.json`` byte for byte, and
simulates each distinct ``(config, spec, scenario)`` once: three sweeps
of five values for six strategies share the Table 1 default point (78
runs), and Fig 9 adds seven TTLs plus push and pull (9).
:func:`figures_tiny` computes the file (``python tools/adopt.py
figures_tiny``).
"""

import tempfile
from pathlib import Path

import pytest

import repro.cli as cli
from tests.expectations import committed


def _tiny_all(out: Path):
    """Run the tiny ``repro all`` into ``out``; the executor it used."""
    executors = []
    make = cli._executor

    def spy(args):
        executors.append(make(args))
        return executors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_executor", spy)
        assert cli.main([
            "--sim-time", "20", "--warmup", "10", "--no-store",
            "all", "--out", str(out),
        ]) == 0
    (executor,) = executors
    return executor


def _written(out: Path) -> dict:
    return {
        path.name: path.read_text(encoding="utf-8") for path in sorted(out.iterdir())
    }


def figures_tiny() -> dict:
    """The content of ``tests/golden/figures_tiny.json``."""
    with tempfile.TemporaryDirectory() as out:
        _tiny_all(Path(out))
        return _written(Path(out))


@pytest.fixture(scope="module")
def tiny_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    return out, _tiny_all(out)


@pytest.mark.expectation
def test_all_writes_the_golden_csvs(tiny_all):
    out, _ = tiny_all
    assert _written(out) == committed("figures_tiny")


def test_all_simulates_each_distinct_run_once(tiny_all):
    _, executor = tiny_all
    assert executor.runs_executed == 87
