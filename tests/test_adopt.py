"""``tools/adopt.py`` against a stub table in a temporary git repo: no simulation runs.

A dry run reports every moved, added or removed key and writes nothing; ``--adopt`` writes
exactly what moved, and only from a clean tree whose tier-1 command passes.  The real table
of ``tests/expectations.py`` must name every committed expectation once.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.expectations import EXPECTATIONS, Expectation, Producer, sorted_json

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("adopt", ROOT / "tools" / "adopt.py")
adopt = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(adopt)

PASS = (sys.executable, "-c", "pass")
FAIL = (sys.executable, "-c", "raise SystemExit(1)")
ALPHA = {"cell-a": {"transmissions": 10, "stale_ratio": 0.25}, "cell-b": {"transmissions": 7}}
BETA = {"rows": [1, 2, 3]}

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")


def git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=adopt", "-c", "user.email=adopt@example.org", *args],
        cwd=root, check=True, capture_output=True,
    )


@pytest.fixture
def stub(tmp_path):
    """A committed repo with two expectations, and a table whose
    producers yield what ``stub.content`` holds."""

    class Stub:
        root = tmp_path
        content = {"alpha": ALPHA, "beta": BETA}
        table = tuple(
            Expectation(name, f"golden/{name}.json", lambda name=name: Stub.content[name])
            for name in ("alpha", "beta")
        )

        @staticmethod
        def bytes():
            return {e.name: (tmp_path / e.path).read_bytes() for e in Stub.table}

        @staticmethod
        def run(*names, write=False, tier1=PASS):
            return adopt.run(Stub.table, names, root=tmp_path, tier1=tier1, write=write)

    (tmp_path / "golden").mkdir()
    for expectation in Stub.table:
        (tmp_path / expectation.path).write_text(sorted_json(Stub.content[expectation.name]))
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "expectations")
    return Stub


def moved_alpha(transmissions=11):
    cell = dict(ALPHA["cell-a"], transmissions=transmissions)
    return {**ALPHA, "cell-a": cell}


def test_nothing_moved_exits_0_and_writes_nothing(stub, capsys):
    before = stub.bytes()
    assert stub.run() == 0
    assert stub.bytes() == before
    assert capsys.readouterr().out == "nothing moved in 2 expectation(s)\n"


def test_a_moved_value_is_reported_and_not_written(stub, capsys):
    before = stub.bytes()
    stub.content = {**stub.content, "alpha": moved_alpha()}
    assert stub.run() == 1
    assert capsys.readouterr().out == "golden/alpha.json: cell-a.transmissions: 10 → 11\n"
    assert stub.bytes() == before


def test_adopt_writes_exactly_the_moved_key_then_a_dry_run_is_clean(stub, capsys):
    before = stub.bytes()
    stub.content = {**stub.content, "alpha": moved_alpha()}
    assert stub.run(write=True) == 0
    after = stub.bytes()
    assert after["beta"] == before["beta"]
    assert after["alpha"] == sorted_json(moved_alpha()).encode()
    assert after["alpha"] == before["alpha"].replace(b'"transmissions": 10', b'"transmissions": 11')
    capsys.readouterr()
    assert stub.run() == 0
    assert capsys.readouterr().out.startswith("nothing moved")


def test_a_key_no_longer_produced_is_reported_removed_and_dropped(stub, capsys):
    stub.content = {**stub.content, "alpha": {"cell-a": ALPHA["cell-a"]}}
    assert stub.run("alpha") == 1
    assert capsys.readouterr().out == "golden/alpha.json: cell-b.transmissions: 7 → (absent)\n"
    assert stub.run("alpha", write=True) == 0
    assert stub.table[0].read(stub.root) == {"cell-a": ALPHA["cell-a"]}


def test_added_keys_and_list_entries_are_reported(stub, capsys):
    stub.content = {"alpha": ALPHA, "beta": {"rows": [1, 2, 4, 5]}}
    assert stub.run("beta") == 1
    assert capsys.readouterr().out == (
        "golden/beta.json: rows[2]: 3 → 4\n"
        "golden/beta.json: rows[3]: (absent) → 5\n"
    )


def test_adopt_refuses_a_dirty_tree(stub, capsys):
    before = stub.bytes()
    stub.content = {**stub.content, "alpha": moved_alpha()}
    (stub.root / "notes.txt").write_text("uncommitted\n")
    assert stub.run(write=True) == 2
    assert "dirty outside the expectation files: notes.txt" in capsys.readouterr().err
    assert stub.bytes() == before


def test_adopt_accepts_edits_to_the_expectation_files_themselves(stub):
    (stub.root / "golden" / "beta.json").write_text(sorted_json({"rows": []}))
    assert stub.run("beta", write=True) == 0
    assert stub.table[1].read(stub.root) == BETA


def test_adopt_refuses_when_tier1_fails(stub, capsys):
    before = stub.bytes()
    stub.content = {**stub.content, "alpha": moved_alpha()}
    assert stub.run(write=True, tier1=FAIL) == 2
    assert "tier-1 failed (exit 1)" in capsys.readouterr().err
    assert stub.bytes() == before


def test_every_committed_expectation_has_a_producer():
    """Every file under ``tests/golden/`` and the campaign artifact sits
    in the table once, under its own name, with a producer that exists."""
    committed = sorted(
        path.relative_to(ROOT).as_posix()
        for path in [*(ROOT / "tests" / "golden").glob("*.json"),
                     ROOT / "benchmarks" / "CONTROL_campaign.json"]
    )
    assert sorted(e.path for e in EXPECTATIONS) == committed
    assert len({e.name for e in EXPECTATIONS}) == len(EXPECTATIONS)
    for expectation in EXPECTATIONS:
        producer = expectation.produce
        assert isinstance(producer, Producer)
        module = importlib.import_module(producer.module)
        assert callable(getattr(module, producer.function)), expectation.name
