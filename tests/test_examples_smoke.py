"""Every committed example script must run end-to-end.

Examples are the repo's living documentation and the first thing to rot
when an API moves.  Each script honours ``REPRO_SMOKE=1`` (a
seconds-long configuration instead of the full example scale), which is
how this suite keeps the check affordable.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: A fragment each script's output must contain (a cheap assertion that
#: the run reached its final report, not just imported cleanly).
EXPECTED_OUTPUT = {
    "quickstart.py": "all six strategy curves",
    "battlefield.py": "RPCC relay overlay",
    "mobile_marketplace.py": "total radio traffic",
    "ttl_tuning.py": "trade-off",
    "relay_dynamics.py": "steady-state mean",
}


def test_every_example_is_covered():
    assert {path.name for path in EXAMPLES} == set(EXPECTED_OUTPUT)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_runs_in_smoke_mode(path):
    env = dict(os.environ, REPRO_SMOKE="1")
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(path)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{path.name} failed:\n{completed.stdout}\n{completed.stderr}"
    )
    assert EXPECTED_OUTPUT[path.name] in completed.stdout, path.name
