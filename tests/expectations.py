"""Every committed expectation, and the one function that computes each.

The paper's results reach the repo as committed files: the golden
strategy cells with their digests and trace bytes, the larger worlds,
the scenario catalog, the Table-1 energy record, the eight Fig 7-9 CSVs
at a tiny window, the 100k smoke and the 80-run chaos campaign.
:data:`EXPECTATIONS` names each file, the function that recomputes its
content from the tree and the serialisation the file is written with.
Tests read the files through :func:`committed` and write none of them;
``python tools/adopt.py`` recomputes them, shows what moved and, under
``--adopt``, writes the files that did.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent

INT_METRICS = (
    "transmissions", "messages", "bytes_on_air",
    "queries_issued", "queries_answered", "queries_unanswered",
)
FLOAT_METRICS = (
    "mean_latency", "mean_hit_latency", "p95_latency",
    "local_answer_ratio", "stale_ratio", "violation_ratio",
    "mean_staleness_age",
)


def summary_digest(summary) -> Dict[str, object]:
    """What every digest pins of a run's metrics: the integer metrics,
    the float metrics to six places, the counters and the transmissions
    by message type.  Digests hold no ids and no wall-clock field."""
    digest: Dict[str, object] = {name: getattr(summary, name) for name in INT_METRICS}
    digest.update({name: round(getattr(summary, name), 6) for name in FLOAT_METRICS})
    digest["counters"] = dict(sorted(summary.counters.items()))
    digest["transmissions_by_type"] = dict(sorted(summary.transmissions_by_type.items()))
    return digest


def sorted_json(content) -> str:
    return json.dumps(content, indent=2, sort_keys=True) + "\n"


def figures_json(content) -> str:
    """``figures_tiny.json`` keeps its own layout: one-space indent, the
    CSVs in the order the producer lists them."""
    return json.dumps(content, indent=1) + "\n"


@dataclass(frozen=True)
class Producer:
    """``module.function``, imported when called: reading the table
    imports no simulation."""

    module: str
    function: str

    def __call__(self):
        return getattr(importlib.import_module(self.module), self.function)()


@dataclass(frozen=True)
class Expectation:
    """One committed file: ``path`` (from the repo root) holds
    ``dump(produce())`` of the tree that committed it."""

    name: str
    path: str
    produce: Callable[[], object]
    dump: Callable[[object], str] = sorted_json

    def read(self, root: Path = ROOT):
        return json.loads((root / self.path).read_text(encoding="utf-8"))


EXPECTATIONS: Tuple[Expectation, ...] = (
    Expectation("digests", "tests/golden/digests.json",
                Producer("tests.test_golden_e2e", "digests")),
    Expectation("trace_bytes", "tests/golden/trace_bytes.json",
                Producer("tests.test_golden_e2e", "trace_bytes")),
    Expectation("worlds", "tests/golden/worlds.json",
                Producer("tests.test_golden_e2e", "worlds")),
    Expectation("scenarios", "tests/golden/scenarios.json",
                Producer("tests.test_golden_scenarios", "scenarios")),
    Expectation("energy", "tests/golden/energy.json",
                Producer("tests.test_energy", "energy")),
    Expectation("figures_tiny", "tests/golden/figures_tiny.json",
                Producer("tests.test_figures_golden", "figures_tiny"), figures_json),
    Expectation("scale_100k", "tests/golden/scale_100k.json",
                Producer("benchmarks.smoke_scale", "scale_digest")),
    Expectation("control_campaign", "benchmarks/CONTROL_campaign.json",
                Producer("benchmarks.control_campaign", "run_campaign")),
)


def committed(name: str):
    """The committed content of the expectation called ``name``."""
    (expectation,) = (e for e in EXPECTATIONS if e.name == name)
    return expectation.read()
