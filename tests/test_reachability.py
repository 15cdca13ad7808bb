"""The committed reachability map against the source tree, without running anything.

``tools/reachability.py`` writes ``tools/reachability.json`` by running every public
entry point under a profiler (CI's ``--check`` step re-measures it).  These tests read
only the map and the AST of ``src/`` and ``tests/``, and fail when the map has gone
stale: a function it does not list, a function with neither an entry point nor a
reason, or a reason naming a seam, test or module that is not there.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reachability", ROOT / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

MAP = json.loads(reachability.MAP.read_text(encoding="utf-8"))
FUNCTIONS = reachability.src_functions()
SEAM_NAMES = set(re.findall(r'Seam\("([\w.]+)"', (ROOT / "benchmarks" / "e2e" / "seams.py").read_text()))


def _test_exists(test_id: str) -> bool:
    """``tests/x.py::Class::test`` (or ``::test``) names a test function in that file."""
    path, *names = test_id.split("::")
    if not (ROOT / path).is_file() or not names or not names[-1].startswith("test"):
        return False
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in names:
        scope = next((node for node in scope.body if getattr(node, "name", None) == name), None)
        if scope is None:
            return False
    return True


def _problem(key: str, value: str) -> str:
    """Why ``value`` does not account for ``key`` (``""`` when it does)."""
    if not value:
        return "no entry point reaches it and no reason keeps it"
    if value[0].isdigit():
        last = len(MAP["entry_points"]) - 1
        spans = [span.split("-") for span in value.split(",")]
        return "" if all(0 <= int(i) <= last for span in spans for i in span) else "entry point out of range"
    kind, _, evidence = value.partition(" ")
    derived = reachability.reason(key, FUNCTIONS[key], {}, "")
    if kind == "declaration":
        return "" if derived == "declaration" else "no dunder, abstract method or empty body"
    if kind == "seam":
        return "" if evidence in SEAM_NAMES else f"seams.py has no seam {evidence!r}"
    if kind not in ("observer", "validation", "reference"):
        return f"{kind!r} is not a reason"
    if derived:
        return f"the tool derives {derived!r} for it"
    return "" if _test_exists(evidence) else f"no test {evidence}"


def test_every_src_function_is_mapped_and_nothing_else():
    assert sorted(MAP["functions"]) == sorted(FUNCTIONS)


def test_every_function_has_an_entry_point_or_exactly_one_reason():
    problems = {
        key: problem for key, value in MAP["functions"].items()
        if key in FUNCTIONS and (problem := _problem(key, value))
    }
    assert problems == {}
