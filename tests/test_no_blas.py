"""Nothing in ``src/repro`` calls a BLAS routine.

``repro._np`` imports numpy with OpenBLAS's pool at one thread, which is
free only because no code path reaches BLAS
(``docs/decisions/15-no-blas-pool.md``).  This test walks the AST of every
module and fails on the ``@`` operator or any attribute (or name imported
from a module) that is a numpy routine backed by BLAS.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
BLAS_NAMES = frozenset({
    "dot", "vdot", "inner", "matmul", "tensordot", "einsum",
    "linalg", "cov", "corrcoef", "polyfit",
})


def blas_uses(source: str, filename: str):
    """``file:line: what`` for every BLAS use in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "the @ operator"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            what = f"attribute {node.attr!r}"
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names if alias.name in BLAS_NAMES]
            what = names and f"import of {', '.join(names)}"
        if what:
            found.append((node.lineno, what))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


def test_no_module_calls_blas():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += blas_uses(path.read_text(encoding="utf-8"), path.relative_to(ROOT).as_posix())
    assert not found, (
        "BLAS runs on a one-thread pool; see docs/decisions/15-no-blas-pool.md:\n"
        + "\n".join(found)
    )


def test_every_form_is_caught():
    source = (
        "import numpy as np\n"
        "a = np.dot(x, y)\n"
        "b = x @ y\n"
        "b @= y\n"
        "c = np.linalg.norm(x)\n"
        "from numpy import einsum\n"
        "d = x.cov()\n"
    )
    assert blas_uses(source, "m.py") == [
        "m.py:2: attribute 'dot'",
        "m.py:3: the @ operator",
        "m.py:4: the @ operator",
        "m.py:5: attribute 'linalg'",
        "m.py:6: import of einsum",
        "m.py:7: attribute 'cov'",
    ]
