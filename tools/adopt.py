"""``python tools/adopt.py [--adopt] [NAME...]``: recompute the committed expectations, show what moved.

Every committed expectation is a row of ``tests/expectations.py``: a file, the function that
computes its content from the tree and the serialisation the file is written with.  This command
recomputes the named ones (all of them when none is named) and prints every key that moved, was
added or was removed as ``file: key: old → new``.  By default it is a dry run: it writes nothing
and exits 1 when anything moved.  ``--adopt`` writes the files that moved, and only from a clean
baseline: it refuses when the git tree is dirty outside the expectation files, and when tier-1
fails with the tests that read committed expectations (marker ``expectation``) deselected.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Tier-1 without the tests that read committed expectations: those are
#: the tests a deliberate behaviour change fails until it is adopted.
TIER1 = (sys.executable, "-m", "pytest", "-x", "-q", "-m", "not expectation")
ABSENT = "(absent)"


def leaves(value, key=""):
    """``value`` flattened to ``{key: JSON of the leaf}``: ``a.b`` into a
    dict, ``a[2]`` into a list, and a multi-line string by its lines."""
    if isinstance(value, str) and "\n" in value:
        value = value.splitlines()
    if isinstance(value, dict) and value:
        children = ((f"{key}.{name}" if key else str(name), child) for name, child in value.items())
    elif isinstance(value, list) and value:
        children = ((f"{key}[{index}]", child) for index, child in enumerate(value))
    else:
        return {key: json.dumps(value, ensure_ascii=False)}
    flat = {}
    for child_key, child in children:
        flat.update(leaves(child, child_key))
    return flat


def moved(old, new):
    """``(key, old, new)`` for every leaf that changed, was added or was removed."""
    before, after = leaves(old), leaves(new)
    keys = [*before, *(key for key in after if key not in before)]
    return [
        (key, before.get(key, ABSENT), after.get(key, ABSENT))
        for key in keys
        if before.get(key) != after.get(key)
    ]


def refusal(root, table, tier1):
    """Why ``--adopt`` must not write from this tree, or None."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "-z", "--untracked-files=all"],
        cwd=root, capture_output=True, text=True,
    )
    if status.returncode:
        return f"git status failed: {status.stderr.strip()}"
    entries = iter(status.stdout.split("\0"))
    dirty = []
    for entry in entries:
        if entry:
            dirty.append(entry[3:])
            if entry[0] in "RC":  # a rename or copy names its source next
                dirty.append(next(entries))
    outside = sorted(set(dirty) - {expectation.path for expectation in table})
    if outside:
        return f"the tree is dirty outside the expectation files: {', '.join(outside)}"
    print(f"adopt: running tier-1 without the expectation tests: {' '.join(tier1)}", file=sys.stderr)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        list(tier1), cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    tail = "\n".join(run.stdout.splitlines()[-20:])
    if run.returncode:
        return f"tier-1 failed (exit {run.returncode}):\n{tail}"
    print(f"adopt: tier-1 passed: {tail.splitlines()[-1] if tail else ''}", file=sys.stderr)
    return None


def run(table, names=(), *, root=ROOT, tier1=TIER1, write=False):
    """Recompute the expectations ``names`` of ``table`` (every one when
    empty) under ``root``; with ``write``, write those that moved.  The
    exit status: 0 when nothing moved or every move was written, 1 when a
    dry run saw a move, 2 when the tree was refused."""
    chosen = [expectation for expectation in table if not names or expectation.name in names]
    if write:
        reason = refusal(root, table, tier1)
        if reason:
            print(f"adopt: refused: {reason}", file=sys.stderr)
            return 2
    changed = []
    for expectation in chosen:
        with contextlib.redirect_stdout(sys.stderr):
            text = expectation.dump(expectation.produce())
        path = root / expectation.path
        old_text = path.read_text(encoding="utf-8") if path.exists() else None
        if text == old_text:
            continue
        changed.append(expectation.path)
        old = {} if old_text is None else json.loads(old_text)
        moves = moved(old, json.loads(text))
        for key, before, after in moves:
            print(f"{expectation.path}: {key}: {before} → {after}")
        if not moves:
            print(f"{expectation.path}: same values, other bytes than its serialisation")
        if write:
            path.write_text(text, encoding="utf-8")
            print(f"{expectation.path}: adopted")
    if not changed:
        print(f"nothing moved in {len(chosen)} expectation(s)")
    return 1 if changed and not write else 0


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tests.expectations import EXPECTATIONS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0].split(": ", 1)[1])
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="an expectation of tests/expectations.py: "
        + ", ".join(expectation.name for expectation in EXPECTATIONS),
    )
    parser.add_argument(
        "--adopt", action="store_true",
        help="write the files that moved (clean tree and passing tier-1 only)",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - {expectation.name for expectation in EXPECTATIONS})
    if unknown:
        parser.error(f"no expectation called {', '.join(unknown)}")
    return run(EXPECTATIONS, args.names, write=args.adopt)


if __name__ == "__main__":
    sys.exit(main())
