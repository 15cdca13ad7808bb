"""Bytes per host by component (docs/decisions/09, "What a host costs").

Builds the scale benchmark's world (walk mobility, ``rpcc-hy``,
``single_source``) under ``tracemalloc``, arms its start-up timers
(``Simulation.run(until=0)``) and sorts every live allocation into one
of five components by where it was made:

* **random streams** — anything allocated under ``sim/rng.py`` (the
  generators kept, the seeds of the parked streams and the registry)
  plus the stream names;
* **engine handles** — anything allocated under ``sim/engine.py`` (event
  handles and heap entries of the armed timers);
* **callables** — the statement creates a function, a ``partial`` or a
  bound method that something per-host keeps;
* **containers** — the statement creates or grows a dict, set or list;
* **objects** — every other statement: instances and their numbers.

The last three are told apart by the text of the allocating line, which
is as good as the patterns below; the first two by file.  Totals are
exact.  ``tests/test_world_memory.py`` gates the first component and the
sum of the others at 2 000 hosts.  Beside them it prints how many streams
the build parked (``RandomStreams.parked``) and how many of those resumed
by the time of the snapshot (a consumer's ``seeded`` after the build:
``docs/decisions/16-streams-held-while-drawn.md``).

    PYTHONPATH=src python benchmarks/host_bytes.py [--hosts N] [--stable F]...
"""

from __future__ import annotations

import argparse
import gc
import linecache
import pathlib
import re
import sys
import tracemalloc
from collections import Counter
from typing import Dict, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR.parent))

from benchmarks.bench_scale import SPEC, scale_config  # noqa: E402
from repro.experiments.runner import build_simulation  # noqa: E402
from repro.sim import rng  # noqa: E402

COMPONENTS = ("random streams", "objects", "callables", "containers", "engine handles")

_STREAM_NAME = re.compile(r'f"(pos|mobility|switch|query|update)/')
#: Identifiers whose mention makes a line a callable's: bound methods and
#: bindings something per-host keeps.  Each must still name something in
#: ``src/`` (``tests/test_world_memory.py`` checks).
CALLABLE_NAMES = (
    "binding.on_insert", "binding.on_evict", "_on_node_state_change",
    "bind_state_listener",
)
_CALLABLE = re.compile(
    r"\blambda\b|^\s*def |"
    + "|".join(rf"\b{re.escape(name)}\b" for name in CALLABLE_NAMES)
)
_CONTAINER = re.compile(
    r"= \{\}|= set\(\)|= \[|\] = |\.append\(|\.setdefault\(|= dict\(|= list\("
)


def component_of(traceback: tracemalloc.Traceback) -> str:
    """The component an allocation belongs to (frames are oldest first)."""
    files = [frame.filename for frame in traceback]
    if any(name.endswith("sim/rng.py") for name in files):
        return "random streams"
    innermost = traceback[-1]
    line = linecache.getline(innermost.filename, innermost.lineno)
    if _STREAM_NAME.search(line):
        return "random streams"
    if any(name.endswith("sim/engine.py") for name in files):
        return "engine handles"
    if _CALLABLE.search(line):
        return "callables"
    if _CONTAINER.search(line):
        return "containers"
    return "objects"


#: Streams parked and generators seeded by the consumers of parked
#: streams, since the counters were last zeroed.
COUNTS: Counter = Counter()


def _counting(real, key: str):
    def wrapper(*args):
        COUNTS[key] += 1
        return real(*args)

    return wrapper


def _count_streams() -> None:
    """Count ``RandomStreams.parked`` and ``seeded`` where consumers call it."""
    rng.RandomStreams.parked = _counting(rng.RandomStreams.parked, "parked")
    real, wrapper = rng.seeded, _counting(rng.seeded, "seeded")
    for module in list(sys.modules.values()):
        if module is not rng and getattr(module, "seeded", None) is real:
            module.seeded = wrapper


def measure(n_hosts: int, stable_fraction: float) -> Dict[str, float]:
    """Live bytes per host of a built and armed world, by component, and
    the streams it parked (``"parked"``) and resumed (``"resumed"``)."""
    config = scale_config(n_hosts).with_overrides(stable_fraction=stable_fraction)
    gc.collect()
    tracemalloc.start(25)
    try:
        COUNTS.clear()
        simulation = build_simulation(config, SPEC, "single_source")
        # Each parked stream's consumer seeds once in the build.
        at_build = COUNTS["seeded"]
        simulation.run(until=0.0)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    totals: Counter = Counter()
    for stat in snapshot.statistics("traceback"):
        totals[component_of(stat.traceback)] += stat.size
    per_host = {name: totals[name] / n_hosts for name in COMPONENTS}
    per_host.update(parked=COUNTS["parked"], resumed=COUNTS["seeded"] - at_build)
    return per_host


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=10_000)
    parser.add_argument(
        "--stable", type=float, action="append",
        help="stable_fraction of a world to measure (repeatable; default 0.1 0.9)",
    )
    args = parser.parse_args(argv)
    _count_streams()
    measure(10, 0.5)  # lazy imports must not be billed to a host
    for stable_fraction in args.stable or (0.1, 0.9):
        per_host = measure(args.hosts, stable_fraction)
        total = sum(per_host[name] for name in COMPONENTS)
        print(f"{args.hosts} hosts, stable_fraction {stable_fraction}: "
              f"{total:.0f} B/host; {per_host['parked']} streams parked at build, "
              f"{per_host['resumed']} resumed by arming")
        for name in COMPONENTS:
            print(f"  {name:16s}{per_host[name]:8.0f} B/host "
                  f"{100.0 * per_host[name] / total:5.1f} %")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
