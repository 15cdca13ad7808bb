"""What a world costs before its first event: DESIGN.md, "What start-up costs".

Builds the e2e benchmark's Table-1 world (``paper50``: 50 peers,
``rpcc-hy``, ``standard``) and its two 10k worlds (walkers:
``stable_fraction`` 0.1; sparse: 0.9; ``rpcc-hy``, ``single_source``,
seed 7), each in a fresh process so that imports are paid the way a
``repro run`` pays them, runs them, and prints wall seconds per start-up
phase and the resident MiB the world's process holds (below):

* **imports** — ``import repro.experiments.runner``, split into the
  self seconds of ``numpy``, ``repro`` and every other (stdlib) module,
  as ``-X importtime`` reports them in that process;
* **streams** — inside ``RandomStreams.stream`` / ``one_shot`` /
  ``parked``, wherever in the build they are asked for, and inside every
  ``seeded`` a parked stream's consumer calls in the build (seeding a
  Mersenne Twister for its build-time draws);
* **hosts** — build start to the end of the per-host loop, streams
  excluded;
* **agents** — the strategy and one agent per host;
* **placement** — the initial copies and their TTP windows;
* **rest of build** — workloads (streams excluded), the result object and
  the hand-off to the collector;
* **arming** — ``Simulation.run()`` up to the first ``run_until``;
* **first refresh** — the first ``TopologyService.current`` call;

plus every collection ``gc.callbacks`` reports from build start to run
end: the phase it fell in, its generation, its milliseconds and what it
freed; and what arming allocates — objects (pymalloc blocks) and bytes
(``tracemalloc``) — and the entries it leaves in the simulator's heap,
measured on a second, identical world after the timed one, so that
tracing costs the timed phases nothing; and resident
memory; and the streams parked at build (``RandomStreams.parked``) and
how many of them resumed in the run (a consumer's ``seeded`` after the
build: ``docs/decisions/16-streams-held-while-drawn.md``).  Resident
memory is ``VmRSS`` (``/proc/self/statm``, Linux) after the imports, after
the build and after the run, and the process's peak (``ru_maxrss``) at
the end of the run, before the second world; and the process's OS
threads after the imports (``/proc/self/task``, Linux), printed beside
numpy's import seconds: one unless numpy's BLAS started a pool
(``docs/decisions/15-no-blas-pool.md``).  The
boundaries are found by wrapping functions the build calls once per
phase, so the script reads any tree that has those names; the stream
wrapper adds about 0.2 us a stream.  It prints and gates nothing.

    PYTHONPATH=src python benchmarks/startup_cost.py [--hosts N] [--world paper50|walk|sparse]...

``--hosts`` sizes the 10k worlds; ``paper50`` always has Table 1's 50
peers.  The imports phase reads the working tree's bytecode caches: with
``PYTHONDONTWRITEBYTECODE`` set and no ``__pycache__``, every ``repro``
module compiles in it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: World name -> (stable_fraction, simulated seconds, placement): the e2e
#: rows; ``paper50`` is Table 1's world as it stands (no stable fraction).
WORLDS = {
    "paper50": (None, 3600.0, "standard"),
    "walk": (0.1, 30.0, "single_source"),
    "sparse": (0.9, 7.5, "single_source"),
}

PHASES = (
    "imports", "streams", "hosts", "agents", "placement", "rest of build",
    "arming", "first refresh",
)
#: The parts of the imports phase, by top-level module name.
IMPORT_PARTS = ("numpy", "repro", "other stdlib")
#: Where resident MiB are read, in order; ``peak`` is ``ru_maxrss``.
RESIDENT = ("imports", "build", "run", "peak")
#: Written to stderr around the imports phase, so that the parent reads
#: only that phase's ``-X importtime`` lines.
_IMPORTS_BEGIN, _IMPORTS_END = "startup_cost: imports begin", "startup_cost: imports end"


class _Clock:
    """Phase marks, stream seconds and collections of one measured world."""

    def __init__(self) -> None:
        self.phase = "before build"
        self.marks: Dict[str, float] = {}
        self.stream_s = 0.0
        self.stream_at: Dict[str, float] = {}
        self.streams = 0
        self.parked = 0
        self.resumed = 0
        self.collections: List[Dict[str, Any]] = []
        self._gc_started = 0.0

    def enter(self, phase: str) -> None:
        if phase not in self.marks:
            self.marks[phase] = time.perf_counter()
            self.stream_at[phase] = self.stream_s
            self.phase = phase

    def on_gc(self, stage: str, info: Dict[str, int]) -> None:
        if stage == "start":
            self._gc_started = time.perf_counter()
            return
        self.collections.append({
            "phase": self.phase,
            "generation": info["generation"],
            "ms": 1e3 * (time.perf_counter() - self._gc_started),
            "collected": info["collected"],
        })


def _resident_mib() -> float:
    """This process's ``VmRSS`` now, in MiB."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _wrap(owner: Any, name: str, before: Callable[[], None]) -> None:
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        before()
        return real(*args, **kwargs)

    setattr(owner, name, wrapper)


def _timed_streams(clock: _Clock, owner: Any, name: str) -> None:
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            clock.stream_s += time.perf_counter() - started
            if name == "parked":
                clock.parked += 1
            else:
                clock.streams += 1

    setattr(owner, name, wrapper)


def _timed_seeding(clock: _Clock) -> None:
    """Wrap ``seeded`` where the consumers of parked streams call it: in
    the build it is a stream's build-time generator (timed as streams),
    after it a resumption (counted)."""
    from repro.sim import rng

    real = rng.seeded

    def wrapper(seed):
        if "between build and run" in clock.marks:
            clock.resumed += 1
            return real(seed)
        started = time.perf_counter()
        try:
            return real(seed)
        finally:
            clock.stream_s += time.perf_counter() - started

    for module in list(sys.modules.values()):
        if module is not rng and getattr(module, "seeded", None) is real:
            module.seeded = wrapper


def measure(hosts: int, world: str, sim_time: Optional[float]) -> Dict[str, Any]:
    """Phase seconds and collections of one world, in this process."""
    print(_IMPORTS_BEGIN, file=sys.stderr, flush=True)
    started = time.perf_counter()
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import repro.experiments.runner as runner

    imported = time.perf_counter()
    resident = {"imports": _resident_mib()}
    threads = len(os.listdir("/proc/self/task"))
    print(_IMPORTS_END, file=sys.stderr, flush=True)
    sys.path.insert(0, str(BENCH_DIR.parent))
    from benchmarks.bench_scale import SPEC, scale_config
    from repro.experiments.config import SimulationConfig
    from repro.net.topology import TopologyService
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    clock = _Clock()
    _timed_streams(clock, RandomStreams, "stream")
    _timed_streams(clock, RandomStreams, "one_shot")
    _timed_streams(clock, RandomStreams, "parked")
    _timed_seeding(clock)
    _wrap(runner, "Discovery", lambda: clock.enter("agents"))
    for placement in ("single_item_placement", "random_placement", "hot_set_placement"):
        _wrap(runner, placement, lambda: clock.enter("placement"))
    _wrap(runner, "UpdateWorkload", lambda: clock.enter("rest of build"))
    _wrap(Simulator, "run_until", lambda: clock.enter("run"))
    real_current = TopologyService.current

    def current(self):
        if "first refresh" in clock.marks:
            return real_current(self)
        clock.enter("first refresh")
        try:
            return real_current(self)
        finally:
            clock.enter("rest of run")

    TopologyService.current = current
    stable_fraction, default_sim_time, placement = WORLDS[world]
    sim_time = default_sim_time if sim_time is None else sim_time
    if stable_fraction is None:
        config = SimulationConfig(sim_time=sim_time, seed=7)
    else:
        config = scale_config(hosts, sim_time=sim_time).with_overrides(
            stable_fraction=stable_fraction
        )
    gc.callbacks.append(clock.on_gc)
    try:
        clock.enter("hosts")
        simulation = runner.build_simulation(config, SPEC, placement)
        clock.enter("between build and run")
        resident["build"] = _resident_mib()
        clock.enter("arming")
        simulation.run()
        clock.enter("end")
        resident["run"] = _resident_mib()
        resident["peak"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
    finally:
        gc.callbacks.remove(clock.on_gc)

    order = list(clock.marks)
    seconds = {"imports": imported - started, "streams": clock.stream_s}
    for phase, following in zip(order, order[1:]):
        wall = clock.marks[following] - clock.marks[phase]
        seconds[phase] = wall - (clock.stream_at[following] - clock.stream_at[phase])
    streams_made, parked, resumed = clock.streams, clock.parked, clock.resumed

    # What arming allocates, on a second world: traced, so not timed.
    del simulation
    simulation = runner.build_simulation(config, SPEC, placement)
    blocks = sys.getallocatedblocks()
    tracemalloc.start()
    try:
        simulation._arm()
        armed_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    armed_objects = sys.getallocatedblocks() - blocks

    return {
        "world": world,
        "hosts": config.n_peers,
        "stable_fraction": config.stable_fraction,
        "streams_made": streams_made,
        "streams_parked": parked,
        "streams_resumed": resumed,
        "seconds": seconds,
        "armed": {
            "objects": armed_objects,
            "bytes": armed_bytes,
            "heap": simulation.sim.heap_size,
        },
        "resident_mib": resident,
        "threads": threads,
        "collections": clock.collections,
    }


def import_parts(importtime: str) -> Dict[str, float]:
    """Self seconds of the ``-X importtime`` lines between the markers, by part."""
    lines = importtime.splitlines()
    lines = lines[lines.index(_IMPORTS_BEGIN) + 1:lines.index(_IMPORTS_END)]
    parts = dict.fromkeys(IMPORT_PARTS, 0.0)
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        parts[top if top in parts else "other stdlib"] += int(self_us) / 1e6
    return parts


def _in_child(hosts: int, world: str, sim_time: Optional[float]) -> Dict[str, Any]:
    argv = [sys.executable, "-X", "importtime", __file__, "--child",
            "--hosts", str(hosts), "--world", world]
    if sim_time is not None:
        argv += ["--sim-time", str(sim_time)]
    child = subprocess.run(argv, check=True, capture_output=True, text=True)
    result = json.loads(child.stdout.splitlines()[-1])
    result["imports"] = import_parts(child.stderr)
    return result


def report(results: Sequence[Dict[str, Any]]) -> None:
    for result in results:
        seconds = result["seconds"]
        print(f"{result['world']}: {result['hosts']} hosts, stable_fraction "
              f"{result['stable_fraction']}, {result['streams_made']} streams kept or "
              f"one-shot, {result['streams_parked']} parked at build, "
              f"{result['streams_resumed']} of them resumed in the run")
        for phase in PHASES:
            print(f"  {phase:22s}{seconds.get(phase, 0.0):8.3f} s")
            if phase == "imports":
                for part in IMPORT_PARTS:
                    print(f"    {part:20s}{result['imports'][part]:8.3f} s (-X importtime self)"
                          + (f", {result['threads']} OS threads after the imports"
                             if part == "numpy" else ""))
        print("  resident MiB: " + ", ".join(
            f"{where} {result['resident_mib'][where]:.1f}" for where in RESIDENT))
        armed = result["armed"]
        print(f"  arming allocates {armed['objects']} objects, {armed['bytes']} bytes "
              f"({armed['bytes'] / result['hosts']:.0f} B/host) and leaves "
              f"{armed['heap']} entries in the simulator's heap")
        for collection in result["collections"]:
            print(f"  collection in {collection['phase']!r}: generation "
                  f"{collection['generation']}, {collection['ms']:.1f} ms, "
                  f"{collection['collected']} freed")
        walked = sum(c["ms"] for c in result["collections"])
        print(f"  {len(result['collections'])} collections, {walked:.1f} ms in all")
    # The same numbers as one markdown table, a column per world.
    print()
    print("| phase | " + " | ".join(
        f"{r['world']} ({r['hosts']})" for r in results) + " |")
    print("|---|" + "---:|" * len(results))
    for phase in PHASES:
        print(f"| {phase} | " + " | ".join(
            f"{r['seconds'].get(phase, 0.0):.3f}" for r in results) + " |")
        if phase == "imports":
            for part in IMPORT_PARTS:
                print(f"| imports: {part} | " + " | ".join(
                    f"{r['imports'][part]:.3f}" for r in results) + " |")
            print("| OS threads after imports | " + " | ".join(
                str(r["threads"]) for r in results) + " |")
    for where in RESIDENT:
        print(f"| resident MiB, {where} | " + " | ".join(
            f"{r['resident_mib'][where]:.1f}" for r in results) + " |")
    print("| streams parked at build | " + " | ".join(
        str(r["streams_parked"]) for r in results) + " |")
    print("| parked streams resumed in the run | " + " | ".join(
        str(r["streams_resumed"]) for r in results) + " |")
    print("| arming allocates, objects | " + " | ".join(
        str(r["armed"]["objects"]) for r in results) + " |")
    print("| arming allocates, B/host | " + " | ".join(
        f"{r['armed']['bytes'] / r['hosts']:.0f}" for r in results) + " |")
    print("| heap entries after arming | " + " | ".join(
        str(r["armed"]["heap"]) for r in results) + " |")
    print("| collections (ms) | " + " | ".join(
        f"{len(r['collections'])} ({sum(c['ms'] for c in r['collections']):.0f})"
        for r in results) + " |")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=10_000)
    parser.add_argument(
        "--world", choices=sorted(WORLDS), action="append",
        help="world to measure (repeatable; default paper50, walk, sparse)",
    )
    parser.add_argument(
        "--sim-time", type=float, default=None,
        help="simulated seconds of the run (default: the e2e row's)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    worlds = args.world or list(WORLDS)
    if args.child:
        print(json.dumps(measure(args.hosts, worlds[0], args.sim_time)))
        return 0
    report([_in_child(args.hosts, world, args.sim_time) for world in worlds])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
