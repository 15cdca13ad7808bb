"""Benchmark entry point with a committed-baseline regression gate.

Several suites, each gated against its own committed baseline next to
this file:

* ``kernel`` — the fast-path workloads of ``bench_kernel.py`` (event
  kernel, spatial-grid snapshot build, memoised BFS bursts, ``has_edge``),
  gated against ``BENCH_kernel.json``;
* ``engine`` — the event engine of ``bench_engine.py`` (bulk
  schedule/run, the pooled ``post`` fast path, timer-renewal churn,
  cancel-heavy compaction pressure), gated against
  ``BENCH_engine.json``;
* ``sweep`` — the campaign executor of ``bench_sweep.py`` (serial vs
  two-worker vs served-from-the-store runs of a scaled Fig-7-style
  sweep), gated against ``BENCH_sweep.json``; the parallel and
  served-rerun speedups (``parallel_speedup_jobs2``,
  ``cache_hit_speedup``) are printed and recorded in the result metadata;
* ``trace`` — the observability layer of ``bench_trace.py`` (the same
  run untraced, with a null sink, and with JSONL export), gated against
  ``BENCH_trace.json``;
* ``faults`` — the fault-injection layer of ``bench_faults.py`` (the
  same chaos-scale run fault-free and under the shipped partition,
  bursty-loss, and crash-reboot plans), gated against
  ``BENCH_faults.json``;
* ``scale`` — the struct-of-arrays core of ``bench_scale.py`` (1k/5k/10k
  RPCC runs), gated against ``BENCH_scale.json``; the 10k run's speedup
  over its PR-6 measurement lands in the baseline metadata.  These
  benchmarks are self-timing (they report the run phase only, excluding
  world construction), so they are measured via :func:`measure_returned`;
* ``campaign`` — the persistence layer of ``bench_campaign.py`` (a
  synthetic 1000-point campaign written and read back through the
  SQLite result store), gated against ``BENCH_campaign.json``; the
  measured commit count lands in the metadata, where a test holds the
  committed number to what the code measures;
* ``control`` — the online controller of ``bench_control.py`` (the same
  chaos-scale run with no controller, with the no-op static policy
  sampling every window, and with the hysteresis policy actuating under
  the shipped partition plan), gated against ``BENCH_control.json``;
  the observation and closed-loop overhead ratios land in the metadata,
  where the pytest entry points hold the fault-free sampling cost to 5%.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # all suites
    PYTHONPATH=src python benchmarks/run_bench.py --suite sweep   # one suite
    PYTHONPATH=src python benchmarks/run_bench.py --update        # new baselines
    PYTHONPATH=src python benchmarks/run_bench.py --check         # CI gate only
    PYTHONPATH=src python benchmarks/run_bench.py --suite kernel --update \
        --only snapshot_build_50 --only snapshot_build_200        # ratchet two rows

Exits nonzero when any benchmark is more than ``--threshold`` slower
than its committed baseline (default 30%; the kernel suite — whose hot
paths host the trace emit sites — is tightened to 5%), so CI catches
hot-path and campaign-layer regressions before they show up as
hour-long figure runs.  ``--check`` gates without writing any files.
``--only ROW`` (repeatable) measures just the named rows: with
``--update`` the other rows of the baseline — and its metadata — stay as
committed, so one row can be ratcheted without re-measuring, and thereby
loosening, the rest.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR.parent))

from benchmarks.baseline import (  # noqa: E402
    DEFAULT_THRESHOLD,
    compare,
    format_comparison,
    has_regressions,
    load_baseline,
    save_baseline,
)
from repro.mobility.terrain import Terrain  # noqa: E402
from repro.mobility.waypoint import RandomWaypoint  # noqa: E402
from repro.net.topology import TopologySnapshot  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

SUITES = ("kernel", "engine", "sweep", "trace", "faults", "scale",
          "campaign", "control")

#: Timing repetitions per suite (the best is kept).  The sweep campaign
#: is seconds-per-iteration, so it repeats less than the ms-scale kernels;
#: the scale suite's rows are whole simulations of up to 10k nodes, so it
#: repeats least of all (the noise-retry pass still resamples any
#: benchmark that appears to regress).
SUITE_REPEATS = {
    "kernel": 5, "engine": 5, "sweep": 2, "trace": 3, "faults": 3,
    "scale": 1, "campaign": 3, "control": 3,
}

#: Shortest warm-up of a timed row (longer rows warm up with one call).
WARMUP_SECONDS = 0.02

#: Suites whose benchmark callables time themselves and return seconds
#: (measured via :func:`measure_returned` instead of :func:`measure`).
SELF_TIMED_SUITES = frozenset({"scale"})

#: Per-suite gate overrides.  The kernel suite runs the hot paths the
#: trace emit sites were added to, so it gets a tightened 5% budget —
#: disabled tracing must stay near-free.  Other suites keep the default.
SUITE_THRESHOLDS = {"kernel": 0.05}


def _scaled_positions(count: int, seed: int = 3):
    """Random placements at the paper's density (50 nodes / 1500 m square)."""
    side = 1500.0 * math.sqrt(count / 50.0)
    rng = random.Random(seed)
    terrain = Terrain(side, side)
    return {i: terrain.random_point(rng) for i in range(count)}


def _bench_event_throughput() -> None:
    sim = Simulator()
    for index in range(10_000):
        sim.schedule(float(index % 97) * 0.1, lambda: None)
    sim.run()


def _make_build_bench(count: int) -> Callable[[], None]:
    positions = _scaled_positions(count)

    def run() -> None:
        TopologySnapshot(positions, 350.0)

    return run


def _make_route_burst(count: int) -> Callable[[], None]:
    positions = _scaled_positions(count)

    def run() -> None:
        snapshot = TopologySnapshot(positions, 350.0)
        for query in range(200):
            snapshot.shortest_path(query % 16, (query * 37) % count)

    return run


def _make_flood_burst(count: int) -> Callable[[], None]:
    positions = _scaled_positions(count)

    def run() -> None:
        snapshot = TopologySnapshot(positions, 350.0)
        for query in range(200):
            snapshot.bfs_levels(query % 16, max_depth=8)

    return run


def _bench_has_edge() -> None:
    snapshot = _HAS_EDGE_SNAPSHOT
    for query in range(10_000):
        snapshot.has_edge(query % 1000, (query * 13 + 7) % 1000)


_HAS_EDGE_SNAPSHOT = None  # built lazily so import stays cheap


def _bench_waypoint_sampling() -> None:
    terrain = Terrain(1500.0, 1500.0)
    model = RandomWaypoint(terrain, random.Random(1), 1.0, 5.0, 60.0)
    for t in range(0, 18_000, 10):
        model.position(float(t))


def kernel_benchmarks() -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated kernel benchmark."""
    global _HAS_EDGE_SNAPSHOT
    if _HAS_EDGE_SNAPSHOT is None:
        _HAS_EDGE_SNAPSHOT = TopologySnapshot(_scaled_positions(1000), 350.0)
    return [
        ("event_throughput_10k", _bench_event_throughput),
        ("snapshot_build_50", _make_build_bench(50)),
        ("snapshot_build_200", _make_build_bench(200)),
        ("snapshot_build_1000", _make_build_bench(1000)),
        ("route_burst_1000", _make_route_burst(1000)),
        ("flood_burst_1000", _make_flood_burst(1000)),
        ("has_edge_10k", _bench_has_edge),
        ("waypoint_sampling_5h", _bench_waypoint_sampling),
    ]


def suite_benchmarks(
    suite: str, workdir: str
) -> List[Tuple[str, Callable[[], None]]]:
    """The gated benchmarks of one suite (``workdir`` holds scratch state)."""
    if suite == "kernel":
        return kernel_benchmarks()
    if suite == "engine":
        from benchmarks.bench_engine import engine_benchmarks

        return engine_benchmarks(workdir)
    if suite == "sweep":
        from benchmarks.bench_sweep import sweep_benchmarks

        return sweep_benchmarks(workdir)
    if suite == "trace":
        from benchmarks.bench_trace import trace_benchmarks

        return trace_benchmarks(workdir)
    if suite == "faults":
        from benchmarks.bench_faults import faults_benchmarks

        return faults_benchmarks(workdir)
    if suite == "scale":
        from benchmarks.bench_scale import scale_benchmarks

        return scale_benchmarks(workdir)
    if suite == "campaign":
        from benchmarks.bench_campaign import campaign_benchmarks

        return campaign_benchmarks(workdir)
    if suite == "control":
        from benchmarks.bench_control import control_benchmarks

        return control_benchmarks(workdir)
    raise ValueError(f"unknown suite {suite!r}")


def measure(fn: Callable[[], None], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``.

    Warms up for at least one call and :data:`WARMUP_SECONDS`: a
    sub-millisecond row timed after a single call still reads the cold
    allocator and caches of whatever ran before it, so it would measure
    differently alone (``--only``) than in its place in the suite.
    """
    warm_until = time.perf_counter() + WARMUP_SECONDS
    fn()  # also populates any per-process caches
    while time.perf_counter() < warm_until:
        fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_returned(fn: Callable[[], float], repeats: int) -> float:
    """Best-of-``repeats`` for a *self-timing* benchmark.

    ``fn`` returns the seconds of its own timed region (e.g. the run
    phase of a simulation, excluding world construction), so the harness
    keeps the smallest returned value instead of timing the call.
    """
    fn()  # warm up (and populate any per-process caches)
    return min(fn() for _ in range(repeats))


def run_all(
    benchmarks: Sequence[Tuple[str, Callable[[], None]]],
    repeats: int = 5,
    verbose: bool = True,
    timer: Callable[[Callable, int], float] = measure,
) -> Dict[str, float]:
    """Measure every benchmark of one suite; returns ``{name: seconds}``."""
    results: Dict[str, float] = {}
    for name, fn in benchmarks:
        results[name] = timer(fn, repeats)
        if verbose:
            print(f"  {name:<24} {results[name] * 1e3:10.3f} ms")
    return results


def sweep_speedups(results: Dict[str, float]) -> Dict[str, float]:
    """Derive the parallel and served-rerun speedups from sweep timings."""
    serial = results.get("sweep_serial_6runs")
    speedups: Dict[str, float] = {}
    if not serial:
        return speedups
    jobs2 = results.get("sweep_jobs2_6runs")
    warm = results.get("sweep_cache_warm_6runs")
    if jobs2:
        speedups["parallel_speedup_jobs2"] = serial / jobs2
    if warm:
        speedups["cache_hit_speedup"] = serial / warm
    return speedups


def _selected(baseline: Dict[str, float], only: set) -> Dict[str, float]:
    """The baseline rows ``--only`` named (all of them without ``--only``)."""
    if not only:
        return baseline
    return {name: value for name, value in baseline.items() if name in only}


def derived_ratios(suite: str, results: Dict[str, float]) -> Dict[str, float]:
    """The speedups / overheads a suite records in its baseline metadata."""
    if suite == "sweep":
        return sweep_speedups(results)
    if suite == "scale":
        from benchmarks.bench_scale import scale_speedups

        return scale_speedups(results)
    if suite == "campaign":
        from benchmarks.bench_campaign import campaign_write_counts

        return campaign_write_counts()
    if suite == "control":
        from benchmarks.bench_control import control_overheads

        return control_overheads(results)
    return {}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", choices=SUITES + ("all",), default="all",
        help="which benchmark suite to run (default all)",
    )
    parser.add_argument(
        "--baseline-dir", default=str(BENCH_DIR),
        help="directory of the committed BENCH_<suite>.json baselines",
    )
    parser.add_argument(
        "--output-dir", default=".",
        help="where to write fresh BENCH_<suite>.json measurements "
        "(committed baselines are only rewritten with --update)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="fractional slowdown that fails the gate (default 0.30, "
        "except the kernel suite's tightened 0.05)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate-only mode for CI: compare against the committed "
        "baselines and write nothing",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="override the per-suite timing repetitions (kernel 5, sweep 2)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baselines from this run instead of gating against them",
    )
    parser.add_argument(
        "--only", action="append", metavar="ROW", default=[],
        help="measure only this benchmark row (repeatable); with --update "
        "the baseline's other rows and metadata are kept as committed",
    )
    args = parser.parse_args(argv)
    if args.check and args.update:
        parser.error("--check and --update are mutually exclusive")
    suites = SUITES if args.suite == "all" else (args.suite,)
    only = set(args.only)
    unmatched = set(only)

    failed = False
    for suite in suites:
        repeats = args.repeats if args.repeats is not None else SUITE_REPEATS[suite]
        threshold = (
            args.threshold
            if args.threshold is not None
            else SUITE_THRESHOLDS.get(suite, DEFAULT_THRESHOLD)
        )
        print(f"running {suite} benchmarks:")
        baseline_path = pathlib.Path(args.baseline_dir) / f"BENCH_{suite}.json"
        output_path = pathlib.Path(args.output_dir) / f"BENCH_{suite}.json"
        partial_update = bool(only) and args.update and baseline_path.exists()
        timer = measure_returned if suite in SELF_TIMED_SUITES else measure
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
            benchmarks = suite_benchmarks(suite, workdir)
            if only:
                benchmarks = [row for row in benchmarks if row[0] in only]
                unmatched.difference_update(name for name, _ in benchmarks)
                if not benchmarks:
                    print("  no selected row in this suite\n")
                    continue
            results = run_all(benchmarks, repeats=repeats, timer=timer)

            if baseline_path.exists() and not args.update:
                # Wall-clock gates on shared boxes see bursty contention:
                # before declaring a regression, re-measure only the
                # benchmarks that breached and keep the best observation.
                # Transient noise clears on retry; real slowdowns persist.
                by_name = dict(benchmarks)
                baseline = _selected(load_baseline(baseline_path), only)
                rows = compare(results, baseline, threshold)
                for _ in range(2):
                    if not has_regressions(rows):
                        break
                    regressed = [r.name for r in rows if r.status == "regressed"]
                    print(f"  retrying {len(regressed)} regressed "
                          "benchmark(s) to rule out machine noise")
                    # Best-of-N converges to the true floor with enough
                    # samples even inside a contention window, so the
                    # retry samples much harder than the first pass.
                    # The scale suite's rows are whole simulations: cap
                    # their retry sampling where the ms-scale suites
                    # sample much harder.
                    retry_repeats = (
                        max(2 * repeats, 3)
                        if suite in SELF_TIMED_SUITES
                        else max(3 * repeats, 15)
                    )
                    for name in regressed:
                        results[name] = min(
                            results[name],
                            timer(by_name[name], retry_repeats),
                        )
                    rows = compare(results, baseline, threshold)
        meta: Dict[str, object] = {"repeats": repeats}
        if partial_update:
            # The rows not measured and the metadata stay as committed;
            # ratios are re-derived over the merged rows.
            results = {**load_baseline(baseline_path), **results}
            meta = json.loads(baseline_path.read_text(encoding="utf-8"))["meta"]
        for name, value in derived_ratios(suite, results).items():
            meta[name] = round(value, 3)
            print(f"  {name:<24} {value:10.2f}x")

        if not args.check and (args.update or not baseline_path.exists()):
            save_baseline(baseline_path, results, meta=meta)
            print(f"baseline written to {baseline_path}\n")
            continue
        if args.check and not baseline_path.exists():
            print(f"FAIL: no committed baseline at {baseline_path}",
                  file=sys.stderr)
            failed = True
            continue

        rows = compare(
            results, _selected(load_baseline(baseline_path), only), threshold
        )
        if not args.check:
            save_baseline(output_path, results, meta=meta)
        print()
        print(format_comparison(rows))
        if has_regressions(rows):
            print(f"\nFAIL: {suite} regression beyond {threshold:.0%} "
                  "of baseline", file=sys.stderr)
            failed = True
        else:
            print(f"\nOK: {suite} within threshold of committed baseline")
        print()
    if unmatched:
        print(f"FAIL: no such benchmark row: {', '.join(sorted(unmatched))}",
              file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
