"""Trace-layer benchmarks: the observability bus must be near-free.

Three shapes of the same sweep-scale run (20 peers, 3+1 simulated
minutes, RPCC strong):

* **off** — no bus attached; the emit sites see ``NULL_TRACE`` and skip
  on its ``enabled`` flag.  This is the path every figure run takes and
  the one the kernel suite's tightened 5% gate protects.
* **null-sink** — a live :class:`~repro.obs.bus.TraceBus` fanning out to
  a sink that only counts: full event construction and dispatch, no I/O.
  The honest cost of *recording*.
* **jsonl** — the full export path, serialising every event to disk.

``run_bench.py --suite trace`` gates all three against
``BENCH_trace.json``; the pytest entry points assert the correctness
side (tracing never changes results) and print the measured overheads.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.obs import JsonlSink, TraceBus

from benchmarks.conftest import bench_config

TRACE_SPEC = "rpcc-sc"


def trace_config() -> SimulationConfig:
    """The sweep-point scale: one real run, small enough to repeat."""
    return bench_config(
        n_peers=20,
        sim_time=180.0,
        warmup=60.0,
        terrain_width=1000.0,
        terrain_height=1000.0,
    )


def run_untraced():
    """The production path: no bus, emit sites short-circuit."""
    return build_simulation(trace_config(), TRACE_SPEC, "standard").run()


class _CountingSink:
    """Receives and discards (keeps only a count)."""

    def __init__(self) -> None:
        self.events_seen = 0

    def on_event(self, event) -> None:
        self.events_seen += 1

    def close(self) -> None:
        return None


def run_null_sink():
    """Events built and dispatched, then discarded."""
    bus = TraceBus()
    sink = bus.add_sink(_CountingSink())
    result = build_simulation(trace_config(), TRACE_SPEC, "standard", trace=bus).run()
    bus.close()
    return result, sink.events_seen


def run_jsonl(path: str):
    """The full export path, JSONL to disk."""
    bus = TraceBus()
    sink = bus.add_sink(JsonlSink(path))
    result = build_simulation(trace_config(), TRACE_SPEC, "standard", trace=bus).run()
    bus.close()
    return result, sink.events_written


def trace_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated trace benchmark."""
    jsonl_path = os.path.join(workdir, "bench-trace.jsonl")
    return [
        ("trace_off_run", lambda: run_untraced()),
        ("trace_null_sink_run", lambda: run_null_sink()),
        ("trace_jsonl_run", lambda: run_jsonl(jsonl_path)),
    ]


# ----------------------------------------------------------------------
# pytest entry points: correctness first, measured overhead printed.


def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_tracing_does_not_change_results(tmp_path):
    """The observer effect must be exactly zero on the metrics."""
    untraced = run_untraced()
    null_result, seen = run_null_sink()
    jsonl_result, written = run_jsonl(str(tmp_path / "t.jsonl"))
    assert null_result.summary == untraced.summary
    assert jsonl_result.summary == untraced.summary
    assert seen == written > 0


def test_disabled_trace_overhead_is_small(tmp_path):
    """With no bus attached the emit sites are one attribute check."""
    off = _best_of(run_untraced)
    null_sink = _best_of(lambda: run_null_sink())
    jsonl = _best_of(lambda: run_jsonl(str(tmp_path / "t.jsonl")))
    print(f"\n  trace off        {off * 1e3:9.1f} ms")
    print(f"  null-sink        {null_sink * 1e3:9.1f} ms "
          f"({null_sink / off:5.2f}x)")
    print(f"  jsonl            {jsonl * 1e3:9.1f} ms "
          f"({jsonl / off:5.2f}x)")
    # Generous bound: a noisy shared box must not flake this, but a
    # hot-path regression (emitting with no bus attached, say) would
    # blow far past it.  The tight 5% gate lives in run_bench.py's
    # kernel suite against the committed baseline.
    assert null_sink < off * 2.0
    assert jsonl < off * 3.0
