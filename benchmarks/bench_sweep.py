"""Campaign benchmarks: the sweep executor, parallel fan-out, warm store.

The campaign layer is what turns one fast run into a fast *figure*: six
strategy curves x several axis points x (optionally) several seeds.
These benchmarks time one scaled-down Fig-7-style campaign three ways —

* **serial** — the historical loop (``CampaignExecutor(jobs=1)``);
* **jobs=2** — fanned out over a two-worker process pool (the speedup is
  hardware-bound: on a single-CPU box it can only break even);
* **cache-warm** — rerun against a populated content-addressed result
  store, which must do *zero* simulation work.

``run_bench.py --suite sweep`` measures the same three shapes without
pytest, records them in ``BENCH_sweep.json`` and applies the standard
>30% regression gate; the pytest entry points below additionally assert
the correctness side (bit-identical results, zero-work warm reruns).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.figures.base import run_axis_sweep
from repro.experiments.store import ResultStore

from benchmarks.conftest import bench_config

#: The scaled campaign: 2 strategies x 3 axis points = 6 independent runs.
SWEEP_AXIS = "update_interval"
SWEEP_VALUES: Tuple[float, ...] = (60.0, 120.0, 240.0)
SWEEP_SPECS: Tuple[str, ...] = ("push", "rpcc-sc")


def sweep_config() -> SimulationConfig:
    """A small-but-real campaign point (20 peers, 3+1 simulated minutes)."""
    return bench_config(
        n_peers=20,
        sim_time=180.0,
        warmup=60.0,
        terrain_width=1000.0,
        terrain_height=1000.0,
    )


def run_campaign(executor: CampaignExecutor) -> Dict:
    """One full sweep through the given executor."""
    return run_axis_sweep(
        sweep_config(), SWEEP_AXIS, SWEEP_VALUES, SWEEP_SPECS, executor=executor
    )


def sweep_benchmarks(cache_root: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated sweep benchmark.

    ``cache_root`` hosts the cache-warm benchmark's store; the measuring
    harness's warm-up call populates it, so the timed iterations are pure
    store reads.
    """
    warm_store = ResultStore(os.path.join(cache_root, "sweep-store"))
    return [
        ("sweep_serial_6runs", lambda: run_campaign(CampaignExecutor())),
        ("sweep_jobs2_6runs", lambda: run_campaign(CampaignExecutor(jobs=2))),
        (
            "sweep_cache_warm_6runs",
            lambda: run_campaign(CampaignExecutor(store=warm_store)),
        ),
    ]


# ----------------------------------------------------------------------
# pytest entry points: correctness of the fast paths, plus the speedups
# the hardware can honestly show.


def _summaries(results: Dict) -> Dict:
    return {key: result.summary for key, result in sorted(results.items())}


def test_parallel_campaign_bit_identical(benchmark):
    """jobs=2 must reproduce the serial campaign bit for bit."""
    serial = run_campaign(CampaignExecutor())

    parallel = benchmark.pedantic(
        lambda: run_campaign(CampaignExecutor(jobs=2)), rounds=1, iterations=1
    )
    assert _summaries(parallel) == _summaries(serial)


def test_cache_warm_campaign_does_no_work(benchmark, tmp_path):
    """A warm store rerun simulates nothing and is far faster than serial."""
    store = ResultStore(tmp_path / "store")
    cold_executor = CampaignExecutor(store=store)
    started = time.perf_counter()
    cold = run_campaign(cold_executor)
    cold_seconds = time.perf_counter() - started
    assert cold_executor.runs_executed == len(SWEEP_VALUES) * len(SWEEP_SPECS)

    warm_executor = CampaignExecutor(store=store)
    started = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_campaign(warm_executor), rounds=1, iterations=1
    )
    warm_seconds = time.perf_counter() - started

    assert warm_executor.runs_executed == 0, "warm rerun must not simulate"
    assert _summaries(warm) == _summaries(cold)
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(f"\ncache-warm speedup: {speedup:.1f}x "
          f"({cold_seconds * 1e3:.0f} ms cold -> {warm_seconds * 1e3:.0f} ms warm)")
    assert speedup > 1.5


def test_parallel_campaign_speedup(benchmark):
    """jobs=2 beats serial by >1.5x — wherever two cores actually exist."""
    cpus = os.cpu_count() or 1
    started = time.perf_counter()
    run_campaign(CampaignExecutor())
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    benchmark.pedantic(
        lambda: run_campaign(CampaignExecutor(jobs=2)), rounds=1, iterations=1
    )
    parallel_seconds = time.perf_counter() - started
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print(f"\nparallel speedup at jobs=2: {speedup:.2f}x on {cpus} CPU(s)")
    if cpus >= 2:
        assert speedup > 1.5, (
            f"expected >1.5x from 2 workers on {cpus} CPUs, got {speedup:.2f}x"
        )
