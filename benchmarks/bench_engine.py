"""Event-engine microbenchmarks.

These benchmarks time the discrete-event kernel in isolation — no
network, no protocol — in the shapes a simulation gives it:

* ``engine_schedule_run_100k`` — bulk schedule + run of 100k one-shot
  events with delays from zero to hours, so the heap is deep and mixed;
* ``engine_post_run_100k`` — the pooled fire-and-forget fast path
  (``Simulator.post``), the shape every network delivery takes;
* ``engine_timer_churn_50k`` — the paper's TTR/TTP renewal workload:
  1 000 long-lived timers each rescheduled 50 times, interleaved with
  clock advances.  Every renewal of a pending timer is a cancel + push,
  so this row also pays for the tombstones it strands;
* ``engine_cancel_sweep_100k`` — cancel-heavy churn that keeps
  tombstone compaction busy, so its cost is gated too.

All benchmarks are harness-timed (``measure``), ms-scale, and
deterministic: fixed iteration counts, no RNG, no wall-clock reads
inside the workload.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.sim.engine import Simulator

#: Timers alive at once in the churn benchmarks (the paper's cache-peer
#: population at mid scale) and renewals applied to each.
CHURN_TIMERS = 1_000
CHURN_ROUNDS = 50


def _noop() -> None:
    return None


def _bench_schedule_run_100k() -> None:
    sim = Simulator()
    # Delays cycle through zero, sub-minute, minute-scale and hours-ahead
    # bands; the modulus keeps the mix fixed across runs.
    for index in range(100_000):
        band = index % 5
        if band == 0:
            delay = 0.0
        elif band == 1:
            delay = float(index % 251) * 0.25
        elif band == 2:
            delay = 60.0 + float(index % 97)
        elif band == 3:
            delay = 5_000.0 + float(index % 89) * 10.0
        else:
            delay = 20_000.0 + float(index % 83) * 100.0
        sim.schedule(delay, _noop)
    sim.run()


def _bench_post_run_100k() -> None:
    sim = Simulator()
    post = sim.post
    # Waves of short-delay posts with runs in between keep the freelist
    # hot: every wave after the first reuses pooled handles.
    for wave in range(10):
        for index in range(10_000):
            post(float(index % 400) * 0.05, _noop)
        sim.run()


def _bench_timer_churn() -> None:
    sim = Simulator()
    handles = [
        sim.schedule(10.0 + (i % 40) * 0.25, _noop) for i in range(CHURN_TIMERS)
    ]
    reschedule = sim.reschedule
    for _ in range(CHURN_ROUNDS):
        for index in range(CHURN_TIMERS):
            handles[index] = reschedule(handles[index], 10.0)
        sim.run_until(sim.now + 1.0)
    for handle in handles:
        handle.cancel()
    sim.run()


def _bench_cancel_sweep_100k() -> None:
    sim = Simulator()
    pending = None
    for index in range(100_000):
        fresh = sim.schedule(100.0 + float(index % 1_000) * 0.25, _noop)
        if pending is not None:
            pending.cancel()
        pending = fresh
    sim.run()


def engine_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated engine benchmark."""
    return [
        ("engine_schedule_run_100k", _bench_schedule_run_100k),
        ("engine_post_run_100k", _bench_post_run_100k),
        (f"engine_timer_churn_{CHURN_TIMERS * CHURN_ROUNDS // 1000}k",
         _bench_timer_churn),
        ("engine_cancel_sweep_100k", _bench_cancel_sweep_100k),
    ]
