"""Shared benchmark fixtures.

``bench_figures.py`` regenerates every figure of the paper's evaluation
at a reduced (but still 50-peer) scale: a 10-minute warm-up followed by
a 15-minute measured window instead of the paper's 5 hours.  The
*shapes* (who wins, by roughly what factor) are asserted; absolute
numbers are printed for comparison against EXPERIMENTS.md.

Every figure panel reads the one campaign of the session
(:func:`paper_campaign`): Fig 7 and Fig 8 read different metrics of the
same sweeps, and each point simulates once.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor, env_jobs
from repro.experiments.figures import PANELS, reproduce


def bench_config(**kwargs) -> SimulationConfig:
    """The reduced-scale benchmark configuration (Table 1 otherwise)."""
    defaults = dict(sim_time=900.0, warmup=600.0, seed=7)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


#: The executor behind the figure campaign.  Serial and store-less by
#: default; export ``REPRO_BENCH_JOBS=N`` to fan the runs out on a
#: multicore box (results are bit-identical).
_BENCH_EXECUTOR = CampaignExecutor(jobs=env_jobs("REPRO_BENCH_JOBS"))


@pytest.fixture(scope="session")
def paper_campaign():
    """Every panel of the evaluation from one batch: the ``(figures,
    results)`` of :func:`repro.experiments.figures.reproduce`."""
    return reproduce(tuple(PANELS), bench_config(), _BENCH_EXECUTOR)


def paired_ratio(base: Callable[[], object], arm: Callable[[], object],
                 pairs: int = 20) -> float:
    """Median over ``pairs`` back-to-back runs of ``arm``'s seconds / ``base``'s.

    The two halves of a pair run in alternating order, so a box that
    drifts between fast and slow states moves both together, and the
    median discards the pairs a burst of noise split.  One warm-up run
    of each goes first.
    """
    base()
    arm()
    ratios = []
    for index in range(pairs):
        seconds = {}
        for run in (base, arm) if index % 2 == 0 else (arm, base):
            started = time.perf_counter()
            run()
            seconds[run] = time.perf_counter() - started
        ratios.append(seconds[arm] / seconds[base])
    return statistics.median(ratios)
