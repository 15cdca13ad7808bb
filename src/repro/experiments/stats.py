"""Multi-seed replication and summary statistics.

The paper plots single curves without error bars; this module makes the
run-to-run variance measurable.  `run_replicated` executes the same
configuration under several seeds and aggregates any scalar metric into a
mean, sample standard deviation, and a normal-approximation 95 %
confidence half-width — which EXPERIMENTS.md uses to flag the
high-variance Fig 9 TTL-1 point.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.runner import SimulationResult

__all__ = ["MetricStats", "aggregate", "run_replicated", "summarize_metric"]

#: Default scalar metrics pulled out of a result.
DEFAULT_METRICS: Dict[str, Callable[[SimulationResult], float]] = {
    "transmissions": lambda r: float(r.summary.transmissions),
    "mean_latency": lambda r: r.summary.mean_latency,
    "stale_ratio": lambda r: r.summary.stale_ratio,
    "violation_ratio": lambda r: r.summary.violation_ratio,
    "answered_ratio": lambda r: (
        r.summary.queries_answered / r.summary.queries_issued
        if r.summary.queries_issued
        else 0.0
    ),
    "mean_relay_count": lambda r: r.mean_relay_count,
}


@dataclass(frozen=True)
class MetricStats:
    """Aggregate of one scalar metric over replicated runs."""

    name: str
    samples: int
    mean: float
    stdev: float
    ci95: float

    @property
    def low(self) -> float:
        """Lower edge of the 95 % confidence interval."""
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        """Upper edge of the 95 % confidence interval."""
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:.4g} ± {self.ci95:.4g} (n={self.samples})"


def summarize_metric(name: str, values: Sequence[float]) -> MetricStats:
    """Aggregate raw samples into a :class:`MetricStats`."""
    if not values:
        raise ConfigurationError(f"no samples for metric {name!r}")
    mean = statistics.fmean(values)
    if len(values) > 1:
        stdev = statistics.stdev(values)
        ci95 = 1.96 * stdev / math.sqrt(len(values))
    else:
        stdev = 0.0
        ci95 = 0.0
    return MetricStats(name, len(values), mean, stdev, ci95)


def run_replicated(
    config: SimulationConfig,
    spec: str,
    seeds: Sequence[int],
    scenario: str = "standard",
    executor: Optional[CampaignExecutor] = None,
) -> List[SimulationResult]:
    """Run the same experiment once per seed.

    Seed replicas are independent runs, so a parallel ``executor``
    (``CampaignExecutor(jobs=N)``) fans them out across workers with
    bit-identical results; the default stays serial and store-less.
    """
    if not seeds:
        raise ConfigurationError("run_replicated needs at least one seed")
    if executor is None:
        executor = CampaignExecutor()
    return executor.run_many(
        [(config.with_overrides(seed=int(seed)), spec, scenario) for seed in seeds]
    )


def aggregate(
    results: Sequence[SimulationResult],
    metrics: Optional[Dict[str, Callable[[SimulationResult], float]]] = None,
) -> Dict[str, MetricStats]:
    """Aggregate the default (or given) metrics over replicated results."""
    if not results:
        raise ConfigurationError("aggregate needs at least one result")
    chosen = DEFAULT_METRICS if metrics is None else metrics
    return {
        name: summarize_metric(name, [extract(result) for result in results])
        for name, extract in chosen.items()
    }
