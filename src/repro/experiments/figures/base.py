"""Figure data containers and the shared parameter-sweep engine.

Fig 7 (traffic) and Fig 8 (latency) plot different metrics of the *same*
sweeps, so the sweep engine returns full :class:`SimulationResult` objects
keyed by ``(spec, x)``; the figure modules extract their column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.runner import SimulationResult
from repro.metrics.report import format_table

__all__ = ["FigureData", "run_axis_sweep", "extract_series"]

#: Config fields a figure may sweep.
_SWEEPABLE = {
    "update_interval",
    "query_interval",
    "cache_num",
    "ttl_rpcc",
    "n_peers",
    "stable_fraction",
    "ttr",
    "ttn",
    "ttp",
}


@dataclass
class FigureData:
    """One reproduced figure: x values and one y series per strategy."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def format(self) -> str:
        """Render the figure as the table of rows the paper plots."""
        headers = [self.x_label] + list(self.series)
        rows = []
        for index, x_value in enumerate(self.x_values):
            row: List[object] = [x_value]
            for spec in self.series:
                row.append(self.series[spec][index])
            rows.append(row)
        heading = f"{self.figure_id}: {self.title}  (y = {self.y_label})"
        return format_table(headers, rows, title=heading)

    def value(self, spec: str, x: float) -> float:
        """Look up one y value by strategy and x.

        The x lookup is float-tolerant (``math.isclose``) so an axis
        value that went through arithmetic — ``1.5 * 60`` vs ``90.0000…1``
        — still finds its column.
        """
        for index, candidate in enumerate(self.x_values):
            if math.isclose(candidate, x, rel_tol=1e-9, abs_tol=1e-12):
                return self.series[spec][index]
        raise ConfigurationError(
            f"{self.figure_id}: no x value near {x!r}; have {self.x_values}"
        )

    def to_csv(self) -> str:
        """Serialize the figure as CSV (x column + one column per series)."""
        header = [self.x_label] + list(self.series)
        lines = [",".join(header)]
        for index, x_value in enumerate(self.x_values):
            row = [repr(x_value)]
            for spec in self.series:
                row.append(repr(self.series[spec][index]))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_csv())

    def plot(self, width: int = 64, height: int = 16, log_y: bool = False) -> str:
        """Render the figure as an ASCII chart (Fig 8 wants ``log_y``)."""
        from repro.viz.ascii import ascii_chart

        return ascii_chart(
            self.x_values,
            self.series,
            width=width,
            height=height,
            log_y=log_y,
            title=f"{self.figure_id}: {self.title}",
            y_label=self.y_label,
        )


def run_axis_sweep(
    config: SimulationConfig,
    axis: str,
    values: Sequence[float],
    specs: Sequence[str],
    scenario: str = "standard",
    executor: Optional[CampaignExecutor] = None,
) -> Dict[Tuple[str, float], SimulationResult]:
    """Run every (strategy, axis value) combination.

    Runs go through ``executor`` (default: a fresh serial, store-less
    :class:`CampaignExecutor`), so a parallel or store-backed executor
    accelerates every figure without the figures knowing.  Duplicate axis
    values are collapsed — the same ``(spec, value)`` point is simulated
    once no matter how often the caller repeats it.
    """
    if axis not in _SWEEPABLE:
        raise ConfigurationError(
            f"cannot sweep {axis!r}; choose from {sorted(_SWEEPABLE)}"
        )
    if executor is None:
        executor = CampaignExecutor()
    unique_values: List[float] = []
    for value in values:
        if value not in unique_values:
            unique_values.append(value)
    points = [
        (spec, value, config.with_overrides(**{axis: type(getattr(config, axis))(value)}))
        for value in unique_values
        for spec in specs
    ]
    outcomes = executor.run_many(
        [(point_config, spec, scenario) for spec, value, point_config in points]
    )
    return {
        (spec, value): result
        for (spec, value, _), result in zip(points, outcomes)
    }


def extract_series(
    results: Dict[Tuple[str, float], SimulationResult],
    specs: Sequence[str],
    values: Sequence[float],
    metric: Callable[[SimulationResult], float],
) -> Dict[str, List[float]]:
    """Project sweep results onto one y series per strategy."""
    return {
        spec: [metric(results[(spec, value)]) for value in values] for spec in specs
    }
