"""The paper's evaluation as data: eight figure panels, one campaign.

* Fig 7 (traffic) and Fig 8 (latency) plot two metrics of the same three
  sweeps — update interval, query interval and cache number — for the
  six compared strategies, everything else at Table 1 defaults.  Expected
  shapes: pull far above everything in traffic, RPCC-WC/DC lowest,
  RPCC-SC between; push's latency near half its invalidation interval and
  far above the rest, RPCC at the pull level.
* Fig 9 (Section 5.3) sweeps RPCC(SC)'s invalidation TTL from 1 to 7 hops
  in the single-source scenario, with simple push and pull run once at
  the base config as flat references.  At TTL 1 the relay population is
  tiny and RPCC approaches pull; at TTL 7 it approaches push.

:data:`PANELS` lists the eight panels, each a
:class:`~repro.experiments.sweep.Sweep`; :func:`reproduce` runs every
cell of the named panels as one :meth:`CampaignExecutor.run_many` batch,
so a point several panels share (Fig 7 and 8 read the same sweeps, and
the Table 1 default lies on all three axes) simulates once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.runner import STRATEGY_SPECS, SimulationResult
from repro.experiments.sweep import Sweep
from repro.metrics.report import format_table

__all__ = ["FigureData", "Panel", "PANELS", "reproduce"]


@dataclass
class FigureData:
    """One reproduced figure: x values and one y series per strategy."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def rows(self) -> List[List[float]]:
        """One row per x value: the x, then each series' y."""
        rows = []
        for index, x_value in enumerate(self.x_values):
            row: List[float] = [x_value]
            for spec in self.series:
                row.append(self.series[spec][index])
            rows.append(row)
        return rows

    def format(self) -> str:
        """Render the figure as the table of rows the paper plots."""
        heading = f"{self.figure_id}: {self.title}  (y = {self.y_label})"
        return format_table([self.x_label, *self.series], self.rows(), title=heading)

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
        lines = [",".join([self.x_label, *self.series])]
        lines += [",".join(map(repr, row)) for row in self.rows()]
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


@dataclass(frozen=True)
class Panel:
    """One panel: ``sweep`` crosses the swept config field (its first axis;
    the values are the x column as printed, each cast to the field's type
    for the run) with the plotted specs, and ``references`` holds the
    specs run once at the base config and drawn flat."""

    figure_id: str
    title: str
    sweep: Sweep
    x_label: str
    metric: Callable[[SimulationResult], float]
    y_label: str
    log_y: bool = False
    references: Optional[Sweep] = None

    @property
    def axis(self) -> str:
        """The swept config field."""
        return next(iter(self.sweep.axes))


def _transmissions(result: SimulationResult) -> float:
    return float(result.summary.transmissions)


def _hit_latency(result: SimulationResult) -> float:
    # Cache-hit latency isolates the consistency check the paper measures;
    # miss queries exercise the strategy-independent fetch path instead.
    return result.summary.mean_hit_latency


def _sweep(axis: str, values: Tuple[float, ...], **axes: Tuple[str, ...]) -> Sweep:
    return Sweep(SimulationConfig(), {axis: values, "spec": STRATEGY_SPECS, **axes})


_TRAFFIC = (_transmissions, "transmissions")
_LATENCY = (_hit_latency, "mean hit latency (s)", True)  # log y, as the paper
_UPDATE = (_sweep("update_interval", (30.0, 60.0, 120.0, 240.0, 480.0)), "update interval (s)")
_QUERY = (_sweep("query_interval", (5.0, 10.0, 20.0, 40.0, 80.0)), "query interval (s)")
_CACHE = (_sweep("cache_num", (2, 5, 10, 15, 20)), "cache number")
_SINGLE_SOURCE = ("single_source",)
_TTL = (_sweep("ttl_rpcc", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), spec=("rpcc-sc",),
               scenario=_SINGLE_SOURCE), "invalidation TTL (hops)")
_REFERENCES = dict(references=Sweep(SimulationConfig(), {"spec": ("push", "pull"),
                                                          "scenario": _SINGLE_SOURCE}))

#: The evaluation section, panel by panel; the key is the CLI command
#: and the CSV file name.
PANELS: Dict[str, Panel] = {
    "fig7a": Panel("Fig 7(a)", "network traffic vs update interval", *_UPDATE, *_TRAFFIC),
    "fig7b": Panel("Fig 7(b)", "network traffic vs request interval", *_QUERY, *_TRAFFIC),
    "fig7c": Panel("Fig 7(c)", "network traffic vs cache number", *_CACHE, *_TRAFFIC),
    "fig8a": Panel("Fig 8(a)", "query latency vs update interval", *_UPDATE, *_LATENCY),
    "fig8b": Panel("Fig 8(b)", "query latency vs request interval", *_QUERY, *_LATENCY),
    "fig8c": Panel("Fig 8(c)", "query latency vs cache number", *_CACHE, *_LATENCY),
    "fig9a": Panel("Fig 9(a)", "network traffic vs invalidation TTL", *_TTL, *_TRAFFIC,
                   **_REFERENCES),
    "fig9b": Panel("Fig 9(b)", "query latency vs invalidation TTL", *_TTL, *_LATENCY,
                   **_REFERENCES),
}

#: ``(panel name, spec, x)``; ``x`` is ``None`` for a reference run.
Point = Tuple[str, str, Optional[float]]


def reproduce(
    names: Sequence[str],
    config: SimulationConfig,
    executor: Optional[CampaignExecutor] = None,
    values: Optional[Sequence[float]] = None,
) -> Tuple[Dict[str, FigureData], Dict[Point, SimulationResult]]:
    """Run the named panels of :data:`PANELS` as one batch.

    Returns ``(figures, results)``: the :class:`FigureData` of each name,
    and every run by :data:`Point`.  ``values``, when given, replaces the
    swept values of every named panel.  Runs go through ``executor``
    (default: a fresh serial, store-less :class:`CampaignExecutor`), which
    simulates each distinct ``(config, spec, scenario)`` once, in parallel
    or from its store as it is set up.
    """
    unknown = [name for name in names if name not in PANELS]
    if unknown:
        raise ConfigurationError(
            f"unknown figure panel(s) {unknown}; choose from {list(PANELS)}"
        )
    sweeps, named = {}, []
    for name in names:
        panel = PANELS[name]
        sweep = replace(panel.sweep, base=config)
        sweeps[name] = sweep if values is None else sweep.with_axis(panel.axis, values)
        references = replace(panel.references, base=config).cells() if panel.references else []
        named += [(name, cell) for cell in sweeps[name].cells() + references]
    if executor is None:
        executor = CampaignExecutor()
    outcomes = executor.run_many([cell.task for _, cell in named])
    results = {
        (name, cell.spec, cell.values.get(PANELS[name].axis)): result
        for (name, cell), result in zip(named, outcomes)
    }

    figures = {}
    for name in names:
        panel, sweep = PANELS[name], sweeps[name]
        xs = list(sweep.axes[panel.axis])
        series = {
            spec: [panel.metric(results[(name, spec, x)]) for x in xs]
            for spec in sweep.axes["spec"]
        }
        for spec in panel.references.axes["spec"] if panel.references else ():
            series[spec] = [panel.metric(results[(name, spec, None)])] * len(xs)
        figures[name] = FigureData(
            panel.figure_id, panel.title, panel.x_label, panel.y_label, xs, series
        )
    return figures, results
