"""One way to declare, run and reduce a campaign.

A :class:`Sweep` is a base :class:`SimulationConfig` plus ordered axes:
config fields (``seed``, ``replacement_policy``, ``faults``,
``controller``, ``update_interval`` …), ``spec`` (required) and
``scenario`` (a catalog preset such as ``urban-grid``, or a placement
name such as ``single_source``).  :meth:`Sweep.cells` expands it;
the cells' tasks run as one :meth:`CampaignExecutor.run_many` batch, or
traced and checked through :func:`run_checked`; and :func:`aggregate`
groups the results by any subset of axes.  The figure
panels, matrix files, the chaos campaign and ``results/collect.py`` are
all sweeps (docs/API.md, "Sweeps").
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import run_key
from repro.experiments.runner import PLACEMENT_SCENARIOS, SimulationResult
from repro.scenarios.registry import SCENARIOS, parse_spec

__all__ = ["Cell", "Group", "Sweep", "aggregate", "run_checked"]

_FIELDS = frozenset(f.name for f in fields(SimulationConfig))


@dataclass(frozen=True)
class Cell:
    """One expanded point: its axis values as declared, and the run task."""

    values: Mapping[str, Any]
    config: SimulationConfig
    spec: str
    scenario: str  # the placement ``build_simulation`` gets

    @property
    def task(self) -> Tuple[SimulationConfig, str, str]:
        """The ``(config, spec, scenario)`` triple the executor runs."""
        return (self.config, self.spec, self.scenario)


@dataclass(frozen=True)
class Sweep:
    """A base config and ordered axes, ``{name: values}``."""

    base: SimulationConfig
    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        axes = {}
        for name, values in self.axes.items():
            if name not in _FIELDS and name not in ("spec", "scenario"):
                raise ConfigurationError(
                    f"unknown sweep axis {name!r}: a config field, 'spec' or 'scenario'"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"sweep axis {name!r} needs a non-empty list of values, got {values!r}"
                )
            axes[name] = tuple(values)
        if "spec" not in axes:
            raise ConfigurationError("a sweep needs a 'spec' axis")
        object.__setattr__(self, "axes", axes)

    @property
    def size(self) -> int:
        """Cells in the full cross product, before deduplication."""
        return math.prod(len(values) for values in self.axes.values())

    def with_axis(self, name: str, values: Sequence[Any]) -> "Sweep":
        """Replace axis ``name``'s values in place, or append it as the last axis."""
        return replace(self, axes={**self.axes, name: values})

    def cells(self) -> List[Cell]:
        """The cross product in axis order (the last axis varies fastest),
        keeping the first cell of each run key.

        A cell's config is the base, then its scenario preset's overrides,
        then its field axes; every name and value is resolved here, so a
        typo or a value a run cannot use fails before anything simulates.
        """
        for spec in self.axes["spec"]:
            parse_spec(spec)
        placed = {  # a scenario value as (config, placement)
            name: (self.base, name) if name in PLACEMENT_SCENARIOS
            else SCENARIOS.get(name).expand(self.base)
            for name in self.axes.get("scenario", ())
        }
        cells: List[Cell] = []
        seen = set()
        for point in itertools.product(*self.axes.values()):
            values = dict(zip(self.axes, point))
            config, scenario = placed.get(values.get("scenario"), (self.base, "standard"))
            overrides = {
                name: _coerce(config, name, value)
                for name, value in values.items() if name in _FIELDS
            }
            cell = Cell(values, config.with_overrides(**overrides), values["spec"], scenario)
            key = run_key(*cell.task)
            if key not in seen:
                seen.add(key)
                cells.append(cell)
        return cells


def _coerce(config: SimulationConfig, name: str, value: Any) -> Any:
    """A value for a numeric field cast to its type (anything but a number
    is refused, and an ``int`` field refuses a fractional value); a
    ``faults`` path loaded as its plan."""
    current = getattr(config, name)
    if type(current) in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{name} values must be numbers, got {value!r}")
        if type(current) is int and not float(value).is_integer():
            raise ConfigurationError(f"{name} values must be integers, got {value!r}")
        return type(current)(value)
    if name == "faults" and isinstance(value, (str, os.PathLike)):
        from repro.faults.plan import FaultPlan

        return FaultPlan.load(value)
    return value


def run_checked(cells: Sequence[Cell]) -> Tuple[List[SimulationResult], List[Any]]:
    """``(results, reports)`` of ``cells``, in cell order: each runs traced,
    serially and unstored (checker gating needs the event stream, which
    the store does not hold), and ``reports`` holds its
    :class:`~repro.obs.checker.CheckReport` against ``delta = config.ttp``.
    An unchecked sweep runs as ``executor.run_many([cell.task ...])``.
    """
    from repro.experiments.runner import build_simulation
    from repro.obs import ListSink, TraceBus, check_events

    results, reports = [], []
    for cell in cells:
        bus = TraceBus()
        sink = bus.add_sink(ListSink())
        try:
            results.append(build_simulation(*cell.task, trace=bus).run())
        finally:
            bus.close()
        reports.append(check_events(sink.events, delta=cell.config.ttp))
    return results, reports


@dataclass(frozen=True)
class Group:
    """The ``size`` cells sharing ``key`` (one value per grouping axis):
    each metric's per-cell values in cell order, and their mean."""

    key: Tuple[Any, ...]
    size: int
    values: Dict[str, List[float]]
    mean: Dict[str, float]


def aggregate(
    cells: Sequence[Cell], rows: Sequence[Mapping[str, float]], by: Sequence[str]
) -> List[Group]:
    """Group ``rows`` (one ``{metric: value}`` per cell) by the ``by`` axes,
    in order of first appearance: as deterministic as the expansion."""
    if len(cells) != len(rows):
        raise ConfigurationError(
            f"aggregate needs one row per cell ({len(cells)} cells, {len(rows)} rows)"
        )
    members: Dict[Tuple[Any, ...], List[Mapping[str, float]]] = {}
    for cell, row in zip(cells, rows):
        members.setdefault(tuple(cell.values[axis] for axis in by), []).append(row)
    groups = []
    for key, group in members.items():
        values = {metric: [row[metric] for row in group] for metric in group[0]}
        mean = {metric: sum(v) / len(v) for metric, v in values.items()}
        groups.append(Group(key, len(group), values, mean))
    return groups
