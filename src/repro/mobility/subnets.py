"""Subnet grid: the spatial neighbourhoods behind the paper's PMR metric.

Eq. 4.2.5 of the paper defines the *peer moving rate* from ``N_m``, "the
number of times a node has moved (from one subnet to another)" during a
coefficient period.  The paper never defines its subnets, so we partition
the terrain into a regular grid of square cells; a "move" is a cell
crossing.  This preserves the signal PMR integrates — how often a node
changes neighbourhood — which is all the relay-selection criterion uses.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.terrain import Point, Terrain

__all__ = ["SubnetGrid", "SubnetTracker"]


class SubnetGrid:
    """Regular grid of square subnet cells over a terrain.

    Parameters
    ----------
    terrain:
        The terrain to partition.
    cell_size:
        Side length of each cell in metres.  A sensible default is the radio
        range, so crossing a cell roughly means a new radio neighbourhood.
    """

    def __init__(self, terrain: Terrain, cell_size: float) -> None:
        if not cell_size > 0:  # NaN fails too
            raise ConfigurationError(f"cell_size must be positive, got {cell_size!r}")
        self.terrain = terrain
        self.cell_size = float(cell_size)
        self.cols = max(1, math.ceil(terrain.width / cell_size))
        self.rows = max(1, math.ceil(terrain.height / cell_size))

    @property
    def cell_count(self) -> int:
        """Total number of cells in the grid."""
        return self.rows * self.cols

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """Return the ``(col, row)`` cell containing ``point``.

        Points outside the terrain are clamped to the border cells.
        """
        col = min(self.cols - 1, max(0, int(point.x // self.cell_size)))
        row = min(self.rows - 1, max(0, int(point.y // self.cell_size)))
        return (col, row)


class SubnetTracker:
    """Counts subnet crossings of one node by sampling its trajectory.

    The coefficient tracker calls :meth:`crossings_between` once per
    coefficient period; the trajectory is sampled every ``sample_interval``
    seconds inside the window and cell changes are counted.
    """

    __slots__ = ("grid", "mobility", "sample_interval")

    def __init__(
        self,
        grid: SubnetGrid,
        mobility: MobilityModel,
        sample_interval: float = 5.0,
    ) -> None:
        if not sample_interval > 0:  # NaN fails too
            raise ConfigurationError(
                f"sample_interval must be positive, got {sample_interval!r}"
            )
        self.grid = grid
        self.mobility = mobility
        self.sample_interval = float(sample_interval)

    def crossings_between(self, start: float, end: float) -> int:
        """Number of cell crossings observed in ``[start, end]``."""
        if end <= start:
            return 0
        crossings = 0
        previous = self.grid.cell_of(self.mobility.position(start))
        time = start + self.sample_interval
        while time < end:
            cell = self.grid.cell_of(self.mobility.position(time))
            if cell != previous:
                crossings += 1
                previous = cell
            time += self.sample_interval
        final_cell = self.grid.cell_of(self.mobility.position(end))
        if final_cell != previous:
            crossings += 1
        return crossings
