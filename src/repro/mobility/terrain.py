"""Terrain geometry: points and the rectangular flatland of the evaluation.

The paper simulates 50 peers on a 1500 m x 1500 m flat terrain.  This module
provides the small amount of 2-D geometry the mobility models and the disc
connectivity model need.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from repro.errors import ConfigurationError

__all__ = ["Point", "Terrain"]


class Point(NamedTuple):
    """An immutable 2-D point in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """Point halfway between ``self`` and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def interpolate(self, other: "Point", fraction: float) -> "Point":
        """Point at ``fraction`` of the way from ``self`` to ``other``.

        ``fraction`` 0 returns ``self``; 1 returns ``other``.  Values outside
        [0, 1] extrapolate along the same line.
        """
        return Point(
            self.x + (other.x - self.x) * fraction,
            self.y + (other.y - self.y) * fraction,
        )


class Terrain:
    """Axis-aligned rectangular terrain with the origin at (0, 0).

    Parameters
    ----------
    width, height:
        Dimensions in metres; both must be positive.
    """

    def __init__(self, width: float, height: float) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(
                f"terrain dimensions must be positive, got {width!r} x {height!r}"
            )
        self.width = float(width)
        self.height = float(height)

    @property
    def area(self) -> float:
        """Terrain area in square metres."""
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        """Length of the terrain diagonal in metres."""
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> Point:
        """Geometric centre of the terrain."""
        return Point(self.width / 2.0, self.height / 2.0)

    def contains(self, point: Point) -> bool:
        """``True`` if ``point`` lies inside the terrain (borders included)."""
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.height

    def random_point(self, rng: random.Random) -> Point:
        """Draw a uniformly random point inside the terrain."""
        return Point(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Terrain({self.width:.0f}m x {self.height:.0f}m)"
