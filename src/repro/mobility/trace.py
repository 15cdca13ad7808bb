"""Mobility traces: record a model's trajectory at a fixed sampling rate.

Traces serve three purposes in this reproduction:

* regression tests pin trajectories to catch accidental RNG reordering;
* examples dump traces for visual inspection;
* a recorded trace can be *replayed* as a mobility model of its own, which
  lets experiments re-run different protocols over identical movement.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear
from repro.mobility.terrain import Point

__all__ = ["MobilityTrace", "record_trace"]


class MobilityTrace:
    """A sampled trajectory: positions at ``start + k * interval``."""

    def __init__(self, start: float, interval: float, points: Sequence[Point]) -> None:
        if interval <= 0:
            raise ConfigurationError(f"trace interval must be positive, got {interval!r}")
        if not points:
            raise ConfigurationError("a trace needs at least one sample")
        self.start = float(start)
        self.interval = float(interval)
        self.points: List[Point] = list(points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def duration(self) -> float:
        """Time span covered by the trace in seconds."""
        return (len(self.points) - 1) * self.interval

    def timestamps(self) -> List[float]:
        """Sampling instants of the trace."""
        return [self.start + k * self.interval for k in range(len(self.points))]

    def total_distance(self) -> float:
        """Path length of the sampled trajectory in metres."""
        return sum(a.distance_to(b) for a, b in zip(self.points, self.points[1:]))

    def as_model(self) -> PiecewiseLinear:
        """Replay the trace as a :class:`PiecewiseLinear` mobility model.

        Runs of equal consecutive samples (a paused node) replay with full
        ``position_valid_until`` windows spanning the whole run, so the
        position ledger skips re-sampling them exactly as it did for the
        original trajectory.
        """
        waypoints: List[Tuple[float, Point]] = [
            (self.start + k * self.interval, point)
            for k, point in enumerate(self.points)
        ]
        return PiecewiseLinear(waypoints)


def record_trace(
    model: MobilityModel,
    duration: float,
    interval: float = 1.0,
    start: float = 0.0,
) -> MobilityTrace:
    """Sample ``model`` every ``interval`` seconds over ``[start, start+duration]``."""
    if duration < 0:
        raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
    samples = int(duration / interval) + 1
    points = [model.position(start + k * interval) for k in range(samples)]
    return MobilityTrace(start, interval, points)
