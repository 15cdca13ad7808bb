"""Stationary and scripted mobility models.

These are used by tests, examples and the Fig 9 single-source scenario
where deterministic geometry makes results easy to reason about.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.terrain import Point

__all__ = ["Stationary", "PiecewiseLinear"]


class Stationary(MobilityModel):
    """A node that never moves."""

    __slots__ = ("point",)

    def __init__(self, point: Point) -> None:
        self.point = point

    def position(self, time: float) -> Point:
        return self.point

    def position_valid_until(self, time: float) -> float:
        return math.inf

    def speed_at(self, time: float, epsilon: float = 0.5) -> float:
        return 0.0


class PiecewiseLinear(MobilityModel):
    """Scripted trajectory through timestamped waypoints.

    Parameters
    ----------
    waypoints:
        Sequence of ``(time, point)`` pairs with strictly increasing times.
        Before the first waypoint the node sits at the first point; after
        the last it sits at the last point; in between it moves linearly.
    """

    __slots__ = ("_times", "_points")

    def __init__(self, waypoints: Sequence[Tuple[float, Point]]) -> None:
        if not waypoints:
            raise ConfigurationError("PiecewiseLinear needs at least one waypoint")
        times = [t for t, _ in waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("waypoint times must be strictly increasing")
        self._times: List[float] = list(times)
        self._points: List[Point] = [p for _, p in waypoints]

    def position(self, time: float) -> Point:
        times, points = self._times, self._points
        if time <= times[0]:
            return points[0]
        if time >= times[-1]:
            return points[-1]
        # Walk to the surrounding pair (few waypoints; linear scan is fine).
        for index in range(len(times) - 1):
            if times[index] <= time <= times[index + 1]:
                span = times[index + 1] - times[index]
                fraction = (time - times[index]) / span
                return points[index].interpolate(points[index + 1], fraction)
        return points[-1]  # unreachable, kept for safety

    def position_valid_until(self, time: float) -> float:
        times, points = self._times, self._points
        if time >= times[-1]:
            return math.inf
        if time < times[0]:
            # Parked at the first point until the trajectory starts.
            end, segment = times[0], 0
        else:
            # Segment selection mirrors position(): at an exact waypoint
            # time the *earlier* segment (fraction 1.0) is the one sampled.
            segment = bisect.bisect_right(times, time) - 1
            if segment > 0 and times[segment] == time:
                segment -= 1
            end = time
        # Runs of equal waypoints (e.g. a replayed trace of a paused node)
        # pin the position through every segment of the run.
        while segment + 1 < len(points) and points[segment + 1] == points[segment]:
            end = times[segment + 1]
            segment += 1
        if segment == len(points) - 1:
            return math.inf  # constant through the final waypoint: parked forever
        return end
