"""Random-waypoint mobility [Joh96], the model used in the paper's evaluation.

Each node repeats: pick a uniformly random destination in the terrain, move
towards it in a straight line at a speed drawn uniformly from
``[speed_min, speed_max]``, then pause for ``pause_time`` seconds.

The trajectory is generated *lazily*: legs are appended only as far as the
latest queried time, and every leg is derived deterministically from the
node's private RNG stream, so ``position(t)`` is a pure, reproducible
function of ``t``.  The origin and the first leg are drawn at build; the
generator is held only from the second leg on
(``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import bisect
from typing import List, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.terrain import Point, Terrain
from repro.sim.rng import Stream, seeded

__all__ = ["Leg", "RandomWaypoint"]


class Leg(NamedTuple):
    """One straight-line movement segment followed by a pause.

    ``start_time .. arrive_time`` is the moving phase;
    ``arrive_time .. end_time`` is the pause at ``destination``.
    """

    start_time: float
    arrive_time: float
    end_time: float
    origin: Point
    destination: Point

    def position(self, time: float) -> Point:
        """Position within this leg; assumes ``start_time <= time``."""
        if time >= self.arrive_time:
            return self.destination
        duration = self.arrive_time - self.start_time
        if duration <= 0:
            return self.destination
        fraction = (time - self.start_time) / duration
        return self.origin.interpolate(self.destination, fraction)

    @property
    def speed(self) -> float:
        """Speed during the moving phase in m/s (0 for a degenerate leg)."""
        duration = self.arrive_time - self.start_time
        if duration <= 0:
            return 0.0
        return self.origin.distance_to(self.destination) / duration


class RandomWaypoint(MobilityModel):
    """Random-waypoint trajectory of a single node.

    Parameters
    ----------
    terrain:
        The flatland the node roams in.
    seed:
        Seed of this node's private stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The origin and the
        first leg are drawn here, from a generator that is then dropped;
        the second leg rebuilds it from the seed.
    speed_min, speed_max:
        Uniform speed range in m/s.  The common MANET evaluation default of
        1-19 m/s is used when not overridden.
    pause_time:
        Pause at each waypoint in seconds.
    start:
        Optional fixed starting point; drawn uniformly when omitted.
    """

    __slots__ = (
        "terrain",
        "_seed",
        "_rng",
        "_drew_origin",
        "speed_min",
        "speed_max",
        "pause_time",
        "_legs",
        "_leg_starts",
    )

    def __init__(
        self,
        terrain: Terrain,
        seed: int,
        speed_min: float = 1.0,
        speed_max: float = 19.0,
        pause_time: float = 10.0,
        start: Optional[Point] = None,
    ) -> None:
        if speed_min <= 0 or speed_max < speed_min:
            raise ConfigurationError(
                f"need 0 < speed_min <= speed_max, got [{speed_min!r}, {speed_max!r}]"
            )
        if pause_time < 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {pause_time!r}")
        self.terrain = terrain
        self._seed = seed
        self._rng: Optional[Stream] = None
        self._drew_origin = start is None
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause_time = float(pause_time)
        rng = seeded(seed)
        origin = start if start is not None else terrain.random_point(rng)
        if not terrain.contains(origin):
            raise ConfigurationError(f"start point {origin} is outside the terrain")
        self._legs: List[Leg] = [self._make_leg(0.0, origin, rng)]
        self._leg_starts: List[float] = [0.0]

    @property
    def stream(self) -> Stream:
        """The node's generator: rebuilt from its seed on first use, with
        the build-time calls repeated, so it continues where the build left it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = seeded(self._seed)
            if self._drew_origin:
                self.terrain.random_point(rng)
            self._make_leg(0.0, self._legs[0].origin, rng)
        return rng

    def _make_leg(self, start_time: float, origin: Point, rng: Stream) -> Leg:
        destination = self.terrain.random_point(rng)
        speed = rng.uniform(self.speed_min, self.speed_max)
        travel_time = origin.distance_to(destination) / speed
        arrive_time = start_time + travel_time
        return Leg(start_time, arrive_time, arrive_time + self.pause_time, origin, destination)

    def _extend_to(self, time: float) -> None:
        last = self._legs[-1]
        while last.end_time <= time:
            last = self._make_leg(last.end_time, last.destination, self.stream)
            self._legs.append(last)
            self._leg_starts.append(last.start_time)

    def position(self, time: float) -> Point:
        """Node position at simulation time ``time`` (clamped at t=0)."""
        if time <= 0.0:
            return self._legs[0].origin
        self._extend_to(time)
        index = bisect.bisect_right(self._leg_starts, time) - 1
        return self._legs[index].position(time)

    def position_valid_until(self, time: float) -> float:
        """Pause segments pin the position until the leg's ``end_time``.

        While moving the position changes every instant, so the window
        collapses to ``time`` itself.  The pause window includes the next
        leg's departure instant: at ``end_time`` the node is still at the
        waypoint (the new leg starts there with fraction 0).
        """
        if time <= 0.0:
            time = 0.0  # parked at the origin until legs start at t=0
        self._extend_to(time)
        index = bisect.bisect_right(self._leg_starts, time) - 1
        leg = self._legs[index]
        if time >= leg.arrive_time or leg.arrive_time <= leg.start_time:
            return leg.end_time
        return time

    def speed_at(self, time: float, epsilon: float = 0.5) -> float:
        """Exact instantaneous speed: the leg speed while moving, 0 while paused."""
        if time <= 0.0:
            time = 0.0
        self._extend_to(time)
        index = bisect.bisect_right(self._leg_starts, time) - 1
        leg = self._legs[index]
        if time < leg.arrive_time:
            return leg.speed
        return 0.0

    @property
    def generated_legs(self) -> int:
        """Number of legs materialised so far (testing/diagnostics)."""
        return len(self._legs)
