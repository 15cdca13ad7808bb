"""Random-walk (Brownian-style) mobility.

The classic alternative to random waypoint: the node picks a random
direction and speed, walks for a fixed epoch, then turns.  Unlike random
waypoint it has no central-density bias, which makes it the right
sensitivity check for results that might secretly depend on waypoint's
centre-crowding (see the mobility ablation).

Boundary handling is reflective: a node hitting the terrain edge bounces
like a billiard ball, the standard choice for this model.

A walker draws its origin and first epoch at build; in a run shorter
than one epoch it never draws again, so it holds its generator only
once it turns (``repro.sim.rng.RandomStreams.parked``).
"""

from __future__ import annotations

import bisect
import math
from typing import List, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.terrain import Point, Terrain
from repro.sim.rng import Stream, seeded

__all__ = ["RandomWalk"]


class _Epoch(NamedTuple):
    """One straight (possibly reflected) walking epoch."""

    start_time: float
    end_time: float
    origin: Point
    velocity_x: float
    velocity_y: float


def _reflect(value: float, limit: float) -> float:
    """Fold an unbounded coordinate back into [0, limit] (billiard)."""
    if limit <= 0:
        return 0.0
    period = 2.0 * limit
    value = math.fmod(value, period)
    if value < 0:
        value += period
    if value > limit:
        value = period - value
    return value


class RandomWalk(MobilityModel):
    """Random-walk trajectory with reflective terrain boundaries.

    Parameters
    ----------
    terrain:
        The flatland the node roams in.
    seed:
        Seed of this node's private stream
        (:meth:`~repro.sim.rng.RandomStreams.parked`).  The origin and the
        first epoch are drawn here, from a generator that is then dropped;
        the second epoch rebuilds it from the seed.
    speed_min, speed_max:
        Uniform speed range in m/s for each epoch.
    epoch:
        Seconds between direction changes.
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
        "epoch",
        "_epochs",
        "_epoch_starts",
    )

    def __init__(
        self,
        terrain: Terrain,
        seed: int,
        speed_min: float = 1.0,
        speed_max: float = 5.0,
        epoch: float = 60.0,
        start: Optional[Point] = None,
    ) -> None:
        if speed_min <= 0 or speed_max < speed_min:
            raise ConfigurationError(
                f"need 0 < speed_min <= speed_max, got [{speed_min!r}, {speed_max!r}]"
            )
        if epoch <= 0:
            raise ConfigurationError(f"epoch must be positive, got {epoch!r}")
        self.terrain = terrain
        self._seed = seed
        self._rng: Optional[Stream] = None
        self._drew_origin = start is None
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.epoch = float(epoch)
        rng = seeded(seed)
        origin = start if start is not None else terrain.random_point(rng)
        if not terrain.contains(origin):
            raise ConfigurationError(f"start point {origin} is outside the terrain")
        self._epochs: List[_Epoch] = [self._make_epoch(0.0, origin, rng)]
        self._epoch_starts: List[float] = [0.0]

    @property
    def stream(self) -> Stream:
        """The walker's generator: rebuilt from its seed on first use, with
        the build-time calls repeated, so it continues where the build left it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = seeded(self._seed)
            if self._drew_origin:
                self.terrain.random_point(rng)
            self._make_epoch(0.0, self._epochs[0].origin, rng)
        return rng

    def _make_epoch(self, start_time: float, origin: Point, rng: Stream) -> _Epoch:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(self.speed_min, self.speed_max)
        return _Epoch(
            start_time,
            start_time + self.epoch,
            origin,
            speed * math.cos(angle),
            speed * math.sin(angle),
        )

    def _extend_to(self, time: float) -> None:
        last = self._epochs[-1]
        while last.end_time <= time:
            end_position = self._position_in_epoch(last, last.end_time)
            last = self._make_epoch(last.end_time, end_position, self.stream)
            self._epochs.append(last)
            self._epoch_starts.append(last.start_time)

    def _position_in_epoch(self, epoch: _Epoch, time: float) -> Point:
        elapsed = time - epoch.start_time
        raw_x = epoch.origin.x + epoch.velocity_x * elapsed
        raw_y = epoch.origin.y + epoch.velocity_y * elapsed
        return Point(
            _reflect(raw_x, self.terrain.width),
            _reflect(raw_y, self.terrain.height),
        )

    def position(self, time: float) -> Point:
        """Node position at simulation time ``time`` (clamped at t=0)."""
        if time <= 0.0:
            return self._epochs[0].origin
        self._extend_to(time)
        index = bisect.bisect_right(self._epoch_starts, time) - 1
        return self._position_in_epoch(self._epochs[index], time)

    def position_valid_until(self, time: float) -> float:
        """A walker never pauses (``speed_min > 0``): no window beyond ``time``."""
        return 0.0 if time <= 0.0 else time

    def speed_at(self, time: float, epsilon: float = 0.5) -> float:
        """Exact instantaneous speed (constant within an epoch)."""
        if time <= 0.0:
            time = 0.0
        self._extend_to(time)
        index = bisect.bisect_right(self._epoch_starts, time) - 1
        epoch = self._epochs[index]
        return math.hypot(epoch.velocity_x, epoch.velocity_y)
