"""Reference-point group mobility (RPGM).

Squads, convoys and tour groups do not move independently: members orbit
a shared *reference point* that itself follows some group trajectory.
This is the natural mobility for the paper's battlefield scenario —
soldiers move with their squad, squads roam the terrain.

Implementation: the group leader is any :class:`MobilityModel` (usually a
:class:`~repro.mobility.waypoint.RandomWaypoint`); each member holds a
fixed random offset plus a small independent jitter walk around the
reference point, clamped to the terrain.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.terrain import Point, Terrain

__all__ = ["GroupMember", "make_group"]


class GroupMember(MobilityModel):
    """One member of a mobility group.

    Parameters
    ----------
    terrain:
        The terrain (member positions are clamped to it).
    reference:
        The group's shared reference trajectory.
    rng:
        Private random stream of this member.
    spread:
        Maximum distance of the member's home offset from the reference
        point, metres.
    jitter:
        Amplitude of the member's slow oscillation around its home
        offset, metres (0 disables it).
    jitter_period:
        Period of the oscillation, seconds.
    """

    __slots__ = (
        "terrain",
        "reference",
        "spread",
        "jitter",
        "jitter_period",
        "_offset_x",
        "_offset_y",
        "_phase_x",
        "_phase_y",
    )

    def __init__(
        self,
        terrain: Terrain,
        reference: MobilityModel,
        rng: random.Random,
        spread: float = 100.0,
        jitter: float = 20.0,
        jitter_period: float = 120.0,
    ) -> None:
        if spread < 0 or jitter < 0:
            raise ConfigurationError("spread and jitter must be >= 0")
        if jitter_period <= 0:
            raise ConfigurationError(
                f"jitter_period must be positive, got {jitter_period!r}"
            )
        self.terrain = terrain
        self.reference = reference
        self.spread = float(spread)
        self.jitter = float(jitter)
        self.jitter_period = float(jitter_period)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = spread * math.sqrt(rng.random())  # uniform over the disc
        self._offset_x = distance * math.cos(angle)
        self._offset_y = distance * math.sin(angle)
        self._phase_x = rng.uniform(0.0, 2.0 * math.pi)
        self._phase_y = rng.uniform(0.0, 2.0 * math.pi)

    def position(self, time: float) -> Point:
        """Reference point + home offset + slow sinusoidal jitter."""
        anchor = self.reference.position(time)
        omega = 2.0 * math.pi / self.jitter_period
        wobble_x = self.jitter * math.sin(omega * time + self._phase_x)
        wobble_y = self.jitter * math.sin(omega * time + self._phase_y)
        return self.terrain.clamp(
            Point(
                anchor.x + self._offset_x + wobble_x,
                anchor.y + self._offset_y + wobble_y,
            )
        )

    def position_valid_until(self, time: float) -> float:
        """With jitter the member wobbles every instant; without it the
        member is pinned exactly while the reference point is (the offset
        arithmetic is deterministic, so equal anchors give equal positions).
        """
        if self.jitter > 0.0:
            return time
        return self.reference.position_valid_until(time)


def make_group(
    terrain: Terrain,
    reference: MobilityModel,
    rng: random.Random,
    size: int,
    spread: float = 100.0,
    jitter: float = 20.0,
    jitter_period: float = 120.0,
) -> List[GroupMember]:
    """Create ``size`` members sharing one reference trajectory."""
    if size < 1:
        raise ConfigurationError(f"group size must be >= 1, got {size!r}")
    return [
        GroupMember(terrain, reference, rng, spread, jitter, jitter_period)
        for _ in range(size)
    ]
