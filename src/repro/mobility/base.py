"""Mobility model interface.

A mobility model is a pure function of time: ``position(t)`` returns where
the node is at simulation time ``t``.  Models are *analytic* — they do not
depend on the event loop — which keeps the network layer free to sample
positions at arbitrary instants (e.g. exactly when a flood is forwarded).

Because trajectories are analytic, most models can also report *how long*
their current position stays put: a waypoint node mid-pause is pinned
until the pause ends, a stationary node forever, a trace replay until the
next distinct sample.  :meth:`MobilityModel.position_valid_until` exposes
that validity window; the network layer uses it to skip re-sampling (and
the topology layer to skip rebuilding connectivity) for nodes that
provably have not moved since the last snapshot.
"""

from __future__ import annotations

import abc

from repro.mobility.terrain import Point

__all__ = ["MobilityModel"]


class MobilityModel(abc.ABC):
    """Abstract trajectory of one node."""

    # One model per host: the shipped models declare their state as
    # slots.  A subclass that declares none simply keeps its ``__dict__``.
    __slots__ = ()

    @abc.abstractmethod
    def position(self, time: float) -> Point:
        """Return the node position at simulation time ``time`` (seconds)."""

    def position_valid_until(self, time: float) -> float:
        """Latest ``t' >= time`` with ``position(s) == position(time)`` for all
        ``s`` in ``[time, t']``.

        The returned window is a *guarantee*: every sample inside it
        compares equal (bit-identically) to ``position(time)``, so callers
        may cache the position and skip re-sampling until the window ends.
        It need not be maximal — the conservative default returns ``time``
        itself ("no guarantee beyond this instant"), which is always
        correct.  Models with analytic pause/stationary phases override
        this with the true segment boundary; see ``docs/API.md`` for the
        contract mobility authors must honour.
        """
        return time
