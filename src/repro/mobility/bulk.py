"""Bulk (struct-of-arrays) mobility kernels for the position ledger.

Each kernel evaluates one mobility model *family* for a whole population
in a few array operations per topology refresh, instead of a Python call
per node.  The kernels are exact: every float operation is applied in the
same order as the scalar model methods, so the produced positions and
validity deadlines are bit-identical to ``model.position(t)`` /
``model.position_valid_until(t)``.

Trajectory state that the models generate lazily (waypoint legs, walk
epochs) is still generated through the models themselves
(``_extend_to``), so the per-node RNG streams advance exactly as under
per-node ``position(t)`` calls and sampling a model next to its kernel
never drifts from it.  Per-node segment pointers only move forward —
refresh times are the simulation clock, which is monotonic.

Models outside the four shipped families (test stand-ins) fall back to
scalar sampling through the owning node, keeping the ledger correct for
arbitrary :class:`~repro.net.node.NetworkNode`
implementations.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint

__all__ = [
    "StationaryKernel",
    "WaypointKernel",
    "WalkKernel",
    "PiecewiseKernel",
    "FallbackKernel",
    "kernel_class_for",
]


class _Kernel:
    """Base: owns the ledger slots of its members."""

    def __init__(self) -> None:
        self.slots: List[int] = []
        self._slot_arr = np.empty(0, dtype=np.int64)

    def add(self, slot: int, member) -> None:
        self.slots.append(slot)
        self._members_add(member)

    def finalize(self) -> None:
        """Rebuild member arrays after new registrations."""
        self._slot_arr = np.asarray(self.slots, dtype=np.int64)

    def local_needs(self, need_mask: "np.ndarray") -> "np.ndarray":
        """Member-local indices whose validity window lapsed."""
        if not self.slots:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(need_mask[self._slot_arr])[0]

    def sample(self, now, local, x, y, valid_until) -> None:
        raise NotImplementedError


class StationaryKernel(_Kernel):
    """A node that never moves: sampled once, valid forever."""

    def __init__(self) -> None:
        super().__init__()
        self._px: List[float] = []
        self._py: List[float] = []
        self._ax = np.empty(0)
        self._ay = np.empty(0)

    def _members_add(self, model: Stationary) -> None:
        self._px.append(model.point.x)
        self._py.append(model.point.y)

    def finalize(self) -> None:
        super().finalize()
        self._ax = np.asarray(self._px, dtype=np.float64)
        self._ay = np.asarray(self._py, dtype=np.float64)

    def sample(self, now, local, x, y, valid_until) -> None:
        slots = self._slot_arr[local]
        x[slots] = self._ax[local]
        y[slots] = self._ay[local]
        valid_until[slots] = math.inf


class WaypointKernel(_Kernel):
    """Random waypoint: interpolate along the current leg, pause windows."""

    def __init__(self) -> None:
        super().__init__()
        self.models: List[RandomWaypoint] = []
        self._leg_idx: List[int] = []
        # Current-leg parameter arrays, kept in sync with _leg_idx.
        self._start = np.empty(0)
        self._arrive = np.empty(0)
        self._end = np.empty(0)
        self._ox = np.empty(0)
        self._oy = np.empty(0)
        self._dx = np.empty(0)
        self._dy = np.empty(0)

    def _members_add(self, model: RandomWaypoint) -> None:
        self.models.append(model)
        self._leg_idx.append(0)

    def finalize(self) -> None:
        super().finalize()
        count = len(self.models)
        for name in ("_start", "_arrive", "_end", "_ox", "_oy", "_dx", "_dy"):
            setattr(self, name, np.empty(count, dtype=np.float64))
        for index in range(count):
            self._load_leg(index)

    def _load_leg(self, index: int) -> None:
        leg = self.models[index]._legs[self._leg_idx[index]]
        self._start[index] = leg.start_time
        self._arrive[index] = leg.arrive_time
        self._end[index] = leg.end_time
        self._ox[index] = leg.origin.x
        self._oy[index] = leg.origin.y
        self._dx[index] = leg.destination.x
        self._dy[index] = leg.destination.y

    def sample(self, now, local, x, y, valid_until) -> None:
        # Advance the few members whose current leg ended.  Contiguous legs
        # (start of leg k+1 == end of leg k) make the forward walk land on
        # the same leg as the scalar bisect over leg start times.
        stale = local[self._end[local] <= now]
        for index in stale.tolist():
            model = self.models[index]
            model._extend_to(now)
            legs = model._legs
            leg_index = self._leg_idx[index]
            while legs[leg_index].end_time <= now:
                leg_index += 1
            self._leg_idx[index] = leg_index
            self._load_leg(index)

        start = self._start[local]
        arrive = self._arrive[local]
        ox = self._ox[local]
        oy = self._oy[local]
        dx = self._dx[local]
        dy = self._dy[local]
        arrived = (now >= arrive) | (arrive <= start)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = (now - start) / (arrive - start)
            px = np.where(arrived, dx, ox + (dx - ox) * fraction)
            py = np.where(arrived, dy, oy + (dy - oy) * fraction)
        slots = self._slot_arr[local]
        x[slots] = px
        y[slots] = py
        valid_until[slots] = np.where(arrived, self._end[local], now)


class WalkKernel(_Kernel):
    """Random walk: straight epochs folded back by billiard reflection."""

    def __init__(self) -> None:
        super().__init__()
        self.models: List[RandomWalk] = []
        self._epoch_idx: List[int] = []
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._ox = np.empty(0)
        self._oy = np.empty(0)
        self._vx = np.empty(0)
        self._vy = np.empty(0)
        self._width = np.empty(0)
        self._height = np.empty(0)

    def _members_add(self, model: RandomWalk) -> None:
        self.models.append(model)
        self._epoch_idx.append(0)

    def finalize(self) -> None:
        super().finalize()
        count = len(self.models)
        for name in ("_start", "_end", "_ox", "_oy", "_vx", "_vy", "_width", "_height"):
            setattr(self, name, np.empty(count, dtype=np.float64))
        for index, model in enumerate(self.models):
            self._width[index] = model.terrain.width
            self._height[index] = model.terrain.height
            self._load_epoch(index)

    def _load_epoch(self, index: int) -> None:
        epoch = self.models[index]._epochs[self._epoch_idx[index]]
        self._start[index] = epoch.start_time
        self._end[index] = epoch.end_time
        self._ox[index] = epoch.origin.x
        self._oy[index] = epoch.origin.y
        self._vx[index] = epoch.velocity_x
        self._vy[index] = epoch.velocity_y

    @staticmethod
    def _reflect(raw: "np.ndarray", limit: "np.ndarray") -> "np.ndarray":
        # Mirrors walk._reflect op for op (np.fmod == math.fmod == C fmod).
        period = 2.0 * limit
        value = np.fmod(raw, period)
        value = np.where(value < 0, value + period, value)
        value = np.where(value > limit, period - value, value)
        return np.where(limit <= 0, 0.0, value)

    def sample(self, now, local, x, y, valid_until) -> None:
        stale = local[self._end[local] <= now]
        for index in stale.tolist():
            model = self.models[index]
            model._extend_to(now)
            epochs = model._epochs
            epoch_index = self._epoch_idx[index]
            while epochs[epoch_index].end_time <= now:
                epoch_index += 1
            self._epoch_idx[index] = epoch_index
            self._load_epoch(index)

        elapsed = now - self._start[local]
        raw_x = self._ox[local] + self._vx[local] * elapsed
        raw_y = self._oy[local] + self._vy[local] * elapsed
        slots = self._slot_arr[local]
        x[slots] = self._reflect(raw_x, self._width[local])
        y[slots] = self._reflect(raw_y, self._height[local])
        # A walker never pauses: the window collapses to the sample time.
        valid_until[slots] = now


class PiecewiseKernel(_Kernel):
    """Scripted trajectories (trace replay): per-node segment pointers.

    Segment selection replicates the scalar quirks exactly: at an exact
    interior waypoint time the *earlier* segment is sampled (fraction 1.0
    interpolation, which is not necessarily the endpoint in IEEE floats),
    while at/after the final waypoint the node sits at the last point
    exactly.  Runs of equal waypoints pin the position — the per-segment
    pin deadline is precomputed at registration.
    """

    def __init__(self) -> None:
        super().__init__()
        self.models: List[PiecewiseLinear] = []
        self._seg_idx: List[int] = []  # -1 == parked before the first waypoint
        self._pins: List[List[float]] = []  # per member: pin deadline per segment
        self._pre: List[float] = []  # pin deadline of the parked-before state
        self._t0 = np.empty(0)
        self._t1 = np.empty(0)
        self._p0x = np.empty(0)
        self._p0y = np.empty(0)
        self._p1x = np.empty(0)
        self._p1y = np.empty(0)
        self._pin = np.empty(0)  # nan == moving segment (window collapses)
        self._tlast = np.empty(0)
        self._plastx = np.empty(0)
        self._plasty = np.empty(0)

    def _members_add(self, model: PiecewiseLinear) -> None:
        self.models.append(model)
        self._seg_idx.append(-1)
        times, points = model._times, model._points
        segments = len(times) - 1
        pins = [math.nan] * segments
        for segment in range(segments):
            if points[segment + 1] != points[segment]:
                continue
            run = segment
            end = times[run + 1]
            while run + 1 < len(points) and points[run + 1] == points[run]:
                end = times[run + 1]
                run += 1
            pins[segment] = math.inf if run == len(points) - 1 else end
        self._pins.append(pins)
        # Parked before the trajectory starts: scalar walks the equal-point
        # run from segment 0 with end initialised to times[0].
        pre = times[0]
        run = 0
        while run + 1 < len(points) and points[run + 1] == points[run]:
            pre = times[run + 1]
            run += 1
        self._pre.append(math.inf if run == len(points) - 1 else pre)

    def finalize(self) -> None:
        super().finalize()
        count = len(self.models)
        names = (
            "_t0", "_t1", "_p0x", "_p0y", "_p1x", "_p1y",
            "_pin", "_tlast", "_plastx", "_plasty",
        )
        for name in names:
            setattr(self, name, np.empty(count, dtype=np.float64))
        for index, model in enumerate(self.models):
            self._tlast[index] = model._times[-1]
            self._plastx[index] = model._points[-1].x
            self._plasty[index] = model._points[-1].y
            self._load_segment(index)

    def _load_segment(self, index: int) -> None:
        model = self.models[index]
        segment = self._seg_idx[index]
        times, points = model._times, model._points
        if segment < 0:
            first = points[0]
            self._t0[index] = times[0]
            self._t1[index] = times[0]
            self._p0x[index] = self._p1x[index] = first.x
            self._p0y[index] = self._p1y[index] = first.y
            self._pin[index] = self._pre[index]
            return
        self._t0[index] = times[segment]
        self._t1[index] = times[segment + 1]
        self._p0x[index] = points[segment].x
        self._p0y[index] = points[segment].y
        self._p1x[index] = points[segment + 1].x
        self._p1y[index] = points[segment + 1].y
        self._pin[index] = self._pins[index][segment]

    def sample(self, now, local, x, y, valid_until) -> None:
        stale = local[self._t1[local] < now]
        for index in stale.tolist():
            times = self.models[index]._times
            segments = len(times) - 1
            segment = self._seg_idx[index]
            # Stay on segment s while now <= times[s+1]: an exact interior
            # waypoint time samples the earlier segment at fraction 1.0,
            # exactly like the scalar selection.
            while segment < segments - 1 and now > times[segment + 1]:
                segment += 1
            self._seg_idx[index] = segment
            self._load_segment(index)

        t0 = self._t0[local]
        t1 = self._t1[local]
        p0x = self._p0x[local]
        p0y = self._p0y[local]
        after = now >= self._tlast[local]
        parked = t1 <= t0
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = (now - t0) / (t1 - t0)
            px = p0x + (self._p1x[local] - p0x) * fraction
            py = p0y + (self._p1y[local] - p0y) * fraction
        px = np.where(parked, p0x, px)
        py = np.where(parked, p0y, py)
        px = np.where(after, self._plastx[local], px)
        py = np.where(after, self._plasty[local], py)
        pin = self._pin[local]
        window = np.where(np.isnan(pin), now, pin)
        window = np.where(after, math.inf, window)
        slots = self._slot_arr[local]
        x[slots] = px
        y[slots] = py
        valid_until[slots] = window


class FallbackKernel(_Kernel):
    """Scalar sampling through the node, for unrecognised models.

    One ``current_position`` / ``position_valid_until`` call per lapsed
    window, so mixing one exotic model into a population never slows the
    rest.
    """

    def __init__(self) -> None:
        super().__init__()
        self.nodes: List = []

    def _members_add(self, node) -> None:
        self.nodes.append(node)

    def sample(self, now, local, x, y, valid_until) -> None:
        nodes = self.nodes
        slot_arr = self._slot_arr
        for index in local.tolist():
            node = nodes[index]
            position = node.current_position()
            slot = slot_arr[index]
            x[slot] = position.x
            y[slot] = position.y
            valid_until[slot] = node.position_valid_until()


#: Exact model classes with a bulk kernel.  Subclasses deliberately do not
#: match — an overridden position() must win, so they take the fallback.
_KERNEL_FOR_MODEL = {
    Stationary: StationaryKernel,
    RandomWaypoint: WaypointKernel,
    RandomWalk: WalkKernel,
    PiecewiseLinear: PiecewiseKernel,
}


def kernel_class_for(model) -> type:
    """Bulk kernel class for ``model`` (``FallbackKernel`` when none fits)."""
    return _KERNEL_FOR_MODEL.get(type(model), FallbackKernel)
