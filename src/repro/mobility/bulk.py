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
from operator import attrgetter
from typing import List, Sequence

from repro._np import np
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


def _columns(rows: Sequence, *fields: str) -> List["np.ndarray"]:
    """One float64 array per (dotted) attribute of ``rows``, in row order."""
    return [
        np.fromiter(map(attrgetter(field), rows), dtype=np.float64, count=len(rows))
        for field in fields
    ]


class _Kernel:
    """Base: owns the ledger slots of its members."""

    def __init__(self) -> None:
        self.slots: List[int] = []
        self._slot_arr = np.empty(0, dtype=np.int64)

    def extend(self, slots: List[int], members: list) -> None:
        """Take new members (in ledger slot order) and rebuild the arrays."""
        self.slots.extend(slots)
        self._members_extend(members)
        self.finalize()

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
        self.models: List[Stationary] = []
        self._ax = np.empty(0)
        self._ay = np.empty(0)

    def _members_extend(self, models: List[Stationary]) -> None:
        self.models.extend(models)

    def finalize(self) -> None:
        super().finalize()
        self._ax, self._ay = _columns(self.models, "point.x", "point.y")

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

    def _members_extend(self, models: List[RandomWaypoint]) -> None:
        self.models.extend(models)
        self._leg_idx.extend([0] * len(models))

    def finalize(self) -> None:
        super().finalize()
        legs = [model._legs[index] for model, index in zip(self.models, self._leg_idx)]
        (self._start, self._arrive, self._end,
         self._ox, self._oy, self._dx, self._dy) = _columns(
            legs, "start_time", "arrive_time", "end_time",
            "origin.x", "origin.y", "destination.x", "destination.y",
        )

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

    def _members_extend(self, models: List[RandomWalk]) -> None:
        self.models.extend(models)
        self._epoch_idx.extend([0] * len(models))

    def finalize(self) -> None:
        super().finalize()
        models = self.models
        epochs = [model._epochs[index] for model, index in zip(models, self._epoch_idx)]
        self._start, self._end, self._ox, self._oy, self._vx, self._vy = _columns(
            epochs, "start_time", "end_time", "origin.x", "origin.y",
            "velocity_x", "velocity_y",
        )
        self._width, self._height = _columns(models, "terrain.width", "terrain.height")

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

    def _members_extend(self, models: List[PiecewiseLinear]) -> None:
        for model in models:
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
        rows = [self._segment(index) for index in range(count)]
        # One array per field: the rows' columns, each made contiguous.
        (self._t0, self._t1, self._p0x, self._p0y, self._p1x, self._p1y,
         self._pin) = np.array(rows, dtype=np.float64).reshape(count, 7).T.copy()
        self._tlast = np.array([model._times[-1] for model in self.models], dtype=np.float64)
        self._plastx, self._plasty = _columns(
            [model._points[-1] for model in self.models], "x", "y"
        )

    def _segment(self, index: int) -> tuple:
        """``(t0, t1, p0x, p0y, p1x, p1y, pin)`` of member ``index``'s segment."""
        model = self.models[index]
        segment = self._seg_idx[index]
        times, points = model._times, model._points
        if segment < 0:
            first = points[0]
            return (times[0], times[0], first.x, first.y, first.x, first.y,
                    self._pre[index])
        start, end = points[segment], points[segment + 1]
        return (times[segment], times[segment + 1], start.x, start.y, end.x, end.y,
                self._pins[index][segment])

    def _load_segment(self, index: int) -> None:
        (self._t0[index], self._t1[index], self._p0x[index], self._p0y[index],
         self._p1x[index], self._p1y[index], self._pin[index]) = self._segment(index)

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

    def _members_extend(self, nodes: list) -> None:
        self.nodes.extend(nodes)

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
