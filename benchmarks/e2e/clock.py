"""A clock that reports seconds at a reference machine speed.

The box this benchmark was written on is a 2-vCPU VM whose speed moves
with a neighbour on the sibling hardware thread: in steps of 1.5x that
last 1 to 5 s, and in shifts of 30-40 % that last many minutes (CPU time
moves with wall time, so it is a slower core, not descheduling).  Wall
time cannot be made steady there by repeating: two back-to-back sets of
six fresh-process repeats of the same seeded runs disagreed by 18-30 %
in their medians on four of the five workloads (README, "How steady").

So every child samples the machine's speed while it works: an interval
timer fires every ``TICK_S`` and its handler times one fixed *burst* of
pure-Python work (dict, heap, float and method-call traffic, the kind of
bytecode the simulator executes, and no ``repro`` code, so a faster
simulator cannot make the yardstick faster).  ``REF_BURST_S / burst`` is
the machine's speed relative to the quiet reference box, and reference
seconds advance at that speed until the next burst: a span's *seconds at
reference speed* are its wall seconds, each 10 ms stretch scaled by the
speed measured at its start.  The bursts' own time is left out.

On a quiet box speed is ~1 and the scaled seconds equal wall seconds.
Over four sets of 80 fixed-seed ``paper50-rpcc`` runs the quartile spread
of a single run fell from 26-31 % of the median raw to 11-14 % scaled.
Raw wall seconds are reported beside every scaled number.
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from typing import Callable, List

#: Seconds between speed samples.
TICK_S = 0.01

#: Duration of one burst on the reference box at its quietest (the 5th
#: percentile of the 1 259 bursts of eight ``paper50-rpcc`` runs).  It only
#: fixes the unit: changing it rescales every time this benchmark reports.
REF_BURST_S = 2.3e-4


class _Cell:
    __slots__ = ("weight", "bias", "hits", "peers")

    def __init__(self, index: int) -> None:
        self.weight = float(index)
        self.bias = float(index * 2)
        self.hits = 0
        self.peers: List["_Cell"] = []

    def touch(self, value: float) -> float:
        self.hits += 1
        return self.weight * value + self.bias


def _make_cells(count: int = 3000) -> List[_Cell]:
    cells = [_Cell(index) for index in range(count)]
    for index, cell in enumerate(cells):
        cell.peers = [cells[(index * 7 + step * 131) % count] for step in range(6)]
    return cells


_CELLS = _make_cells()


def burst(phase: int, cells: List[_Cell] = _CELLS) -> float:
    """One fixed unit of interpreter work; ``phase`` moves the cells touched."""
    table: dict = {}
    heap: list = []
    total = 0.0
    for i in range(250):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        total += math.sqrt(i + 1.0)
    count = len(cells)
    for i in range(60):
        for peer in cells[(phase + i * 17) % count].peers:
            total += peer.touch(0.5)
    return total


class CalibratedClock:
    """Two readings of one run: reference seconds, and wall seconds.

    Both leave out the time spent inside bursts.  Reference seconds advance
    at the speed the last burst measured, so a span is scaled by the speed
    the machine had *during that span*, not by the run's average.
    """

    def __init__(self, timer: Callable[[], float] = time.perf_counter) -> None:
        self._timer = timer
        # (seconds spent in bursts, reference seconds up to wall reading
        # ``since``, ``since``, speed from there on).  One tuple, replaced
        # whole, so that a reading interrupted by a tick stays consistent.
        self._state = (0.0, 0.0, 0.0, 1.0)
        self.samples = 0

    def wall(self) -> float:
        """Wall seconds, not counting time spent inside bursts."""
        return self._timer() - self._state[0]

    def now(self) -> float:
        """Seconds at reference speed; never runs backwards."""
        paused, reference, since, speed = self._state
        return reference + (self._timer() - paused - since) * speed

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # Close the stretch since the last burst at the speed ``now`` has
        # been reporting for it, then let this burst set the next one's.
        paused, reference, since, speed = self._state
        started = self._timer()
        wall = started - paused
        burst(self.samples)
        elapsed = self._timer() - started
        self._state = (
            paused + elapsed,
            reference + (wall - since) * speed,
            wall,
            REF_BURST_S / elapsed,
        )
        self.samples += 1
