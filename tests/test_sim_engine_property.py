"""Property tests: the event engine against a brute-force reference.

Every example drives a :class:`~repro.sim.engine.Simulator` and a
reference model through the *same* randomized interleaving of
``schedule`` / ``post`` / ``cancel`` / ``reschedule`` / ``run_until`` /
``run(max_events=k)`` operations and asserts the observable outcomes
are equal and in the same order: the
full ``(time, tag)`` fire log, the live pending counter and the clock
after every operation.  The reference (:class:`_Model`) is a plain list
of ``[time, seq, tag, alive]`` rows whose next event is ``min`` over the
live ones — no ``heapq``, nothing shared with ``src/`` — so the engine is
never compared with itself.

Two structural promises of the store are checked alongside: the
accounting identity ``heap_size == pending_events + tombstones`` after
every operation, and — right after every operation that cancelled a
pending event — the compaction rule ``tombstones * 2 <= heap_size or
heap_size < _COMPACT_FLOOR`` (on the size the store had at the cancel:
a renewal pushes its replacement afterwards).  The floor is drawn per
example (2, 8 or the shipped 64) so that compaction actually happens
inside 60 operations, and fire order across compactions is part of what
the log comparison holds.

Delays are drawn from a mixture that makes ties in time frequent (zero
delays, exact 0.25 s multiples) and mixes sub-second, minute-scale and
far-future (hours) times in one store, so the ``(time, seq)`` tie-break
and deep-heap ordering are exercised constantly.

A second suite drives the real timer helpers (:class:`CountdownTimer`,
:class:`PeriodicTimer`) through randomized renew/expire/interval churn:
a countdown schedules nothing and a periodic timer re-arms itself in
place, so neither may ever leave a tombstone behind.

A third suite holds the recurring processes that are their own heap
event (:class:`PeriodicTimer`, :class:`ExponentialProcess`,
:class:`SwitchingProcess`) to references that schedule a fresh handle
on every (re)arm, the way the processes ran before they were events:
one simulator each, the same randomized starts, tied one-shot events,
interval changes and ``run_until`` / ``run(max_events=k)`` boundaries,
and the fire logs must match entry for entry.  The processes take a seed
and build their generators from it (first at construction, again when
they resume); the suite has them build quarter-second generators, so
that resuming is exercised among the ties.

A fourth suite holds the :class:`StaggeredClock` to one
:class:`PeriodicTimer` per member: zero to ten members staggered by
drawn node ids (repeats tie their phases; node 0 ticks on the interval's
grid with a timer of the same period), interval changes mid-run,
one-shots at exactly a member's next tick, and an echo each member files
one interval after its tick, which ties with that member's next one.
The fire logs, clocks and event counts must match entry for entry.

A fifth suite holds the :class:`ArrivalClock` and the
:class:`SwitchClock` to one fresh-handle reference stream or switch per
member: zero to eight members drawing quarter-second gaps (so members
tie with each other, with a timer on the same grid and with one-shots),
armed after a drawn lead, one-shots at exactly a member's next arrival
or flip, ``run_until`` / ``run(max_events=k)`` boundaries, and two
echoes each tick files (now and a quarter on), which tie with the
member's next tick whenever its gap is zero or a quarter: an arrival
must re-arm before its callback and a switch after it.
"""

from __future__ import annotations

import functools
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.peers import switching as switching_module
from repro.peers.switching import SwitchingProcess
from repro.sim.engine import Simulator
from repro.sim.timers import (
    ArrivalClock,
    CountdownTimer,
    PeriodicTimer,
    StaggeredClock,
    SwitchClock,
    staggered_start,
)
from repro.workload import arrivals as arrivals_module
from repro.workload.arrivals import ExponentialProcess

# Ties (zero and exact quarter-second delays), sub-second, minute-scale
# and far-future times, all in one store.
_DELAYS = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=16).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=60.0, max_value=70.0, allow_nan=False),
    st.floats(min_value=5_000.0, max_value=20_000.0, allow_nan=False),
    st.floats(min_value=16_000.0, max_value=40_000.0, allow_nan=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(
            st.just("reschedule"),
            st.integers(min_value=0, max_value=10_000),
            _DELAYS,
        ),
        st.tuples(
            st.just("run_until"),
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        ),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=5)),
    ),
    min_size=1,
    max_size=60,
)

_FLOORS = st.sampled_from([2, 8, Simulator._COMPACT_FLOOR])


class _Model:
    """Brute-force reference: a list of ``[time, seq, tag, alive]`` rows."""

    def __init__(self) -> None:
        self.now = 0.0
        self.rows = []
        self.log = []

    def add(self, delay: float, tag: int) -> list:
        row = [self.now + delay, len(self.rows), tag, True]
        self.rows.append(row)
        return row

    def move(self, row: list, delay: float) -> list:
        # reschedule: whatever state the old row is in, it no longer
        # fires, and the same tag gets the next sequence number.
        row[3] = False
        return self.add(delay, row[2])

    def pending(self) -> int:
        return sum(row[3] for row in self.rows)

    def run(self, until: float = float("inf"), max_events: float = float("inf")) -> int:
        fired = 0
        while fired < max_events:
            live = [row for row in self.rows if row[3] and row[0] <= until]
            if not live:
                break
            row = min(live, key=lambda r: (r[0], r[1]))
            row[3] = False
            self.now = row[0]
            self.log.append((self.now, row[2]))
            fired += 1
        return fired


class _Arm:
    """The engine under test: a simulator, its handles and its fire log."""

    def __init__(self, compact_floor: int) -> None:
        self.sim = Simulator()
        self.sim._COMPACT_FLOOR = compact_floor
        self.handles = []
        self.log = []

    def fire(self, tag: int) -> None:
        # The clock never runs backwards, whatever mix of run(max_events)
        # and run_until produced this callback.
        assert not self.log or self.sim.now >= self.log[-1][0]
        self.log.append((self.sim.now, tag))


def _apply(arm: _Arm, model: _Model, rows: list, op, tag: int) -> None:
    """Apply ``op`` to engine and model; ``rows[i]`` models ``arm.handles[i]``."""
    sim = arm.sim
    kind = op[0]
    if kind == "schedule":
        arm.handles.append(sim.schedule(op[1], arm.fire, tag))
        rows.append(model.add(op[1], tag))
    elif kind == "post":
        # Pooled fire-and-forget: the handle must not be retained.
        sim.post(op[1], arm.fire, tag)
        model.add(op[1], tag)
    elif kind == "cancel":
        if arm.handles:
            index = op[1] % len(arm.handles)
            assert arm.handles[index].cancel() == rows[index][3]
            rows[index][3] = False
    elif kind == "reschedule":
        if arm.handles:
            index = op[1] % len(arm.handles)
            arm.handles[index] = sim.reschedule(arm.handles[index], op[2])
            rows[index] = model.move(rows[index], op[2])
    elif kind == "run_until":
        horizon = sim.now + op[1]
        assert sim.run_until(horizon) == model.run(until=horizon)
        model.now = horizon
    elif kind == "run":
        assert sim.run(max_events=op[1]) == model.run(max_events=op[1])
    else:  # pragma: no cover - strategy and dispatch are in lockstep
        raise AssertionError(f"unknown op {kind!r}")


def _cancel_marks(sim: Simulator) -> tuple:
    """Changes exactly when a pending event is cancelled (outside a run)."""
    return sim.tombstones, sim.heap_compactions


def _check_store(sim: Simulator, before: tuple = None, pushed: int = 0) -> None:
    """Accounting identity; plus the compaction rule if the op cancelled.

    ``before`` is :func:`_cancel_marks` taken ahead of the operation and
    ``pushed`` the entries it filed after its cancel (1 for a renewal).
    """
    assert sim.heap_size == sim.pending_events + sim.tombstones
    if before is not None and before != _cancel_marks(sim):
        size = sim.heap_size - pushed
        assert sim.tombstones * 2 <= size or size < sim._COMPACT_FLOOR


@settings(max_examples=80, deadline=None)
@given(ops=_OPS, compact_floor=_FLOORS)
def test_engine_and_model_fire_identically(ops, compact_floor):
    arm, model, rows = _Arm(compact_floor), _Model(), []
    for tag, op in enumerate(ops):
        before = _cancel_marks(arm.sim) if op[0] in ("cancel", "reschedule") else None
        _apply(arm, model, rows, op, tag)
        assert arm.sim.pending_events == model.pending()
        assert arm.sim.now == model.now
        assert [handle.pending for handle in arm.handles] == [row[3] for row in rows]
        _check_store(arm.sim, before, pushed=op[0] == "reschedule")
    assert arm.sim.run() == model.run()
    assert arm.log == model.log
    assert arm.sim.now == model.now
    assert arm.sim.pending_events == model.pending() == 0
    _check_store(arm.sim)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("renew"),
                st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
            ),
            st.tuples(st.just("expire_now")),
            st.tuples(
                st.just("interval"),
                st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
            ),
            st.tuples(
                st.just("run_until"),
                st.floats(min_value=0.0, max_value=240.0, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=50,
    ),
    duration=st.floats(min_value=0.5, max_value=600.0, allow_nan=False),
    interval=st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
)
def test_timers_never_tombstone(ops, duration, interval):
    sim = Simulator()
    countdown = CountdownTimer(sim, duration)
    ticks = []
    periodic = PeriodicTimer(sim, interval, lambda: ticks.append(sim.now))
    periodic.start()
    for op in ops:
        if op[0] == "renew":
            countdown.renew(op[1])
            assert countdown.expires_at == sim.now + op[1]
        elif op[0] == "expire_now":
            countdown.expire_now()
            assert countdown.remaining == 0.0
        elif op[0] == "interval":
            periodic.interval = op[1]
        else:
            sim.run_until(sim.now + op[1])
        assert sim.tombstones == 0
        assert sim.heap_size == sim.pending_events == 1
    assert ticks == sorted(ticks)
    assert periodic.ticks == len(ticks)


class _QuarterRng:
    """Exponential draws on the quarter-second grid, zero included, so
    a process's arrivals tie with each other and with one-shot events."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    def expovariate(self, rate: float) -> float:
        return self._random.randint(0, 8) * 0.25


class _FreshPeriodic:
    """Reference periodic timer: a new handle per tick."""

    def __init__(self, sim, interval, callback, start_offset):
        self._sim, self.interval = sim, interval
        self._callback, self._start_offset = callback, start_offset
        self.ticks = 0
        self._handle = None

    def start(self):
        if self._handle is None or not self._handle.pending:
            self._handle = self._sim.schedule(self._start_offset, self._fire)

    def _fire(self):
        self.ticks += 1
        self._handle = self._sim.schedule(self.interval, self._fire)
        self._callback()


class _FreshExponential:
    """Reference arrival stream: a new handle per arrival."""

    def __init__(self, sim, rng, mean_interval, callback):
        self._sim, self._rng = sim, rng
        self.mean_interval, self._callback = mean_interval, callback
        self.arrivals = 0
        self._handle = None

    def start(self):
        if self._handle is None or not self._handle.pending:
            self._next()

    def _next(self):
        gap = self._rng.expovariate(1.0 / self.mean_interval)
        self._handle = self._sim.schedule(gap, self._fire)

    def _fire(self):
        self.arrivals += 1
        self._next()
        self._callback()


class _FreshSwitching:
    """Reference on/off switch: a new handle per flip."""

    def __init__(self, sim, rng, set_online, mean_online, mean_offline):
        self._sim, self._rng, self._set_online = sim, rng, set_online
        self.mean_online, self.mean_offline = mean_online, mean_offline
        self._online = True
        self.flips = 0
        self._handle = None

    def start(self):
        if self._handle is None:
            delay = self._rng.expovariate(1.0 / self.mean_online)
            self._handle = self._sim.schedule(delay, self._flip)

    def _flip(self):
        self._online = not self._online
        self.flips += 1
        self._set_online(self._online)
        mean = self.mean_online if self._online else self.mean_offline
        self._handle = self._sim.schedule(self._rng.expovariate(1.0 / mean), self._flip)


def _world(periodic, exponential, switching, intervals, seed, generator):
    """A simulator, five processes (two timers, two arrival streams and a
    switch, tags 0-4) and the log they, their echoes and the one-shot
    events write; ``generator`` turns a seed into what a process takes."""
    sim = Simulator()
    log = []

    def note(tag):
        # Each firing also files a quarter-second echo: whether a process
        # re-arms before or after its callback decides the ties.
        def fire(*args):
            log.append((sim.now, tag) + args)
            sim.schedule(0.25, lambda: log.append((sim.now, tag, "echo")))
        return fire

    processes = [
        periodic(sim, intervals[0], note(0), 0.25),
        periodic(sim, intervals[1], note(1), intervals[1]),
        exponential(sim, generator(seed), 1.0, note(2)),
        exponential(sim, generator(seed + 1), 2.0, note(3)),
        switching(sim, generator(seed + 2), note(4), 1.0, 0.5),
    ]
    return sim, processes, log


_QUARTERS = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)

_PROCESS_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("event"), _QUARTERS),
        st.tuples(
            st.just("interval"),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=1, max_value=8).map(lambda k: k * 0.25),
        ),
        st.tuples(st.just("run_until"), st.one_of(_QUARTERS, st.floats(0.0, 3.0))),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=6)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(
    ops=_PROCESS_OPS,
    intervals=st.tuples(
        *[st.integers(min_value=1, max_value=8).map(lambda k: k * 0.25)] * 2
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_processes_fire_like_fresh_handle_references(ops, intervals, seed):
    with mock.patch.object(arrivals_module, "seeded", _QuarterRng), \
            mock.patch.object(switching_module, "seeded", _QuarterRng):
        _processes_fire_like_fresh_handle_references(ops, intervals, seed)


class _OneMemberArrivals:
    """A stream on a one-member :class:`ArrivalClock`: how it runs standalone."""

    def __init__(self, sim, seed, mean_interval, callback):
        self.process = ExponentialProcess(seed, mean_interval)
        self._clock = ArrivalClock(sim, lambda member: callback())

    def start(self):
        self._clock.start([self.process])

    @property
    def arrivals(self):
        return self.process.arrivals


class _OneMemberSwitch:
    """A switch on a one-member :class:`SwitchClock`."""

    def __init__(self, sim, seed, set_online, mean_online, mean_offline):
        self.process = SwitchingProcess(seed, mean_online, mean_offline)
        self._clock = SwitchClock(sim, lambda member: set_online(member.online))

    def start(self):
        self._clock.start([self.process])

    @property
    def flips(self):
        return self.process.flips


def _processes_fire_like_fresh_handle_references(ops, intervals, seed):
    own = _world(
        PeriodicTimer, _OneMemberArrivals, _OneMemberSwitch, intervals, seed, int
    )
    fresh = _world(
        _FreshPeriodic, _FreshExponential, _FreshSwitching, intervals, seed, _QuarterRng
    )
    for tag, op in enumerate(ops, start=5):
        for sim, processes, log in (own, fresh):
            if op[0] == "start":
                processes[op[1]].start()
            elif op[0] == "event":
                sim.schedule(op[1], lambda sim=sim, log=log, tag=tag: log.append((sim.now, tag)))
            elif op[0] == "interval":
                processes[op[1]].interval = op[2]
            elif op[0] == "run_until":
                sim.run_until(sim.now + op[1])
            else:
                sim.run(max_events=op[1])
        assert own[2] == fresh[2]
        assert own[0].now == fresh[0].now
        assert own[0].pending_events == fresh[0].pending_events
    # No process ever leaves a tombstone or a second entry behind.
    assert own[0].tombstones == 0
    assert own[0].heap_size == own[0].pending_events
    timers, streams, switch = own[1][:2], own[1][2:4], own[1][4]
    reference = fresh[1]
    assert [t.ticks for t in timers] == [t.ticks for t in reference[:2]]
    assert [s.arrivals for s in streams] == [s.arrivals for s in reference[2:4]]
    assert switch.flips == reference[4].flips


_CLOCK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), _QUARTERS),
        st.tuples(st.just("at_tick"), st.integers(min_value=0, max_value=63)),
        st.tuples(
            st.just("interval"),
            st.integers(min_value=1, max_value=12).map(lambda k: k * 0.25),
        ),
        st.tuples(st.just("run_until"), st.one_of(_QUARTERS, st.floats(0.0, 4.0))),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=6)),
    ),
    min_size=1,
    max_size=40,
)


def _clock_world(node_ids, interval, lead, one_per_member):
    """A simulator whose members (tags 0..n-1, staggered by ``node_ids``)
    tick on one :class:`StaggeredClock`, or on one :class:`PeriodicTimer`
    each; a timer of the same interval (tag ``"sampler"``, armed first)
    and a one-shot at ``lead`` share their grid."""
    sim = Simulator()
    log = []

    def interval_of():
        return timers[0].interval if one_per_member else timers.interval

    def note(tag):
        log.append((sim.now, tag))
        # An echo one interval on ties with the member's own next tick:
        # the re-arm must take its sequence number before the callback.
        sim.schedule(interval_of(), lambda: log.append((sim.now, tag, "echo")))

    PeriodicTimer(sim, interval, lambda: log.append((sim.now, "sampler"))).start()
    sim.schedule(lead, lambda: log.append((sim.now, "lead")))
    sim.run_until(lead)
    members = list(enumerate(node_ids))
    if one_per_member:
        timers = [
            PeriodicTimer(
                sim, interval, functools.partial(note, tag),
                start_offset=staggered_start(interval, node_id),
            )
            for tag, node_id in members
        ]
        for timer in timers:
            timer.start()
    else:
        timers = StaggeredClock(sim, interval, note)
        timers.start((node_id, tag) for tag, node_id in members)
    return sim, timers, log


@settings(max_examples=80, deadline=None)
@given(
    node_ids=st.lists(
        st.one_of(st.integers(0, 12), st.integers(0, 2**20)), max_size=10
    ),
    interval=st.integers(min_value=1, max_value=12).map(lambda k: k * 0.25),
    lead=_QUARTERS,
    ops=_CLOCK_OPS,
)
def test_staggered_clock_fires_like_a_timer_per_member(node_ids, interval, lead, ops):
    own = _clock_world(node_ids, interval, lead, one_per_member=False)
    reference = _clock_world(node_ids, interval, lead, one_per_member=True)
    clock, timers = own[1], reference[1]
    for tag, op in enumerate(ops):
        if op[0] == "at_tick" and timers:
            # A one-shot at exactly one member's next tick time.
            timer = timers[op[1] % len(timers)]
            at = next(time for time, _, event in reference[0]._heap if event is timer)
        for sim, processes, log in (own, reference):
            if op[0] == "event":
                sim.schedule(op[1], lambda sim=sim, log=log, tag=tag: log.append((sim.now, tag)))
            elif op[0] == "at_tick" and timers:
                sim.schedule_at(at, lambda sim=sim, log=log, tag=tag: log.append((sim.now, tag)))
            elif op[0] == "interval":
                if processes is clock:
                    clock.interval = op[1]
                else:
                    for timer in processes:
                        timer.interval = op[1]
            elif op[0] == "run_until":
                sim.run_until(sim.now + op[1])
            elif op[0] == "run":
                sim.run(max_events=op[1])
        assert own[2] == reference[2]
        assert own[0].now == reference[0].now
        assert own[0].events_processed == reference[0].events_processed
        # The clock is one pending event where the members' timers are n.
        assert own[0].pending_events == reference[0].pending_events - max(len(timers) - 1, 0)
    own[0].run_until(own[0].now + 4 * interval)
    reference[0].run_until(reference[0].now + 4 * interval)
    assert own[2] == reference[2]
    assert len(clock._members) == len(node_ids)
    # The clock never leaves a tombstone or a second entry behind.
    assert own[0].tombstones == 0
    assert own[0].heap_size == own[0].pending_events


_MEMBER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), _QUARTERS),
        st.tuples(st.just("at_tick"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("run_until"), st.one_of(_QUARTERS, st.floats(0.0, 3.0))),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=8)),
    ),
    min_size=1,
    max_size=40,
)


def _member_world(kind, n_members, seed, lead, one_clock):
    """A simulator whose ``n_members`` streams or switches (tags 0..n-1)
    ride one clock, or run as one fresh-handle reference each; a timer on
    the quarter grid (armed first) and a one-shot at ``lead`` share their
    times.  Every tick files two echoes, at once and a quarter on."""
    sim = Simulator()
    log = []

    def note(tag, *state):
        log.append((sim.now, tag) + state)
        sim.schedule(0.0, lambda: log.append((sim.now, tag, "echo")))
        sim.schedule(0.25, lambda: log.append((sim.now, tag, "late echo")))

    PeriodicTimer(sim, 0.5, lambda: log.append((sim.now, "sampler"))).start()
    sim.schedule(lead, lambda: log.append((sim.now, "lead")))
    sim.run_until(lead)
    tags = range(n_members)
    if kind == "arrivals" and one_clock:
        members = [ExponentialProcess(seed + tag, 1.0, host=tag) for tag in tags]
        ArrivalClock(sim, lambda member: note(member.host)).start(members)
    elif kind == "arrivals":
        members = [
            _FreshExponential(sim, _QuarterRng(seed + tag), 1.0, functools.partial(note, tag))
            for tag in tags
        ]
    elif one_clock:
        members = [SwitchingProcess(seed + tag, 1.0, 0.5, host=tag) for tag in tags]
        SwitchClock(sim, lambda member: note(member.host, member.online)).start(members)
    else:
        members = [
            _FreshSwitching(sim, _QuarterRng(seed + tag), functools.partial(note, tag), 1.0, 0.5)
            for tag in tags
        ]
    if not one_clock:
        for member in members:
            member.start()
    return sim, members, log


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(("arrivals", "switches")),
    n_members=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    lead=_QUARTERS,
    ops=_MEMBER_OPS,
)
def test_process_clocks_fire_like_a_fresh_handle_per_member(kind, n_members, seed, lead, ops):
    with mock.patch.object(arrivals_module, "seeded", _QuarterRng), \
            mock.patch.object(switching_module, "seeded", _QuarterRng):
        own = _member_world(kind, n_members, seed, lead, one_clock=True)
        reference = _member_world(kind, n_members, seed, lead, one_clock=False)
        for tag, op in enumerate(ops, start=n_members):
            if op[0] == "at_tick" and n_members:
                # A one-shot at exactly one member's next arrival or flip.
                handle = reference[1][op[1] % n_members]._handle
                at = next(time for time, _, event in reference[0]._heap if event is handle)
            for sim, _, log in (own, reference):
                if op[0] == "event":
                    sim.schedule(op[1], lambda sim=sim, log=log, tag=tag: log.append((sim.now, tag)))
                elif op[0] == "at_tick" and n_members:
                    sim.schedule_at(at, lambda sim=sim, log=log, tag=tag: log.append((sim.now, tag)))
                elif op[0] == "run_until":
                    sim.run_until(sim.now + op[1])
                elif op[0] == "run":
                    sim.run(max_events=op[1])
            assert own[2] == reference[2]
            assert own[0].now == reference[0].now
            assert own[0].events_processed == reference[0].events_processed
            # The clock is one pending event where the members' handles are n.
            assert own[0].pending_events == reference[0].pending_events - max(n_members - 1, 0)
        own[0].run_until(own[0].now + 4.0)
        reference[0].run_until(reference[0].now + 4.0)
    assert own[2] == reference[2]
    count = "arrivals" if kind == "arrivals" else "flips"
    assert [getattr(m, count) for m in own[1]] == [getattr(m, count) for m in reference[1]]
    # The clock never leaves a tombstone or a second entry behind.
    assert own[0].tombstones == 0
    assert own[0].heap_size == own[0].pending_events
