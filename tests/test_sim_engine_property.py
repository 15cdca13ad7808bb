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
a countdown schedules nothing and a periodic timer re-arms its fired
handle in place, so neither may ever leave a tombstone behind.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.timers import CountdownTimer, PeriodicTimer

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
