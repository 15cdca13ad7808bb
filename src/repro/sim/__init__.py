"""Discrete-event simulation kernel (GloMoSim substitute).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.engine.EventHandle` — cancellable scheduled event.
* :class:`~repro.sim.timers.PeriodicTimer` / :class:`~repro.sim.timers.StaggeredClock`
  / :class:`~repro.sim.timers.ArrivalClock` / :class:`~repro.sim.timers.SwitchClock`
  / :class:`~repro.sim.timers.CountdownTimer` — protocol timer helpers.
* :class:`~repro.sim.rng.RandomStreams` — named deterministic RNG streams.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.timers import (
    ArrivalClock,
    CountdownTimer,
    PeriodicTimer,
    StaggeredClock,
    SwitchClock,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "PeriodicTimer",
    "StaggeredClock",
    "ArrivalClock",
    "SwitchClock",
    "CountdownTimer",
    "RandomStreams",
    "derive_seed",
]
