"""Calls per message: the chains in DESIGN.md, "What a message costs".

Runs a fixed 50-peer, 120 s Table-1 world under ``pull``, ``push`` and
``rpcc-hy`` and counts, with ``sys.setprofile``, the ``call`` and
``c_call`` events (what cProfile reports as a function call) of

* every flood level (``Network._deliver_batch``), each call charged to
  the target the batch's loop was on when it was made:

  - a **bystander** copy — one that lands outside the audience the
    strategy declares (:func:`is_bystander` states those audiences
    again, independently): the calls booking it costs (none), and how
    many of them enter ``_deliver`` / ``deliver`` / ``handle_message``;
  - every other (**handled**) copy, and every unicast delivery, up to
    and including the first frame that is not dispatch plumbing — what
    it costs to *reach* a handler; the mean of the whole delivery is
    printed beside it, with the replies and route searches a handler
    starts, and is not gated;
* one **radio event**: a host's ``on_transmit``, ``on_receive`` and the
  flood relay's ``on_relay`` (one call for a reception and a
  rebroadcast, so half its count is the cost per event).

Counts are medians over a seeded run: box-independent and exactly
repeatable.  ``--check`` holds them to :data:`REACHED` plus 3 %;
``tests/test_message_path.py`` is the same gate in tier-1.

    PYTHONPATH=src python benchmarks/message_frames.py [--check]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.consistency.messages import (  # noqa: E402
    Invalidation,
    Poll,
    PullPoll,
    PushInvalidation,
)
from repro.experiments.config import SimulationConfig  # noqa: E402
from repro.experiments.runner import build_simulation  # noqa: E402
from repro.net.message import Message  # noqa: E402

SPECS = ("pull", "push", "rpcc-hy")
SIM_SECONDS = 120.0
SEED = 7

#: Frames between the network and a handler; the first ``call`` event
#: outside this set is the handler (or the forwarder to an RPCC side).
PLUMBING = frozenset(
    {"_deliver", "online", "deliver", "handle_message", "handle_protocol_message"}
)

#: Frames a bystander copy must never enter: its handler does not run.
DISPATCH = frozenset({"_deliver", "deliver", "handle_message"})

#: What the tree measured when the gate was set: no call per bystander
#: copy (the commit before read 5 / 7 / 7, all of them through
#: ``_deliver``; 10 / 12 / 20 before that), 5 to reach a handler and 2
#: per radio event.
REACHED: Dict[str, Dict[str, float]] = {
    "pull": {"bystander": 0, "bystander_dispatch": 0, "reach_handler": 5},
    "push": {"bystander": 0, "bystander_dispatch": 0, "reach_handler": 5},
    "rpcc-hy": {"bystander": 0, "bystander_dispatch": 0, "reach_handler": 5},
    "radio": {"transmit": 2, "receive": 2, "relay": 1},
}
HEADROOM = 1.03


class CallCounter:
    """A ``sys.setprofile`` hook that counts calls the way cProfile does."""

    def __init__(self) -> None:
        self.calls = 0
        #: ``calls`` when the first non-plumbing frame was entered.
        self.reached_handler: Optional[int] = None

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1
            if self.reached_handler is None and frame.f_code.co_name not in PLUMBING:
                self.reached_handler = self.calls
        elif event == "c_call":
            self.calls += 1

    def count(self, func, *args) -> "CallCounter":
        sys.setprofile(self)
        try:
            func(*args)
        finally:
            sys.setprofile(None)
        self.calls -= 1  # the ``sys.setprofile(None)`` that ended the count
        return self


def is_bystander(agent, message: Message) -> bool:
    """Whether ``agent``'s host is outside the audience of this flood copy.

    The audiences, from the handlers: a ``PullPoll`` is answered by the
    item's source alone; an RPCC ``Poll`` by the source or a relay of the
    item; an RPCC ``Invalidation`` is acted on by a relay or a host with
    a copy (a candidate with a copy is counted in, though its handler
    returns); a ``PushInvalidation`` by a host with a copy.
    """
    item_id = getattr(message, "item_id", None)
    master = agent.host.source_item
    if master is not None and master.item_id == item_id:
        return False
    if isinstance(message, PullPoll):
        return True
    if isinstance(message, Poll):
        return not agent.roles.is_relay(item_id)
    if isinstance(message, Invalidation):
        return not agent.roles.is_relay(item_id) and agent.host.store.peek(item_id) is None
    if isinstance(message, PushInvalidation):
        return agent.host.store.peek(item_id) is None
    return False


class BatchCounter:
    """A ``sys.setprofile`` hook over one ``_deliver_batch``: each call is
    charged to the target its loop was on (``None`` before the loop)."""

    def __init__(self) -> None:
        self._batch = None
        self._depth = 0
        self._target: Optional[int] = None
        self.calls: Dict[Optional[int], int] = {}
        #: ``calls`` of a target when its first non-plumbing frame was entered.
        self.reached_handler: Dict[int, int] = {}
        self.dispatch: Dict[Optional[int], int] = {}

    def __call__(self, frame, event, arg) -> None:
        if self._batch is None:
            if event == "call":
                self._batch = frame  # the batch's own frame
            return
        if event == "return":
            self._depth -= 1
            return
        if event not in ("call", "c_call"):
            return
        if self._depth == 0:
            self._target = self._batch.f_locals.get("target")
        target = self._target
        calls = self.calls[target] = self.calls.get(target, 0) + 1
        if event == "call":
            self._depth += 1
            name = frame.f_code.co_name
            if name in DISPATCH:
                self.dispatch[target] = self.dispatch.get(target, 0) + 1
            if name not in PLUMBING and target not in self.reached_handler:
                self.reached_handler[target] = calls

    def count(self, func, *args) -> "BatchCounter":
        sys.setprofile(self)
        try:
            func(*args)
        finally:
            sys.setprofile(None)
        self.calls[self._target] -= 1  # the ``sys.setprofile(None)`` that ended the count
        return self


def measure(spec: str) -> Dict[str, float]:
    """Median calls per bystander copy and to reach a handler."""
    config = SimulationConfig(seed=SEED, sim_time=SIM_SECONDS, warmup=0.0)
    simulation = build_simulation(config, spec, "standard")
    network, hosts = simulation.network, simulation.hosts
    deliver, deliver_batch = network._deliver, network._deliver_batch
    bystander: List[int] = []
    bystander_dispatch: List[int] = []
    reach: List[int] = []
    whole: List[int] = []
    disagreements = 0

    def counted_deliver(target: int, message: Message) -> None:
        # A unicast delivery (a flood level restores the plain method).
        host = hosts.get(target)
        if host is None or not host.online:
            deliver(target, message)
            return
        counter = CallCounter().count(deliver, target, message)
        reach.append(counter.reached_handler or counter.calls)
        whole.append(counter.calls)

    def counted_batch(targets: List[int], message: Message) -> None:
        nonlocal disagreements
        audience = network.audience(message)
        outside = {
            target: is_bystander(hosts[target].agent, message)
            for target in targets
            if hosts[target].online
        }
        if audience is not None:
            disagreements += sum(
                ignored != (target not in audience) for target, ignored in outside.items()
            )
        network._deliver = deliver
        try:
            counter = BatchCounter().count(deliver_batch, targets, message)
        finally:
            network._deliver = counted_deliver
        for target, ignored in outside.items():
            calls = counter.calls.get(target, 0)
            if ignored:
                bystander.append(calls)
                bystander_dispatch.append(counter.dispatch.get(target, 0))
            else:
                reach.append(counter.reached_handler.get(target, calls))
                whole.append(calls)

    # Instance attributes: what a flood posts and a unicast schedules.
    network._deliver = counted_deliver
    network._deliver_batch = counted_batch
    simulation.run()
    return {
        "deliveries": len(bystander) + len(whole),
        "bystanders": len(bystander),
        "bystander": statistics.median(bystander),
        "bystander_dispatch": sum(bystander_dispatch),
        "reach_handler": statistics.median(reach),
        "handled_mean": statistics.fmean(whole),
        "disagreements": disagreements,
    }


def measure_radio() -> Dict[str, float]:
    """Calls per radio event of one host's three energy hooks."""
    config = SimulationConfig(seed=SEED, sim_time=SIM_SECONDS, warmup=0.0)
    host = build_simulation(config, "pull", "standard").hosts[0]
    message = Message(sender=1)
    return {
        "transmit": CallCounter().count(host.on_transmit, message).calls,
        "receive": CallCounter().count(host.on_receive, message).calls,
        "relay": CallCounter().count(host.on_relay, message).calls / 2,
    }


def over_budget(measured: Dict[str, Dict[str, float]]) -> List[str]:
    """One line per count that exceeds :data:`REACHED` plus the headroom."""
    return [
        f"{row} {name}: {measured[row][name]:g} calls, budget {limit * HEADROOM:g}"
        for row, limits in REACHED.items()
        for name, limit in limits.items()
        if measured[row][name] > limit * HEADROOM
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 when a count exceeds its budget"
    )
    args = parser.parse_args(argv)
    measured: Dict[str, Dict[str, float]] = {}
    for spec in SPECS:
        row = measured[spec] = measure(spec)
        print(f"{spec}: {row['deliveries']} deliveries in {SIM_SECONDS:g} s, "
              f"{row['bystanders']} of them bystander")
        print(f"  calls per bystander copy     {row['bystander']:8g}")
        print(f"  bystander calls into dispatch {row['bystander_dispatch']:7g}")
        print(f"  calls to reach a handler     {row['reach_handler']:8g}")
        print(f"  calls per handled delivery   {row['handled_mean']:8.1f} (mean, whole)")
    radio = measured["radio"] = measure_radio()
    print("calls per radio event: " + ", ".join(f"{k} {v:g}" for k, v in radio.items()))
    failures = over_budget(measured) if args.check else []
    for line in failures:
        print("OVER BUDGET " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
