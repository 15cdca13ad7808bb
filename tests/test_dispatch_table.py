"""Message dispatch reaches what the ``isinstance`` ladders reached.

``BaseAgent.handle_message`` used to test ``QueryRequest`` / ``QueryReply``
and hand the rest to a per-strategy ``isinstance`` ladder in
``handle_protocol_message``; it now looks the exact message type up in a
per-class table.  ``LADDER`` below is the old ladders written down as data
(message type -> the endpoint the ladder called); every class in
``repro.consistency.messages`` is delivered to every shipped agent class
and must reach that endpoint and no other — or, with no entry, do what the
ladder's ``else`` did: raise on push and pull, stay silent on RPCC.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.consistency import messages
from repro.consistency.base import BaseAgent, ConsistencyStrategy
from repro.consistency.pull import PullAgent, PullStrategy
from repro.consistency.push import PushAgent, PushStrategy
from repro.consistency.rpcc.protocol import RPCCAgent, RPCCStrategy
from repro.consistency.uir_push import UIRPushAgent, UIRPushStrategy, UIRReport
from repro.errors import ProtocolError
from repro.net.message import Message

from tests.conftest import line_positions, make_world

M = messages

_QUERIES = {
    M.QueryRequest: "_handle_query_request",
    M.QueryReply: "_handle_query_reply",
}
#: agent class -> (strategy, what the ladder at the parent commit reached).
LADDER = {
    PushAgent: (PushStrategy, {
        **_QUERIES,
        M.PushInvalidation: "_handle_report",
        M.FetchRequest: "_handle_fetch_request",
        M.FetchReply: "_handle_fetch_reply",
    }),
    PullAgent: (PullStrategy, {
        **_QUERIES,
        M.PullPoll: "_handle_poll",
        M.PullReply: "_handle_reply",
    }),
    RPCCAgent: (RPCCStrategy, {
        **_QUERIES,
        M.Invalidation: "_handle_invalidation",
        M.Update: "_handle_update",
        M.SendNew: "relay.on_send_new",
        M.GetNew: "source.handle_get_new",
        M.Apply: "source.handle_apply",
        M.ApplyAck: "_handle_apply_ack",
        M.Cancel: "source.handle_cancel",
        M.Poll: "_handle_poll",
        M.PollAckA: "cache_peer.on_poll_ack_a",
        M.PollAckB: "cache_peer.on_poll_ack_b",
        M.PollHold: "cache_peer.on_poll_hold",
    }),
}
#: What the ladder's ``else`` did with a type it had no branch for.
RAISES_ON_UNKNOWN = {PushAgent: True, PullAgent: True, RPCCAgent: False}

MESSAGE_TYPES = sorted(
    (
        cls for _, cls in inspect.getmembers(messages, inspect.isclass)
        if issubclass(cls, Message) and cls is not Message
    ),
    key=lambda cls: cls.__name__,
)


@dataclasses.dataclass(frozen=True, slots=True)
class Stranger(Message):
    """A message no shipped strategy has heard of."""

    item_id: int = 0


class _SideSpy:
    """Stands in for an RPCC side: every method records ``side.method``."""

    def __init__(self, name, calls):
        self._name, self._calls = name, calls

    def __getattr__(self, method):
        return lambda message: self._calls.append(f"{self._name}.{method}")


def _spied_agent(agent_class, calls):
    """An agent of a fresh subclass whose every endpoint only records its name.

    A fresh subclass has a dispatch memo of its own, so nothing an earlier
    test resolved is reused — and overriding the endpoints *by name* is
    itself what ``_RandomSelectionAgent._handle_invalidation`` relies on.
    """
    strategy_class, ladder = LADDER[agent_class]
    names = {name for name in ladder.values() if "." not in name}
    spies = {
        name: (lambda self, message, name=name: calls.append(name)) for name in names
    }
    spy_class = type(f"Spied{agent_class.__name__}", (agent_class,), spies)
    world = make_world(line_positions(2), strategy_class)
    agent = spy_class(world.strategy, world.host(0))
    for side in {name.split(".")[0] for name in ladder.values() if "." in name}:
        setattr(agent, side, _SideSpy(side, calls))
    return agent


@pytest.mark.parametrize("message_type", MESSAGE_TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("agent_class", LADDER, ids=lambda cls: cls.__name__)
def test_every_message_reaches_what_the_ladder_reached(agent_class, message_type):
    calls = []
    agent = _spied_agent(agent_class, calls)
    expected = LADDER[agent_class][1].get(message_type)
    message = message_type(sender=1)
    if expected is None and RAISES_ON_UNKNOWN[agent_class]:
        with pytest.raises(ProtocolError, match=message_type.__name__):
            agent.handle_message(message)
        assert calls == []
    else:
        agent.handle_message(message)
        agent.handle_message(message)  # the memoised lookup agrees with the first
        assert calls == ([expected] * 2 if expected else [])


def test_the_table_covers_every_message_class():
    """A new class in ``messages`` must be given a row (or a reason) here."""
    assert len(MESSAGE_TYPES) == 18
    handled = set().union(*(ladder for _, ladder in LADDER.values()))
    assert handled == set(MESSAGE_TYPES)


@pytest.mark.parametrize(
    "agent_class, strategy_class",
    [(PushAgent, PushStrategy), (UIRPushAgent, UIRPushStrategy)],
)
def test_message_subclass_reaches_its_parents_handler(agent_class, strategy_class):
    """``UIRReport(PushInvalidation)`` has no entry of its own: MRO walk."""
    calls = []
    spy_class = type(
        "Spied", (agent_class,),
        {"_handle_report": lambda self, message: calls.append(type(message))},
    )
    world = make_world(line_positions(2), strategy_class)
    agent = spy_class(world.strategy, world.host(0))
    agent.handle_message(UIRReport(sender=1))
    agent.handle_message(M.PushInvalidation(sender=1))
    agent.handle_message(UIRReport(sender=1))
    assert calls == [UIRReport, M.PushInvalidation, UIRReport]


@pytest.mark.parametrize("agent_class", LADDER, ids=lambda cls: cls.__name__)
def test_unknown_message_type(agent_class):
    world = make_world(line_positions(2), LADDER[agent_class][0])
    agent = world.agent(0)
    assert type(agent) is agent_class
    for _ in range(2):  # the second time through the memo
        if RAISES_ON_UNKNOWN[agent_class]:
            with pytest.raises(ProtocolError, match="Stranger"):
                agent.handle_message(Stranger(sender=1))
        else:
            agent.handle_message(Stranger(sender=1))  # bystander noise


class _CatchAllStrategy(ConsistencyStrategy):
    def make_agent(self, host):
        return _CatchAllAgent(self, host)

    def remote_query_timeout(self):
        return 5.0


class _CatchAllAgent(BaseAgent):
    """The shape of the test stand-ins: only ``handle_protocol_message``."""

    def validate_hit(self, copy, level, job):
        raise AssertionError("not under test")

    def handle_protocol_message(self, message):
        self.seen.append(type(message))


def test_agent_overriding_only_handle_protocol_message_gets_every_message():
    world = make_world(line_positions(2), _CatchAllStrategy)
    agent = world.agent(0)
    agent.seen = []
    protocol_types = [cls for cls in MESSAGE_TYPES if cls not in _QUERIES] + [Stranger]
    for message_type in protocol_types:
        agent.handle_message(message_type(sender=1))
    assert agent.seen == protocol_types


def test_instance_level_deliver_override_sees_batched_flood_copies():
    """``tests/test_trace_mutation.py`` injects its bug through this seam."""
    world = make_world(line_positions(4), PullStrategy)
    seen = []
    original = world.network._deliver

    def recording_deliver(target, message):
        seen.append(target)
        original(target, message)

    world.network._deliver = recording_deliver
    reached = world.network.flood(0, M.PullPoll(sender=0, item_id=3), ttl=8)
    world.run(5.0)
    assert reached == 3
    assert seen[:3] == [1, 2, 3]  # then the source's unicast reply to host 0
    assert world.host(2).messages_handled == 1
