"""Protocol messages.

The RPCC message set mirrors Fig 6(a) of the paper exactly
(``UPDATE``, ``INVALIDATION``, ``GET_NEW``, ``SEND_NEW``, ``APPLY``,
``APPLY_ACK``, ``CANCEL``, ``POLL``, ``POLL_ACK_A``, ``POLL_ACK_B``).
The simple push/pull baselines and the shared cache-miss fetch path add a
few generic messages of their own.

Control messages default to 48 bytes; messages carrying data content add
the item's payload size, so byte-level traffic reflects that
``POLL_ACK_B``/``SEND_NEW``/``UPDATE`` ship whole objects while
``INVALIDATION`` and ``POLL`` are tiny.
"""

from __future__ import annotations

import itertools
from typing import ClassVar

from repro.net.message import Message, message_class

__all__ = [
    "CONTROL_SIZE",
    "next_poll_id",
    "next_fetch_id",
    "next_request_id",
    "QueryRequest",
    "QueryReply",
    "Update",
    "Invalidation",
    "GetNew",
    "SendNew",
    "Apply",
    "ApplyAck",
    "Cancel",
    "Poll",
    "PollAckA",
    "PollAckB",
    "PollHold",
    "PushInvalidation",
    "PullPoll",
    "PullReply",
    "FetchRequest",
    "FetchReply",
    "RPCC_PUSH_TYPES",
    "RPCC_PULL_TYPES",
]

CONTROL_SIZE = 48

_POLL_IDS = itertools.count(1)
_FETCH_IDS = itertools.count(1)
_REQUEST_IDS = itertools.count(1)


def next_poll_id() -> int:
    """Unique id correlating a poll with its acknowledgements."""
    return next(_POLL_IDS)


def next_fetch_id() -> int:
    """Unique id correlating a fetch request with its reply."""
    return next(_FETCH_IDS)


def next_request_id() -> int:
    """Unique id correlating a remote query with its reply."""
    return next(_REQUEST_IDS)


# ----------------------------------------------------------------------
# RPCC message set (Fig 6(a))
# ----------------------------------------------------------------------
@message_class
class Update(Message):
    """``UPDATE(ID, OP, RP, CT, VER)`` — source pushes new content to a relay."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    content_size: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + self.content_size)


@message_class
class Invalidation(Message):
    """``INVALIDATION(ID, OP, VER)`` — periodic TTL-limited version beacon."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    is_invalidation: ClassVar[bool] = True
    item_id: int = 0
    version: int = 0


@message_class
class GetNew(Message):
    """``GET_NEW(ID, OP, RP)`` — relay asks the source for the latest content."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0


@message_class
class SendNew(Message):
    """``SEND_NEW(ID, RP, CT, VER)`` — source ships fresh content to a relay."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    content_size: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + self.content_size)


@message_class
class Apply(Message):
    """``APPLY(ID, OP, RP)`` — candidate asks to be promoted to relay peer."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0


@message_class
class ApplyAck(Message):
    """``APPLY_ACK(ID, OP, RP)`` — source approves the promotion."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    relay_id: int = 0


@message_class
class Cancel(Message):
    """``CANCEL(ID, OP, RP)`` — relay resigns back to plain cache node."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0


@message_class
class Poll(Message):
    """``POLL(ID, CP, VER)`` — cache peer asks nearby relays to validate."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    poll_id: int = 0


@message_class
class PollAckA(Message):
    """``POLL_ACK_A(ID, CP, VER)`` — cache peer's copy is up to date."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    poll_id: int = 0


@message_class
class PollHold(Message):
    """Reproduction addition: "your poll is queued, hold on".

    A relay whose TTR expired holds polls until its next ``INVALIDATION``
    (Fig 6(c) line 17).  Without a hold notice the poller cannot tell a
    queueing relay from a dead one and needlessly escalates every held
    poll into wide broadcast floods.  One control-size unicast fixes that,
    and every queued poll gets one.
    """

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    poll_id: int = 0


@message_class
class PollAckB(Message):
    """``POLL_ACK_B(ID, CP, VER, CT)`` — copy was stale; fresh content attached."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    poll_id: int = 0
    content_size: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + self.content_size)


# ----------------------------------------------------------------------
# Baseline strategies
# ----------------------------------------------------------------------
@message_class
class PushInvalidation(Message):
    """Simple push: periodic invalidation report flooded with TTL_BR."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    is_invalidation: ClassVar[bool] = True
    item_id: int = 0
    version: int = 0


@message_class
class PullPoll(Message):
    """Simple pull: on-demand poll flooded towards the source host."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    poll_id: int = 0


@message_class
class PullReply(Message):
    """Simple pull: source's answer; carries content when the copy was stale."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    poll_id: int = 0
    up_to_date: bool = True
    content_size: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            extra = 0 if self.up_to_date else self.content_size
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + extra)


# ----------------------------------------------------------------------
# Shared remote-query path (discovery routes a query to a holder)
# ----------------------------------------------------------------------
@message_class
class QueryRequest(Message):
    """A query forwarded to the nearest holder of the item."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    request_id: int = 0
    level_label: str = "strong"


@message_class
class QueryReply(Message):
    """The holder's validated answer; always carries the content.

    ``fallback`` is ``True`` when the holder answered without completing
    its level's validation (give-up / forced-stale paths); the querying
    node propagates the flag into its ``read_served`` trace event.
    """

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    request_id: int = 0
    content_size: int = 0
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + self.content_size)


# ----------------------------------------------------------------------
# Internal refresh path (push: holder refreshes a stale copy from source)
# ----------------------------------------------------------------------
@message_class
class FetchRequest(Message):
    """Ask the source for fresh content of a stale copy."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    fetch_id: int = 0


@message_class
class FetchReply(Message):
    """The source's fresh content in response to a ``FetchRequest``."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE
    item_id: int = 0
    version: int = 0
    fetch_id: int = 0
    content_size: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", CONTROL_SIZE + self.content_size)


#: RPCC message types on the push (source -> relay) side of the overlay.
RPCC_PUSH_TYPES = (
    "Invalidation",
    "Update",
    "GetNew",
    "SendNew",
    "Apply",
    "ApplyAck",
    "Cancel",
)

#: RPCC message types on the pull (cache peer -> relay) side.
RPCC_PULL_TYPES = ("Poll", "PollAckA", "PollAckB", "PollHold")
