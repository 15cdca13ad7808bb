"""Relay-peer role state machine (Fig 5 of the paper).

Per *(node, item)* pair a host is in one of three states::

    CACHE_NODE  --eligible & INVALIDATION heard-->  CANDIDATE
    CANDIDATE   --APPLY_ACK / UPDATE received---->  RELAY
    CANDIDATE   --conditions fail---------------->  CACHE_NODE
    RELAY       --conditions fail (sends CANCEL)->  CACHE_NODE

Eligibility itself (eq 4.2.8) is node-level — it comes from the
coefficient tracker — while promotion is negotiated per item with that
item's source host, so the *role* is tracked per item here.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set

from repro.consistency.base import EMPTY_MAP

__all__ = ["Role", "RoleTable"]


class Role(enum.Enum):
    """Per-item role of a host (Fig 5 states)."""

    CACHE_NODE = "cache"
    CANDIDATE = "candidate"
    RELAY = "relay"


class RoleTable:
    """Tracks the Fig 5 state per cached item of one host.

    ``relays`` is the run-global item -> relaying hosts index this table
    keeps current for host ``node_id`` (``RPCCStrategy.relays``; a private
    one when omitted): every move into or out of ``RELAY`` updates it.
    """

    __slots__ = ("_roles", "_node_id", "_relays", "promotions", "demotions")

    def __init__(self, node_id: int = -1, relays: Optional[Dict[int, Set[int]]] = None) -> None:
        # The shared EMPTY_MAP until the host's first role change.
        self._roles: Dict[int, Role] = EMPTY_MAP
        self._node_id = node_id
        self._relays: Dict[int, Set[int]] = {} if relays is None else relays
        self.promotions = 0
        self.demotions = 0

    def role(self, item_id: int) -> Role:
        """Current role for ``item_id`` (default ``CACHE_NODE``)."""
        return self._roles.get(item_id, Role.CACHE_NODE)

    def is_relay(self, item_id: int) -> bool:
        """``True`` when this host relays ``item_id``."""
        return self._roles.get(item_id) is Role.RELAY

    def is_candidate(self, item_id: int) -> bool:
        """``True`` when an APPLY is outstanding for ``item_id``."""
        return self._roles.get(item_id) is Role.CANDIDATE

    def become_candidate(self, item_id: int) -> None:
        """CACHE_NODE -> CANDIDATE (an APPLY was just sent)."""
        if self._roles.get(item_id) is Role.RELAY:
            self._relays[item_id].discard(self._node_id)
        self._own_roles()[item_id] = Role.CANDIDATE

    def promote(self, item_id: int) -> None:
        """CANDIDATE -> RELAY (APPLY_ACK, or UPDATE per Fig 6(d))."""
        if self._roles.get(item_id) is not Role.RELAY:
            self.promotions += 1
            self._relays.setdefault(item_id, set()).add(self._node_id)
        self._own_roles()[item_id] = Role.RELAY

    def _own_roles(self) -> Dict[int, Role]:
        """The table's own map, made on its first write."""
        if self._roles is EMPTY_MAP:
            self._roles = {}
        return self._roles

    def demote(self, item_id: int) -> None:
        """Any state -> CACHE_NODE."""
        previous = self._roles.pop(item_id, Role.CACHE_NODE)
        if previous is Role.RELAY:
            self.demotions += 1
            self._relays[item_id].discard(self._node_id)

    def relay_items(self) -> List[int]:
        """Items this host currently relays."""
        return [item for item, role in self._roles.items() if role is Role.RELAY]

    def candidate_items(self) -> List[int]:
        """Items with an outstanding APPLY."""
        return [item for item, role in self._roles.items() if role is Role.CANDIDATE]

    def tracked_items(self) -> List[int]:
        """Items in any non-default state."""
        return list(self._roles)

    @property
    def relay_count(self) -> int:
        """Number of items this host relays."""
        return sum(1 for role in self._roles.values() if role is Role.RELAY)
