"""Cache directory: who currently caches which data item.

The paper assumes "the system has an independent mechanism for replica
placement and for locating the nearest cache node" (end of Section 3).
This directory *is* that mechanism: an oracle kept current by the cache
stores' insert/evict callbacks.  Keeping it an oracle (rather than a
discovery protocol) is faithful to the paper and keeps the traffic figures
about *consistency* messages only — exactly what Fig 7 measures.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Set

__all__ = ["CacheDirectory"]

_NOBODY: AbstractSet[int] = frozenset()


class _StoreBinding:
    """One node's membership callbacks: ``(directory, node_id)`` held once.

    Two bound methods of one slotted object, where a pair of closures
    would be two functions and two cells per host.
    """

    __slots__ = ("_directory", "_node_id")

    def __init__(self, directory: "CacheDirectory", node_id: int) -> None:
        self._directory = directory
        self._node_id = node_id

    def on_insert(self, item_id: int) -> None:
        self._directory.add(item_id, self._node_id)

    def on_evict(self, item_id: int) -> None:
        self._directory.remove(item_id, self._node_id)


class CacheDirectory:
    """Mapping from item id to the set of nodes holding a cached copy."""

    def __init__(self) -> None:
        self._holders: Dict[int, Set[int]] = {}

    def add(self, item_id: int, node_id: int) -> None:
        """Record that ``node_id`` now caches ``item_id``."""
        self._holders.setdefault(item_id, set()).add(node_id)

    def remove(self, item_id: int, node_id: int) -> None:
        """Record that ``node_id`` no longer caches ``item_id``."""
        holders = self._holders.get(item_id)
        if holders is None:
            return
        holders.discard(node_id)
        if not holders:
            del self._holders[item_id]

    def holders(self, item_id: int) -> Set[int]:
        """Nodes currently caching ``item_id`` (possibly empty)."""
        return set(self._holders.get(item_id, ()))

    def holder_set(self, item_id: int) -> AbstractSet[int]:
        """Nodes currently caching ``item_id``: the live set, not a copy."""
        return self._holders.get(item_id, _NOBODY)

    def holder_count(self, item_id: int) -> int:
        """Number of nodes caching ``item_id``."""
        return len(self._holders.get(item_id, ()))

    def items_cached_anywhere(self) -> List[int]:
        """Item ids with at least one cached copy."""
        return list(self._holders)

    def bind_store(self, node_id: int) -> tuple:
        """Build ``(on_insert, on_evict)`` callbacks for one node's store."""
        binding = _StoreBinding(self, node_id)
        return binding.on_insert, binding.on_evict
