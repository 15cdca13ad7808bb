"""Per-host cache store with bounded capacity and pluggable replacement.

Each mobile host can cache ``C_Num`` data items (Table 1 default: 10).
The store tracks hits/misses/evictions and notifies an optional listener on
membership changes so the global cache directory stays current.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.cache.item import CachedCopy
from repro.cache.replacement import CachePolicy, LRUPolicy, ReplacementPolicy
from repro.errors import CacheCapacityError

__all__ = ["CacheStore"]


class CacheStore:
    """Bounded collection of :class:`~repro.cache.item.CachedCopy` objects.

    Parameters
    ----------
    capacity:
        Maximum number of cached items (``C_Num``).
    policy:
        Replacement policy; LRU by default.  The store drives the
        policy's :class:`~repro.cache.replacement.CachePolicy` lifecycle
        hooks on every insert, hit and removal, so stateful policies
        (LRU-K and friends) stay consistent with the store's contents —
        which also means a policy instance must not be shared between
        stores.
    on_insert / on_evict:
        Optional callbacks ``(item_id) -> None`` fired on membership change
        (used to maintain the global cache directory).
    """

    __slots__ = (
        "capacity",
        "policy",
        "_copies",
        "_on_insert",
        "_on_evict",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(
        self,
        capacity: int,
        policy: Optional[ReplacementPolicy] = None,
        on_insert: Optional[Callable[[int], None]] = None,
        on_evict: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise CacheCapacityError(f"cache capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self.policy = policy if policy is not None else LRUPolicy()
        self._copies: Dict[int, CachedCopy] = {}
        self._on_insert = on_insert
        self._on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._copies)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._copies

    def __iter__(self) -> Iterator[int]:
        """Ids of the cached items, without a copy.

        For loops that leave membership alone; take :attr:`item_ids`
        when the body inserts or removes.
        """
        return iter(self._copies)

    @property
    def item_ids(self) -> List[int]:
        """Ids of all currently cached items (a fresh list)."""
        return list(self._copies)

    @property
    def full(self) -> bool:
        """``True`` when the store holds ``capacity`` items."""
        return len(self._copies) >= self.capacity

    def peek(self, item_id: int) -> Optional[CachedCopy]:
        """Return the copy without recording an access (or ``None``)."""
        return self._copies.get(item_id)

    def get(self, item_id: int, now: float) -> Optional[CachedCopy]:
        """Return the copy and record a cache access; counts hit/miss."""
        copy = self._copies.get(item_id)
        if copy is None:
            self.misses += 1
            return None
        self.hits += 1
        copy.touch(now)
        self.policy.on_access(copy, now)
        return copy

    @property
    def hit_ratio(self) -> float:
        """Fraction of :meth:`get` calls that hit; 0 before any access."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, copy: CachedCopy) -> Optional[int]:
        """Insert ``copy``, evicting a victim when full.

        Returns the evicted item id, or ``None`` when nothing was evicted.
        Re-inserting an already-cached item replaces it in place.
        """
        evicted: Optional[int] = None
        if copy.item_id not in self._copies and self.full:
            victim_id = self.policy.victim(self._copies)
            self._remove(victim_id)
            self.evictions += 1
            evicted = victim_id
        is_new = copy.item_id not in self._copies
        self._copies[copy.item_id] = copy
        self.policy.on_insert(copy)
        if is_new and self._on_insert is not None:
            self._on_insert(copy.item_id)
        return evicted

    def discard(self, item_id: int) -> bool:
        """Remove ``item_id`` if present; returns whether it was cached."""
        if item_id not in self._copies:
            return False
        self._remove(item_id)
        return True

    def _remove(self, item_id: int) -> None:
        del self._copies[item_id]
        self.policy.on_remove(item_id)
        if self._on_evict is not None:
            self._on_evict(item_id)
