"""Cache replacement policies.

The paper assumes "an independent mechanism for replica placement"; the
store still needs a victim-selection rule when a fetch lands in a full
cache.  LRU is the default; LFU and FIFO exist for the placement
ablation, and the value/utility-based family the Joy & Jacob MANET
survey catalogs (PAPERS.md) is represented by a TTL-aware value policy,
a size-utility policy with admission grace, and LRU-K.

Every policy implements the uniform :class:`CachePolicy` interface:
``victim`` picks the eviction candidate, and the optional
``on_insert``/``on_access``/``on_remove`` lifecycle hooks (no-ops by
default) let stateful policies such as LRU-K maintain per-item history
the :class:`~repro.cache.item.CachedCopy` itself does not carry.  The
:class:`~repro.cache.store.CacheStore` drives the hooks on every
membership change and hit.

Policies are discoverable by name through the
:data:`~repro.scenarios.registry.POLICIES` registry
(``@register_policy``); :func:`policy_factory` resolves a name and the
context parameters (``ttl``, ``clock``) its constructor accepts once,
for a caller that builds one policy per host.  The
chosen name rides on ``SimulationConfig.replacement_policy`` and
therefore hashes into the result-cache key.
"""

from __future__ import annotations

import abc
import functools
import inspect
from typing import Callable, Dict, List, Optional

from repro.cache.item import CachedCopy
from repro.errors import CacheError
from repro.scenarios.registry import POLICIES, register_policy

__all__ = [
    "CachePolicy",
    "ReplacementPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "FIFOPolicy",
    "TTLValuePolicy",
    "SizeUtilityPolicy",
    "LRUKPolicy",
    "POLICIES",
    "policy_factory",
]


class CachePolicy(abc.ABC):
    """Chooses which cached copy to evict from a full cache.

    Stateful policies (LRU-K, admission-grace utility) rely on the
    lifecycle hooks below, so one policy instance must serve exactly one
    :class:`~repro.cache.store.CacheStore`.
    """

    # One policy per host: the shipped policies declare their state as
    # slots.  A subclass that declares none simply keeps its ``__dict__``.
    __slots__ = ()

    name: str = "abstract"

    @abc.abstractmethod
    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        """Return the item id to evict.  ``copies`` is non-empty."""

    # -- lifecycle hooks (no-ops for stateless policies) ----------------
    def on_insert(self, copy: CachedCopy) -> None:
        """A copy entered the store (or was replaced in place)."""

    def on_access(self, copy: CachedCopy, now: float) -> None:
        """A cached copy served a hit at time ``now``."""

    def on_remove(self, item_id: int) -> None:
        """A copy left the store (eviction, discard, or clear)."""


#: Historical name for the same interface, kept for existing callers.
ReplacementPolicy = CachePolicy


@register_policy("lru")
class LRUPolicy(CachePolicy):
    """Evict the least-recently accessed copy."""

    __slots__ = ()
    name = "lru"

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        return min(copies.values(), key=lambda c: (c.last_access, c.item_id)).item_id


@register_policy("lfu")
class LFUPolicy(CachePolicy):
    """Evict the least-frequently accessed copy (ties: oldest access)."""

    __slots__ = ()
    name = "lfu"

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        return min(
            copies.values(),
            key=lambda c: (c.access_count, c.last_access, c.item_id),
        ).item_id


@register_policy("fifo")
class FIFOPolicy(CachePolicy):
    """Evict the copy fetched earliest."""

    __slots__ = ()
    name = "fifo"

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        return min(copies.values(), key=lambda c: (c.fetched_at, c.item_id)).item_id


@register_policy("ttl-value")
class TTLValuePolicy(CachePolicy):
    """TTL-aware value-based eviction (survey: value/utility family).

    A copy's value is its remaining freshness window times its observed
    popularity: ``max(0, fetched_at + ttl - now) * (1 + access_count)``.
    Copies whose freshness window has lapsed are worth zero — they would
    need a validation round-trip anyway — so they go first; among equals
    the least recently used oldest id goes.

    ``clock`` supplies "now" (the simulation clock when wired by the
    runner); without one the policy falls back to the newest access
    timestamp among the resident copies, which keeps standalone stores
    deterministic.
    """

    __slots__ = ("ttl", "clock")
    name = "ttl-value"

    def __init__(
        self, ttl: float = 240.0, clock: Optional[Callable[[], float]] = None
    ) -> None:
        if ttl <= 0:
            raise CacheError(f"ttl must be positive, got {ttl!r}")
        self.ttl = float(ttl)
        self.clock = clock

    def _now(self, copies: Dict[int, CachedCopy]) -> float:
        if self.clock is not None:
            return self.clock()
        return max(max(c.last_access, c.fetched_at) for c in copies.values())

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        now = self._now(copies)

        def value(c: CachedCopy):
            remaining = max(0.0, c.fetched_at + self.ttl - now)
            return (remaining * (1 + c.access_count), c.last_access, c.item_id)

        return min(copies.values(), key=value).item_id


@register_policy("size-utility")
class SizeUtilityPolicy(CachePolicy):
    """Cost/size utility eviction with one-round admission grace.

    Utility is popularity per byte, ``(1 + access_count) /
    content_size`` — the greedy-dual intuition that a rarely used large
    copy wastes the most cache.  The most recently *admitted* copy is
    exempt from the next victim selection (unless it is the only
    resident), so a burst of inserts cannot thrash a copy straight back
    out before it has had any chance to earn hits.
    """

    __slots__ = ("_last_admitted",)
    name = "size-utility"

    def __init__(self) -> None:
        self._last_admitted: Optional[int] = None

    def on_insert(self, copy: CachedCopy) -> None:
        self._last_admitted = copy.item_id

    def on_remove(self, item_id: int) -> None:
        if self._last_admitted == item_id:
            self._last_admitted = None

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        candidates = [
            c for c in copies.values() if c.item_id != self._last_admitted
        ] or list(copies.values())
        return min(
            candidates,
            key=lambda c: (
                (1 + c.access_count) / c.content_size,
                c.last_access,
                c.item_id,
            ),
        ).item_id


@register_policy("lru-k")
class LRUKPolicy(CachePolicy):
    """Classic LRU-K: evict by the K-th most recent access time.

    The policy keeps the last ``k`` access instants per resident item
    (admission counts as the first access).  The victim is the copy
    whose K-th most recent access lies furthest in the past; copies with
    fewer than K recorded accesses sort before all fully-historied ones
    (their K-th access is "minus infinity"), oldest last-access first.
    At ``k=1`` the backward-K distance *is* the last access, so the
    policy degenerates exactly to LRU — a property test pins that.
    """

    __slots__ = ("k", "_history")
    name = "lru-k"

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise CacheError(f"lru-k needs k >= 1, got {k!r}")
        self.k = int(k)
        self._history: Dict[int, List[float]] = {}

    def _record(self, item_id: int, when: float) -> None:
        history = self._history.setdefault(item_id, [])
        history.append(when)
        if len(history) > self.k:
            del history[0]

    def on_insert(self, copy: CachedCopy) -> None:
        self._record(copy.item_id, copy.last_access)

    def on_access(self, copy: CachedCopy, now: float) -> None:
        self._record(copy.item_id, now)

    def on_remove(self, item_id: int) -> None:
        self._history.pop(item_id, None)

    def victim(self, copies: Dict[int, CachedCopy]) -> int:
        def backward_k(c: CachedCopy):
            history = self._history.get(c.item_id, ())
            kth = history[0] if len(history) >= self.k else float("-inf")
            return (kth, c.last_access, c.item_id)

        return min(copies.values(), key=backward_k).item_id


@functools.cache
def _accepted_parameters(factory: Callable[..., CachePolicy]) -> frozenset:
    """Constructor parameter names of ``factory``, resolved once each.

    ``inspect.signature`` of a class without its own ``__init__`` parses
    ``object.__init__``'s text signature — compiling source per call.
    """
    return frozenset(inspect.signature(factory).parameters)


def policy_factory(name: str, **context) -> Callable[[], CachePolicy]:
    """Resolve a registered policy once; each call of the result builds one.

    ``context`` may carry wiring the caller has on hand (``ttl=``,
    ``clock=``, ``k=``); only the parameters the policy's constructor
    declares are bound, so stateless policies ignore all of it.  The
    registry lookup and the parameter filtering happen here, not per
    instance: a world builder calls this once and the result once per
    host.  Unknown names raise :class:`~repro.errors.CacheError` (the
    cache layer's historical contract).
    """
    from repro.errors import ConfigurationError

    try:
        factory = POLICIES.get(name)
    except ConfigurationError:
        raise CacheError(
            f"unknown replacement policy {name!r}; choose from {POLICIES.names()}"
        ) from None
    accepted = _accepted_parameters(factory)
    kwargs = {key: value for key, value in context.items() if key in accepted}
    return functools.partial(factory, **kwargs)
