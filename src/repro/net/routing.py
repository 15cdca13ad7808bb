"""Routing policies for unicast delivery.

The network substitutes DSR [Joh96] with shortest-path routing (see
DESIGN.md): :class:`ShortestPathRouter` recomputes a BFS path per send,
always hop-optimal, and is what every simulation runs.

:class:`CachingRouter` — keep discovered routes and reuse them while
every link still exists — is selected by no public path.  It stays only
because the end-to-end benchmark harness names
``CachingRouter.find_route`` as a seam target; it goes once the harness
drops it.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.net.topology import TopologySnapshot

__all__ = ["Router", "ShortestPathRouter", "CachingRouter"]


class Router(abc.ABC):
    """Chooses the node sequence a unicast will traverse."""

    @abc.abstractmethod
    def find_route(
        self, snapshot: TopologySnapshot, source: int, target: int, now: float
    ) -> Optional[List[int]]:
        """Return a route ``[source, ..., target]`` or ``None``."""


class ShortestPathRouter(Router):
    """Hop-optimal BFS route, recomputed per send."""

    def find_route(
        self, snapshot: TopologySnapshot, source: int, target: int, now: float
    ) -> Optional[List[int]]:
        return snapshot.shortest_path(source, target)


class CachingRouter(Router):
    """Route cache with link-liveness validation and ageing.

    Parameters
    ----------
    route_ttl:
        Seconds a cached route may be reused before a fresh discovery,
        even if all its links still exist.
    """

    def __init__(self, route_ttl: float = 30.0) -> None:
        self.route_ttl = float(route_ttl)
        self._cache: Dict[Tuple[int, int], Tuple[float, List[int]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def find_route(
        self, snapshot: TopologySnapshot, source: int, target: int, now: float
    ) -> Optional[List[int]]:
        key = (source, target)
        cached = self._cache.get(key)
        if cached is not None:
            cached_at, route = cached
            if now - cached_at <= self.route_ttl and self._route_alive(
                snapshot, route
            ):
                self.hits += 1
                return list(route)
            del self._cache[key]
            self.invalidations += 1
        self.misses += 1
        route = snapshot.shortest_path(source, target)
        if route is not None and len(route) > 1:
            self._cache[key] = (now, list(route))
            # Routes are symmetric under the disc model: prime the reverse.
            self._cache[(target, source)] = (now, list(reversed(route)))
        return route

    @staticmethod
    def _route_alive(snapshot: TopologySnapshot, route: List[int]) -> bool:
        # has_edge is O(1) and returns False for offline endpoints, so one
        # pass over the links also covers node liveness (cached routes
        # always span at least two nodes).
        has_edge = snapshot.has_edge
        for hop_a, hop_b in zip(route, route[1:]):
            if not has_edge(hop_a, hop_b):
                return False
        return True

    @property
    def cached_routes(self) -> int:
        """Number of routes currently cached."""
        return len(self._cache)
