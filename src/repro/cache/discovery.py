"""Locate the nearest node holding a copy of a data item.

Implements the "locating the nearest cache node" mechanism the paper
assumes exists: given the current topology snapshot, pick the online holder
with the smallest hop distance from the requester (ties broken by node id
for determinism).  The source host itself always counts as a holder of its
own item.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.net.topology import TopologySnapshot

__all__ = ["Discovery"]


class Discovery:
    """Nearest-copy lookup over the cache directory."""

    def __init__(self, catalog: Catalog, directory: CacheDirectory) -> None:
        self.catalog = catalog
        self.directory = directory

    def candidate_holders(self, item_id: int) -> set:
        """All nodes that could answer for ``item_id`` (caches + source)."""
        holders = self.directory.holders(item_id)
        holders.add(self.catalog.source_of(item_id))
        return holders

    def nearest_holder(
        self,
        snapshot: TopologySnapshot,
        requester: int,
        item_id: int,
        exclude: Iterable[int] = (),
    ) -> Optional[int]:
        """Nearest reachable online holder of ``item_id``.

        Returns the requester itself when it holds a copy.  Returns ``None``
        when no holder is reachable (network partition or all offline).
        """
        if requester not in snapshot:
            return None
        holders = self.candidate_holders(item_id).difference(exclude)
        return snapshot.nearest(requester, holders)

    def nearest_among(
        self,
        snapshot: TopologySnapshot,
        requester: int,
        nodes: Iterable[int],
        max_hops: Optional[int] = None,
    ) -> Optional[int]:
        """Nearest reachable node among ``nodes`` (used for relay lookup)."""
        if requester not in snapshot:
            return None
        return snapshot.nearest(requester, nodes, max_hops)
