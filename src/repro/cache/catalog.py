"""Global catalog of data items and their source hosts.

Section 3 of the paper: the set of items is ``D = {D_1 .. D_n}``, each with
a unique source host, and "for simplicity" ``m = n`` with ``source(D_i) =
M_i``.  The catalog is global ground truth — protocols read versions from
it only via the source host's own master copy; metrics read it directly to
judge staleness.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.cache.item import CONTENT_SIZE, MasterCopy
from repro.errors import UnknownItemError

__all__ = ["Catalog"]


class Catalog:
    """Registry of every master copy in the system."""

    def __init__(self) -> None:
        self._items: Dict[int, MasterCopy] = {}

    @classmethod
    def one_item_per_host(
        cls, host_ids: Iterable[int], content_size: int = CONTENT_SIZE
    ) -> "Catalog":
        """Build the paper's default mapping: host ``i`` sources item ``i``."""
        catalog = cls()
        for host_id in host_ids:
            catalog.add(MasterCopy(host_id, host_id, content_size))
        return catalog

    def add(self, master: MasterCopy) -> None:
        """Register a master copy; item ids must be unique."""
        if master.item_id in self._items:
            raise UnknownItemError(f"item {master.item_id!r} already registered")
        self._items[master.item_id] = master

    def master(self, item_id: int) -> MasterCopy:
        """Look up the master copy of ``item_id``."""
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(f"unknown data item {item_id!r}") from None

    def source_of(self, item_id: int) -> int:
        """Identifier of the source host of ``item_id``."""
        return self.master(item_id).source_id

    def current_version(self, item_id: int) -> int:
        """Ground-truth version of ``item_id`` right now."""
        return self.master(item_id).version

    def items_sourced_by(self, host_id: int) -> List[int]:
        """Item ids whose source host is ``host_id``."""
        return [
            item_id
            for item_id, master in self._items.items()
            if master.source_id == host_id
        ]

    @property
    def item_ids(self) -> List[int]:
        """All registered item ids."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._items
