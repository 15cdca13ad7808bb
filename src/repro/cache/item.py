"""Data items: master copies and cached copies.

Following Section 3 of the paper: every data item has a unique identifier
and a unique *source host*; the copy held by the source host is the
*master copy* and is the only copy that may be modified.  Version numbers
start at zero and increase by one on each update, so ``version`` ordering
is the ground truth for all consistency reasoning.
"""

from __future__ import annotations

from repro.errors import UnknownItemError

__all__ = ["MasterCopy", "CachedCopy"]


class MasterCopy:
    """The authoritative copy of a data item at its source host.

    Parameters
    ----------
    item_id:
        Unique data-item identifier (``D_i``).
    source_id:
        Identifier of the source host (``M_i``); the paper assumes
        ``source(D_i) = M_i``.
    content_size:
        Payload size in bytes, used for data-transfer messages.
    """

    __slots__ = (
        "item_id",
        "source_id",
        "content_size",
        "version",
        "created_at",
        "updated_at",
        "update_count",
    )

    def __init__(self, item_id: int, source_id: int, content_size: int = 1024) -> None:
        if content_size <= 0:
            raise UnknownItemError(f"content_size must be positive, got {content_size!r}")
        self.item_id = item_id
        self.source_id = source_id
        self.content_size = int(content_size)
        self.version = 0
        self.created_at = 0.0
        self.updated_at = 0.0
        self.update_count = 0

    def update(self, now: float) -> int:
        """Apply one modification at time ``now``; returns the new version."""
        self.version += 1
        self.update_count += 1
        self.updated_at = now
        return self.version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MasterCopy(item={self.item_id}, src={self.source_id}, v{self.version})"


class CachedCopy:
    """A replica of a data item held at a cache node.

    Mirrors the paper's cache-data tuple ``<ID, CT, CL, VER, TTP>`` —
    content is modelled by its size, and the freshness window (TTP or TTR,
    depending on the holder's role) is managed by the consistency protocol,
    not by the copy itself.
    """

    __slots__ = (
        "item_id",
        "version",
        "content_size",
        "fetched_at",
        "last_access",
        "access_count",
    )

    def __init__(
        self,
        item_id: int,
        version: int,
        content_size: int,
        now: float,
    ) -> None:
        self.item_id = item_id
        self.version = version
        self.content_size = int(content_size)
        self.fetched_at = now
        self.last_access = now
        self.access_count = 0

    def refresh(self, version: int, now: float) -> None:
        """Replace the replica's payload with version ``version``."""
        if version < self.version:
            raise UnknownItemError(
                f"refusing to downgrade item {self.item_id} from "
                f"v{self.version} to v{version}"
            )
        self.version = version
        self.fetched_at = now

    def touch(self, now: float) -> None:
        """Record a local access (drives LRU/LFU replacement and PAR)."""
        self.last_access = now
        self.access_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedCopy(item={self.item_id}, v{self.version})"
