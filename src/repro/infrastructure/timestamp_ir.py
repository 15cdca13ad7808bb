"""The Timestamp (TS) invalidation strategy of Barbara & Imielinski [Bar94].

The classical scheme the paper's related work starts from: every ``L``
seconds the MSS broadcasts an invalidation report listing the items
updated within the last ``k * L`` seconds, with their update timestamps.
A client that was awake within the report's horizon invalidates exactly
the listed items; a client that slept **longer than k*L must drop its
entire cache** — the "long disconnection problem" that motivated the
whole follow-up literature, reproduced here as an executable property.

Query model (as in [Bar94]): a client holding a query waits for the next
report; if the copy survives invalidation it answers locally, otherwise
it fetches from the MSS over the uplink.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.cache.item import CachedCopy, MasterCopy
from repro.errors import ConfigurationError
from repro.infrastructure.mss import CellClient, MSSCell
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

__all__ = ["InvalidationReport", "TSClient", "TimestampScheme"]


@dataclasses.dataclass(frozen=True, slots=True)
class InvalidationReport(Message):
    """``IR = [T, {(item, timestamp) updated in (T - k*L, T]}]``."""

    DEFAULT_SIZE: ClassVar[int] = 64
    timestamp: float = 0.0
    window: float = 0.0
    updates: Tuple[Tuple[int, float], ...] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class CellFetch(Message):
    """Client uplink fetch of one item."""

    DEFAULT_SIZE: ClassVar[int] = 48
    item_id: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class CellFetchReply(Message):
    """MSS downlink reply carrying fresh content."""

    DEFAULT_SIZE: ClassVar[int] = 48
    item_id: int = 0
    version: int = 0
    content_size: int = 1024

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", 48 + self.content_size)


class TSClient:
    """Client side of the TS scheme: cache + report processing."""

    def __init__(self, cell: MSSCell, client: CellClient, scheme: "TimestampScheme") -> None:
        self.cell = cell
        self.client = client
        self.scheme = scheme
        self.cache: Dict[int, CachedCopy] = {}
        self.last_report_time: Optional[float] = None
        self._waiting: List[Tuple[int, Callable[[Optional[int]], None]]] = []
        self._fetch_callbacks: Dict[int, List[Callable[[Optional[int]], None]]] = {}
        self.cache_drops = 0
        client.inbox = self.handle

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, item_id: int, callback: Callable[[Optional[int]], None]) -> None:
        """Ask for ``item_id``; ``callback(version)`` fires when served.

        Per [Bar94] the client must wait for the next IR before trusting
        its cache, so the query parks until then.
        """
        self._waiting.append((item_id, callback))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        if isinstance(message, InvalidationReport):
            self._handle_report(message)
        elif isinstance(message, CellFetchReply):
            self._handle_fetch_reply(message)

    def _handle_report(self, report: InvalidationReport) -> None:
        now = self.scheme.sim.now
        gap_start = self.last_report_time
        self.last_report_time = now
        slept_too_long = (
            gap_start is None
            or report.timestamp - gap_start > report.window
        )
        if slept_too_long and self.cache:
            # The report cannot vouch for anything this old: drop it all.
            self.cache.clear()
            self.cache_drops += 1
        else:
            for item_id, updated_at in report.updates:
                copy = self.cache.get(item_id)
                if copy is not None and copy.fetched_at < updated_at:
                    del self.cache[item_id]
        self._serve_waiting()

    def _serve_waiting(self) -> None:
        waiting, self._waiting = self._waiting, []
        for item_id, callback in waiting:
            copy = self.cache.get(item_id)
            if copy is not None:
                callback(copy.version)
            else:
                self._fetch(item_id, callback)

    def _fetch(self, item_id: int, callback: Callable[[Optional[int]], None]) -> None:
        self._fetch_callbacks.setdefault(item_id, []).append(callback)
        sent = self.cell.uplink(
            self.client.client_id, CellFetch(sender=self.client.client_id, item_id=item_id)
        )
        if not sent:
            for cb in self._fetch_callbacks.pop(item_id, []):
                cb(None)

    def _handle_fetch_reply(self, message: CellFetchReply) -> None:
        copy = CachedCopy(
            message.item_id, message.version, message.content_size,
            self.scheme.sim.now,
        )
        self.cache[message.item_id] = copy
        for callback in self._fetch_callbacks.pop(message.item_id, []):
            callback(message.version)


class TimestampScheme:
    """The MSS side plus factory for TS clients.

    Parameters
    ----------
    sim / cell:
        Substrate.
    report_interval:
        ``L`` — seconds between invalidation reports.
    history_windows:
        ``k`` — the report covers the last ``k * L`` seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        cell: MSSCell,
        report_interval: float = 20.0,
        history_windows: int = 3,
    ) -> None:
        if report_interval <= 0:
            raise ConfigurationError(
                f"report_interval must be positive, got {report_interval!r}"
            )
        if history_windows < 1:
            raise ConfigurationError(
                f"history_windows must be >= 1, got {history_windows!r}"
            )
        self.sim = sim
        self.cell = cell
        self.report_interval = float(report_interval)
        self.history_windows = int(history_windows)
        self._update_log: List[Tuple[float, int]] = []  # (time, item)
        self._timer = PeriodicTimer(sim, self.report_interval, self._broadcast_report)
        self.clients: Dict[int, TSClient] = {}
        cell.set_mss_handler(self._handle_uplink)
        self.reports_sent = 0

    @property
    def window(self) -> float:
        """The report horizon ``k * L`` in seconds."""
        return self.history_windows * self.report_interval

    def make_client(self, client: CellClient) -> TSClient:
        """Attach the TS client logic to a cell client."""
        ts_client = TSClient(self.cell, client, self)
        self.clients[client.client_id] = ts_client
        return ts_client

    def start(self) -> None:
        """Begin periodic report broadcasting."""
        self._timer.start()

    # ------------------------------------------------------------------
    # MSS side
    # ------------------------------------------------------------------
    def record_update(self, master: MasterCopy) -> None:
        """Note that ``master`` just changed (call after ``update``)."""
        self._update_log.append((self.sim.now, master.item_id))

    def _broadcast_report(self) -> None:
        now = self.sim.now
        horizon = now - self.window
        self._update_log = [
            entry for entry in self._update_log if entry[0] > horizon
        ]
        latest: Dict[int, float] = {}
        for when, item_id in self._update_log:
            latest[item_id] = max(latest.get(item_id, 0.0), when)
        report = InvalidationReport(
            sender=-1,
            timestamp=now,
            window=self.window,
            updates=tuple(sorted(latest.items())),
        )
        self.reports_sent += 1
        self.cell.broadcast(report)

    def _handle_uplink(self, client_id: int, message: Message) -> None:
        if isinstance(message, CellFetch):
            master = self.cell.item(message.item_id)
            reply = CellFetchReply(
                sender=-1,
                item_id=master.item_id,
                version=master.version,
                content_size=master.content_size,
            )
            self.cell.unicast_down(client_id, reply)
