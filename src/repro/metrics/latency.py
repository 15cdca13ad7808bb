"""Query latency recording.

A query is *opened* when the workload issues it at a peer and *closed*
when the consistency strategy answers it.  Queries still open at the end
of a run count as unanswered (the disconnection/partition cases Section
4.5 worries about) and are reported separately rather than polluting the
latency distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ProtocolError

__all__ = ["QueryRecord", "LatencyRecorder"]

_QUERY_IDS = itertools.count(1)


@dataclass
class QueryRecord:
    """Lifecycle of one query request."""

    query_id: int
    node_id: int
    item_id: int
    level: str
    issued_at: float
    served_at: Optional[float] = None
    served_version: Optional[int] = None
    served_locally: bool = False
    cache_hit: bool = False

    @property
    def answered(self) -> bool:
        """``True`` once the query has been served."""
        return self.served_at is not None

    @property
    def latency(self) -> float:
        """Seconds from issue to answer; raises if unanswered."""
        if self.served_at is None:
            raise ProtocolError(f"query {self.query_id} was never answered")
        return self.served_at - self.issued_at


class LatencyRecorder:
    """Collects query lifecycles and summarises their latency."""

    def __init__(self) -> None:
        self._records: Dict[int, QueryRecord] = {}

    def open(self, node_id: int, item_id: int, level: str, now: float) -> QueryRecord:
        """Register a freshly issued query; returns its record."""
        record = QueryRecord(
            query_id=next(_QUERY_IDS),
            node_id=node_id,
            item_id=item_id,
            level=level,
            issued_at=now,
        )
        self._records[record.query_id] = record
        return record

    def close(
        self,
        query_id: int,
        now: float,
        served_version: int,
        served_locally: bool = False,
    ) -> Optional[QueryRecord]:
        """Mark a query answered at time ``now`` with ``served_version``.

        Unknown query ids are tolerated silently: they belong to queries
        opened before a metrics reset (warm-up) and must not crash the
        answer path.  Double-answering a *known* query is still an error.
        """
        record = self._records.get(query_id)
        if record is None:
            return None
        if record.answered:
            raise ProtocolError(f"query {query_id} answered twice")
        record.served_at = now
        record.served_version = served_version
        record.served_locally = served_locally
        return record

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def issued(self) -> int:
        """Total queries issued."""
        return len(self._records)

    @property
    def answered(self) -> int:
        """Queries answered so far."""
        return sum(1 for record in self._records.values() if record.answered)

    @property
    def unanswered(self) -> int:
        """Queries never answered (partition/disconnection casualties)."""
        return self.issued - self.answered

    def latencies(self, level: Optional[str] = None) -> List[float]:
        """All answered latencies, optionally filtered by consistency level."""
        return [
            record.latency
            for record in self._records.values()
            if record.answered and (level is None or record.level == level)
        ]

    def mean_latency(self, level: Optional[str] = None) -> float:
        """Mean answered latency in seconds (0 when nothing answered)."""
        values = self.latencies(level)
        if not values:
            return 0.0
        return math.fsum(values) / len(values)  # statistics.fmean, bit for bit

    def hit_latencies(self) -> List[float]:
        """Latencies of answered queries that hit the local cache.

        This is the population the paper's latency figures are about: a
        query served by a cache node under a consistency check.  Miss
        queries measure the (strategy-independent) fetch path instead.
        """
        return [
            record.latency
            for record in self._records.values()
            if record.answered and record.cache_hit
        ]

    def mean_hit_latency(self) -> float:
        """Mean latency over cache-hit queries (0 when there are none)."""
        values = self.hit_latencies()
        if not values:
            return 0.0
        return math.fsum(values) / len(values)  # statistics.fmean, bit for bit

    def percentile_latency(self, fraction: float, level: Optional[str] = None) -> float:
        """Latency at ``fraction`` (e.g. 0.95) of the answered distribution."""
        values = sorted(self.latencies(level))
        if not values:
            return 0.0
        index = min(len(values) - 1, int(fraction * len(values)))
        return values[index]

    def local_answer_ratio(self) -> float:
        """Fraction of answered queries served without leaving the node."""
        answered = [record for record in self._records.values() if record.answered]
        if not answered:
            return 0.0
        return sum(1 for record in answered if record.served_locally) / len(answered)

    def records(self) -> List[QueryRecord]:
        """All records (answered and not), in issue order."""
        return [self._records[qid] for qid in sorted(self._records)]
