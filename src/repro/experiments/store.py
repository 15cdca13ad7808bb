"""One-table result store: the campaign persistence layer.

A store directory holds one SQLite database, ``runs.sqlite``, with one
table ``runs(key TEXT PRIMARY KEY, payload BLOB, crc INTEGER)``: the
run's content address (:func:`repro.experiments.executor.run_key`), its
:class:`RunRecord` fields in order as one JSON array, and the payload's
CRC-32.  A read checks the CRC and that the payload holds the key asked
for, so a damaged file raises :class:`StoreFormatError` instead of
serving different numbers.  :meth:`ResultStore.put_many` is one
transaction: a crash (``kill -9`` included) keeps every earlier commit
and none of the torn one, which SQLite's rollback journal undoes on the
next open.  Equal keys imply equal results, so two campaigns sharing a
directory write the same record for a key; SQLite's file lock
serialises their commits.  Each call opens its own connection and closes
it before returning, so none crosses a process-pool fork.
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.metrics.collector import MetricsSummary
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "STORE_FORMAT_VERSION",
    "DEFAULT_STORE_DIR",
    "RunRecord",
    "ResultStore",
    "StoreFormatError",
]

#: Bump whenever a change alters what a stored result means or how it is
#: encoded (new metrics, changed simulation semantics, a payload layout
#: change).  It is the database's ``PRAGMA user_version`` and salts
#: :func:`repro.experiments.executor.run_key`, so an old store is refused
#: loudly instead of resurfacing stale numbers.
STORE_FORMAT_VERSION = 3  # v3: one SQLite table of JSON payloads

#: Where the CLI keeps its store unless ``--store`` moves it.
DEFAULT_STORE_DIR = os.path.join("results", ".store")

#: Keys per ``SELECT ... IN (...)`` (below SQLite's bound-parameter limit).
_LOOKUP_CHUNK = 500

#: ``json.dumps`` without the per-call setup; records hold no cycles.
_ENCODE = json.JSONEncoder(check_circular=False, separators=(",", ":")).encode


class StoreFormatError(SimulationError):
    """The store's database could not be read as this store format."""


@dataclass(frozen=True)
class RunRecord:
    """One finished run, reduced to the store's fixed schema."""

    key: str
    spec: str
    scenario: str
    seed: int
    sim_time: float
    transmissions: int
    messages: int
    bytes_on_air: int
    queries_issued: int
    queries_answered: int
    queries_unanswered: int
    mean_latency: float
    mean_hit_latency: float
    p95_latency: float
    local_answer_ratio: float
    stale_ratio: float
    violation_ratio: float
    mean_staleness_age: float
    total_queries: int
    total_updates: int
    energy_consumed: float
    mean_battery_fraction: float
    wall_clock_seconds: float
    events_processed: int
    transmissions_by_type: Dict[str, int]
    counters: Dict[str, int]
    fault_stats: Dict[str, float]
    topology_stats: Dict[str, int]
    relay_samples: List[List[float]]
    traffic_series: Optional[Dict[str, object]]
    control_decisions: List[Dict[str, object]]

    def __post_init__(self) -> None:
        # Each int and float field holds exactly that type: a float field
        # handed an int is written, and so read back, as a float.
        for name, cast in _SCALAR_CASTS:
            object.__setattr__(self, name, cast(getattr(self, name)))

    @classmethod
    def from_result(cls, key: str, result) -> "RunRecord":
        """Reduce a :class:`SimulationResult` to a storable record."""
        summary = result.summary
        series = result.traffic_series
        series_payload = None
        if series is not None:
            series_payload = {
                "name": series.name,
                "times": series.times,
                "values": series.values,
            }
        return cls(
            key=key,
            spec=result.spec,
            scenario=result.scenario,
            seed=int(result.config.seed),
            sim_time=float(result.config.sim_time),
            transmissions=summary.transmissions,
            messages=summary.messages,
            bytes_on_air=summary.bytes_on_air,
            queries_issued=summary.queries_issued,
            queries_answered=summary.queries_answered,
            queries_unanswered=summary.queries_unanswered,
            mean_latency=summary.mean_latency,
            mean_hit_latency=summary.mean_hit_latency,
            p95_latency=summary.p95_latency,
            local_answer_ratio=summary.local_answer_ratio,
            stale_ratio=summary.stale_ratio,
            violation_ratio=summary.violation_ratio,
            mean_staleness_age=summary.mean_staleness_age,
            total_queries=result.total_queries,
            total_updates=result.total_updates,
            energy_consumed=result.energy_consumed,
            mean_battery_fraction=result.mean_battery_fraction,
            wall_clock_seconds=result.wall_clock_seconds,
            events_processed=result.events_processed,
            transmissions_by_type=dict(summary.transmissions_by_type),
            counters=dict(summary.counters),
            fault_stats=dict(summary.fault_stats),
            topology_stats=dict(result.topology_stats),
            relay_samples=[[t, c] for t, c in result.relay_samples],
            traffic_series=series_payload,
            control_decisions=list(result.control_decisions),
        )

    def to_result(self, config):
        """Rebuild a :class:`SimulationResult` around ``config``.

        The store does not persist configurations (the campaign that
        resumes already holds them — the key proves they match), so the
        caller supplies the task's config.  Every persisted field round
        trips exactly: JSON floats round trip via ``repr`` (``±inf``,
        ``NaN`` and ``-0.0`` included) and JSON ints are unbounded.
        """
        from repro.experiments.runner import SimulationResult

        global _RESULT_ORDER_CHECKED
        if not _RESULT_ORDER_CHECKED:
            assert tuple(f.name for f in fields(SimulationResult)) == (
                _RESULT_FIELD_ORDER
            ), "SimulationResult fields moved: fix RunRecord.to_result"
            _RESULT_ORDER_CHECKED = True

        # A resumed 1000-point campaign rebuilds a result per record, so
        # both are built the cheap way.  The summary goes around its frozen
        # __init__, as get_many does for records (MetricsSummary has no
        # __post_init__ and no slots); SimulationResult is built
        # positionally, its field order asserted above.
        summary = MetricsSummary.__new__(MetricsSummary)
        summary.__dict__.update(zip(_SUMMARY_FIELDS, _SUMMARY_GETTER(self)))
        series = None
        if self.traffic_series is not None:
            series = TimeSeries(str(self.traffic_series.get("name", "")))
            for time, value in zip(
                self.traffic_series["times"], self.traffic_series["values"]
            ):
                series.record(float(time), float(value))
        return SimulationResult(
            self.spec,
            self.scenario,
            config,
            summary,
            self.total_queries,
            self.total_updates,
            [(float(t), int(c)) for t, c in self.relay_samples],
            series,
            self.energy_consumed,
            self.mean_battery_fraction,
            self.wall_clock_seconds,
            self.events_processed,
            dict(self.topology_stats),
            dict(self.fault_stats),
            list(self.control_decisions),
        )


_RECORD_FIELDS = tuple(field.name for field in fields(RunRecord))
_FIELD_GETTER = attrgetter(*_RECORD_FIELDS)
_SCALAR_CASTS = tuple(
    (f.name, {"int": int, "float": float}[f.type])
    for f in fields(RunRecord) if f.type in ("int", "float")
)

#: What :meth:`RunRecord.to_result` reads for its summary, and the
#: SimulationResult field order it relies on for positional construction
#: (SimulationResult imports lazily, so that check runs on first use).
_SUMMARY_FIELDS = tuple(field.name for field in fields(MetricsSummary))
_SUMMARY_GETTER = attrgetter(*_SUMMARY_FIELDS)
assert not hasattr(MetricsSummary, "__post_init__"), "fix RunRecord.to_result"
_RESULT_FIELD_ORDER = (
    "spec", "scenario", "config", "summary", "total_queries",
    "total_updates", "relay_samples", "traffic_series",
    "energy_consumed", "mean_battery_fraction", "wall_clock_seconds",
    "events_processed", "topology_stats", "fault_stats",
    "control_decisions",
)
_RESULT_ORDER_CHECKED = False


class ResultStore:
    """Every run one store directory holds, keyed by content address.

    ``stats`` counts this handle's work: ``commits`` (one per
    :meth:`put_many` that wrote anything — the number the campaign
    benchmark records), ``records_appended`` and ``records_served``.
    """

    def __init__(self, root: os.PathLike = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self._path = (self.root / "runs.sqlite").resolve()
        self._uri = self._path.as_uri()
        self.stats = {"commits": 0, "records_appended": 0, "records_served": 0}

    def _connect(self, mode: str) -> sqlite3.Connection:
        # "rw", not "ro", to read: a hot journal must roll back on open.
        return sqlite3.connect(
            f"{self._uri}?mode={mode}", uri=True, isolation_level=None
        )

    def _error(self, problem: object) -> StoreFormatError:
        return StoreFormatError(f"{self._path}: {problem}")

    def _version(self, conn: sqlite3.Connection) -> int:
        """The stamped format (0: nothing committed yet); another is refused."""
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if version not in (0, STORE_FORMAT_VERSION):
            raise self._error(
                f"store format v{version}, "
                f"this reader speaks v{STORE_FORMAT_VERSION}"
            )
        return version

    def _read(self, *queries: tuple) -> List[tuple]:
        """Every row of the ``(sql, params)`` queries, read in one snapshot;
        none while the store holds nothing."""
        if not self._path.is_file():
            return []  # and creates nothing
        try:
            conn = self._connect("rw")
            try:
                conn.execute("BEGIN")
                # A database another process is still creating is unstamped.
                if not self._version(conn):
                    return []
                rows = []
                for sql, params in queries:
                    rows.extend(conn.execute(sql, params))
                return rows
            finally:
                conn.close()  # ends the read transaction
        # sqlite3 reports text that is not UTF-8 with a message it cannot decode.
        except (sqlite3.Error, UnicodeDecodeError) as exc:
            raise self._error(exc) from exc

    def put_many(self, records: Iterable[RunRecord]) -> None:
        """Commit ``records`` in one transaction (no-op when empty)."""
        rows = []
        for record in records:
            payload = _ENCODE(_FIELD_GETTER(record)).encode("utf-8")
            rows.append((record.key, payload, zlib.crc32(payload)))
        if not rows:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = self._connect("rwc")
            try:
                conn.execute("BEGIN IMMEDIATE")
                if not self._version(conn):
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS runs "
                        "(key TEXT PRIMARY KEY, payload BLOB, crc INTEGER)"
                    )
                    conn.execute(f"PRAGMA user_version = {STORE_FORMAT_VERSION}")
                conn.executemany(
                    "INSERT OR REPLACE INTO runs VALUES (?, ?, ?)", rows
                )
                conn.execute("COMMIT")
            finally:
                conn.close()  # an uncommitted transaction rolls back
        except sqlite3.Error as exc:
            raise self._error(exc) from exc
        self.stats["commits"] += 1
        self.stats["records_appended"] += len(rows)

    def keys(self) -> frozenset:
        """Every committed content-address key."""
        rows = self._read(("SELECT key FROM runs", ()))
        keys = frozenset(key for (key,) in rows)
        if not all(isinstance(key, str) for key in keys):
            raise self._error("a key that is not text")
        return keys

    def __len__(self) -> int:
        rows = self._read(("SELECT count(*) FROM runs", ()))
        return rows[0][0] if rows else 0

    def get_many(self, keys: Sequence[str]) -> Dict[str, RunRecord]:
        """The committed record of every key the store holds."""
        wanted = list(dict.fromkeys(keys))
        queries = []
        for at in range(0, len(wanted), _LOOKUP_CHUNK):
            chunk = wanted[at:at + _LOOKUP_CHUNK]
            marks = ", ".join("?" * len(chunk))
            queries.append(
                (f"SELECT key, payload, crc FROM runs WHERE key IN ({marks})", chunk)
            )
        rows = self._read(*queries) if queries else []
        for key, payload, crc in rows:
            if not isinstance(payload, bytes) or zlib.crc32(payload) != crc:
                raise self._error(f"record {key!r} fails its CRC")
        # One parse for every row: each payload passed its CRC, so each is
        # the JSON array written, and the joined array splits back by row.
        try:
            joined = b",".join([payload for _, payload, _ in rows])
            decoded = json.loads(b"[%s]" % joined)
        except ValueError as exc:
            raise self._error(exc) from exc
        found: Dict[str, RunRecord] = {}
        new = RunRecord.__new__
        for (key, _, _), values in zip(rows, decoded):
            if not isinstance(values, list) or len(values) != len(_RECORD_FIELDS) \
                    or values[0] != key:
                raise self._error(f"the row under {key!r} holds another record")
            # Around the frozen __init__: writing the instance __dict__ is
            # equivalent (RunRecord has no slots) and half the cost.
            record = new(RunRecord)
            record.__dict__.update(zip(_RECORD_FIELDS, values))
            found[key] = record
        self.stats["records_served"] += len(found)
        return found
