"""One-table result store: the campaign persistence layer.

A store directory holds one SQLite database, ``runs.sqlite``, with one
table ``runs(key TEXT PRIMARY KEY, payload BLOB, crc INTEGER)``: a run's
content address (:func:`repro.experiments.executor.run_key`), its
:class:`~repro.experiments.runner.SimulationResult` less the task the
key names as one JSON array, and the payload's CRC-32.  A read checks
the CRC, the key and each value's type, so a damaged file raises
:class:`StoreFormatError` instead of serving different numbers.  A
commit is one transaction (a ``kill -9`` keeps every earlier one), and
each call opens and closes its own connection, so none crosses a fork.
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib
from dataclasses import fields
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.runner import SimulationResult
from repro.metrics.collector import MetricsSummary
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "STORE_FORMAT_VERSION",
    "DEFAULT_STORE_DIR",
    "ResultStore",
    "StoreFormatError",
]

#: Bump whenever a change alters what a stored result means or how it is
#: encoded (new metrics, changed simulation semantics, a payload layout
#: change).  It is the database's ``PRAGMA user_version`` and salts
#: :func:`repro.experiments.executor.run_key`, so an old store is refused
#: loudly instead of resurfacing stale numbers.
STORE_FORMAT_VERSION = 4  # v4: the SimulationResult fields themselves

#: Where the CLI keeps its store unless ``--store`` moves it.
DEFAULT_STORE_DIR = os.path.join("results", ".store")

#: Keys per ``SELECT ... IN (...)`` (below SQLite's bound-parameter limit).
_LOOKUP_CHUNK = 500

#: ``json.dumps`` without the per-call setup; results hold no cycles.
_ENCODE = json.JSONEncoder(check_circular=False, separators=(",", ":"),
                           default=lambda v: _CONVERSIONS[type(v)][2](v)).encode


class StoreFormatError(SimulationError):
    """The store's database could not be read as this store format."""


def _kinds(column, kind):
    """``column``, each value exactly a ``kind``; a float column casts ints."""
    kinds = set(map(type, column))
    if kinds <= {kind}:
        return column
    if kind is float and kinds <= {float, int}:
        return [float(value) for value in column]
    raise TypeError(f"{kind.__name__} expected, got {sorted(k.__name__ for k in kinds - {kind})}")


def _series(name, times, values):
    """A stored TimeSeries, held to ``record``'s checks."""
    series = TimeSeries(name)
    for time, value in zip(times, values, strict=True):
        series.record(time, value)
    return series


#: The types JSON lacks, as lists: ``type -> (part types, from part columns, to parts)``.
_CONVERSIONS = {
    tuple: ((), zip, None),
    TimeSeries: ((str, List[float], List[float]), partial(map, _series),
                 lambda series: [series.name, series.times, series.values]),
}

_REFUSED = (TypeError, ValueError, OverflowError, ConfigurationError)


def _decoder(hint):
    """The reader of one annotated field type: from the parsed JSON values of
    a column to what the field holds, or one of ``_REFUSED`` for a value it refuses."""
    if hint is object:
        return lambda column: column
    if hint in (int, float, str):
        return lambda column: _kinds(column, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: the Nones stay, the rest is read as X
        inner = _decoder(args[0])

        def optional(column):
            it = iter(inner([raw for raw in column if raw is not None]))
            return [raw if raw is None else next(it) for raw in column]
        return optional
    if origin in (dict, list):  # JSON object keys are always text
        items, parts = _decoder(args[-1]), (dict.values if origin is dict else iter)

        def container(column):
            flat = list(chain.from_iterable(map(parts, _kinds(column, origin))))
            decoded = items(flat)
            if decoded is flat:  # nothing cast
                return column
            it = iter(decoded)
            return [origin(zip(raw, it)) if origin is dict else [*islice(it, len(raw))]
                    for raw in column]
        return container
    parts, build, _ = _CONVERSIONS[origin or hint]
    checks = [_decoder(part) for part in parts or args]

    def convert(column):
        if set(map(len, _kinds(column, list))) - {len(checks)}:
            raise ValueError(f"a value without {len(checks)} parts")
        return list(build(*[
            check([raw[at] for raw in column]) for at, check in enumerate(checks)
        ]))
    return convert


#: A run's task (``executor.RunTask`` order): its key names it, so a read is handed it.
_TASK = ("config", "spec", "scenario")

#: A payload: the key, then the summary's and the result's own fields, each read by its decoder.
_SUMMARY = [f.name for f in fields(MetricsSummary)]
_OWN = [f.name for f in fields(SimulationResult) if f.name not in (*_TASK, "summary")]
_GET_SUMMARY, _GET_OWN = attrgetter(*_SUMMARY), attrgetter(*_OWN)
_HINTS = get_type_hints(MetricsSummary) | get_type_hints(SimulationResult)
_DECODERS = [_decoder(_HINTS[name]) for name in _SUMMARY + _OWN]
assert not any(hasattr(cls, "__post_init__") for cls in (MetricsSummary, SimulationResult))


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

    def put_many(self, results: Iterable[Tuple[str, SimulationResult]]) -> None:
        """Commit ``(key, result)`` pairs in one transaction (no-op when empty)."""
        rows = []
        for key, result in results:
            payload = _ENCODE((key, *_GET_SUMMARY(result.summary), *_GET_OWN(result))).encode()
            rows.append((key, payload, zlib.crc32(payload)))
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

    def get_many(self, tasks: Mapping[str, tuple]) -> Dict[str, SimulationResult]:
        """The stored result of each ``key: (config, spec, scenario)`` task, built around it."""
        wanted = list(tasks)
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
        for (key, _, _), row in zip(rows, decoded):
            if key not in tasks or not isinstance(row, list) \
                    or len(row) - len(_DECODERS) != 1 or row[0] != key:
                raise self._error(f"the row under {key!r} holds another record")
        try:  # a column at a time, and row by row to name a refused value
            columns = [decode(column) for decode, column in zip(_DECODERS, [*zip(*decoded)][1:])]
        except _REFUSED:
            for (key, _, _), row in zip(rows, decoded):
                for label, decode, raw in zip(_SUMMARY + _OWN, _DECODERS, row[1:]):
                    try:
                        decode([raw])
                    except _REFUSED as exc:
                        raise self._error(f"record {key!r}: field {label!r}: {exc}") from None
            raise
        found: Dict[str, SimulationResult] = {}
        for (key, _, _), values in zip(rows, zip(*columns)):
            # Around the __init__s, which the assert above holds to running nothing else.
            summary = object.__new__(MetricsSummary)
            summary.__dict__.update(zip(_SUMMARY, values))
            result = object.__new__(SimulationResult)
            result.__dict__.update(zip(_TASK, tasks[key]), summary=summary)
            result.__dict__.update(zip(_OWN, values[len(_SUMMARY):]))
            found[key] = result
        self.stats["records_served"] += len(found)
        return found
