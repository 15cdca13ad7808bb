"""Append-only columnar result store: the campaign persistence layer.

Everything a campaign keeps between invocations lives here, in a
columnar store built from three stdlib-only pieces:

* **Record batches** — finished runs are reduced to a fixed-schema
  :class:`RunRecord` (every scalar of the metrics summary plus the
  topology/fault stat dictionaries and the relay/traffic series) and
  encoded column-major: all int64s of a batch packed together with
  :mod:`struct`, all float64s together, all strings/JSON values together
  with length prefixes.  One batch of 256 records costs three
  filesystem writes, however many records it holds.

* **Append-only segment files** — each writer appends batches to its own
  exclusive segment (``seg-<generation>-<writer>.seg``), so concurrent
  workers never contend on a file.  Segments are never rewritten.

* **Index sidecars with atomic commits** — a batch becomes visible only
  when the segment's sidecar (``.idx``) is atomically replaced to
  reference it.  A crash mid-append leaves unreferenced bytes at the end
  of a segment; readers never see them.  Each sidecar entry carries the
  batch's CRC-32 and its keys, and a read verifies both, so a damaged
  file raises :class:`StoreFormatError` instead of serving different
  numbers; a sidecar that does not parse (a torn write) is skipped, its
  batches invisible.  Readers merge every sidecar on
  read and dedup by content-address key, last writer wins (ordered by
  segment generation, then batch, then row).  Since keys are content
  addresses — equal key implies equal ``(config, spec, scenario)`` and
  therefore, runs being pure functions of that triple, an equal result —
  last-writer-wins only ever picks between identical payloads.

A restarted campaign is served what the store holds and re-runs only
the remainder (`repro.experiments.executor`).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.collector import MetricsSummary
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "STORE_FORMAT_VERSION",
    "DEFAULT_STORE_DIR",
    "RECORD_SCHEMA",
    "RunRecord",
    "ResultStore",
    "SegmentWriter",
    "StoreFormatError",
]

#: Bump whenever a change alters what a stored result means or how it is
#: encoded (new metrics, changed simulation semantics, a schema or batch
#: layout change).  It stamps segments, batches and sidecars, and salts
#: :func:`repro.experiments.executor.run_key`, so an old directory is
#: refused loudly instead of resurfacing stale numbers.
STORE_FORMAT_VERSION = 2  # v2: batch CRCs; control_decisions column, no core

#: Where the CLI keeps its store unless ``--store`` moves it.
DEFAULT_STORE_DIR = os.path.join("results", ".store")

#: First bytes of every segment file.
_MAGIC = b"RPCCSTORE%d\n" % STORE_FORMAT_VERSION

#: Column kinds: fixed-width scalars are struct-packed, ``str``/``json``
#: values are UTF-8 with little-endian uint32 length prefixes.
_KINDS = ("i8", "f8", "str", "json")

#: The fixed schema, in column order.  ``key`` is the content address
#: (:func:`repro.experiments.executor.run_key`); the scalar block mirrors
#: :class:`repro.metrics.collector.MetricsSummary` plus the run-level
#: scalars of :class:`repro.experiments.runner.SimulationResult`; the JSON
#: block carries the open-keyed stat dictionaries, the two series and the
#: controller's decision list.
RECORD_SCHEMA: Tuple[Tuple[str, str], ...] = (
    ("key", "str"),
    ("spec", "str"),
    ("scenario", "str"),
    ("seed", "i8"),
    ("sim_time", "f8"),
    ("transmissions", "i8"),
    ("messages", "i8"),
    ("bytes_on_air", "i8"),
    ("queries_issued", "i8"),
    ("queries_answered", "i8"),
    ("queries_unanswered", "i8"),
    ("mean_latency", "f8"),
    ("mean_hit_latency", "f8"),
    ("p95_latency", "f8"),
    ("local_answer_ratio", "f8"),
    ("stale_ratio", "f8"),
    ("violation_ratio", "f8"),
    ("mean_staleness_age", "f8"),
    ("total_queries", "i8"),
    ("total_updates", "i8"),
    ("energy_consumed", "f8"),
    ("mean_battery_fraction", "f8"),
    ("wall_clock_seconds", "f8"),
    ("events_processed", "i8"),
    ("transmissions_by_type", "json"),
    ("counters", "json"),
    ("fault_stats", "json"),
    ("topology_stats", "json"),
    ("relay_samples", "json"),
    ("traffic_series", "json"),
    ("control_decisions", "json"),
)

_STRUCT_CODE = {"i8": "q", "f8": "d"}
_U32 = struct.Struct("<I")


class StoreFormatError(SimulationError):
    """A segment or sidecar could not be decoded as this store format."""


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
        trips exactly: int64/float64 columns are struct-packed and JSON
        floats round trip via ``repr``.
        """
        from repro.experiments.runner import SimulationResult

        global _RESULT_ORDER_CHECKED
        if not _RESULT_ORDER_CHECKED:
            assert tuple(f.name for f in fields(SimulationResult)) == (
                _RESULT_FIELD_ORDER
            ), "SimulationResult fields moved: fix RunRecord.to_result"
            _RESULT_ORDER_CHECKED = True

        # Positional construction: a resumed 1000-point campaign rebuilds
        # a result per record, and keyword dataclass calls are measurably
        # slower on that path.  The import-time field-order asserts below
        # turn any reordering of the target dataclasses into a loud
        # failure here instead of silently scrambled results.
        summary = MetricsSummary(
            self.transmissions,
            self.messages,
            self.bytes_on_air,
            self.queries_issued,
            self.queries_answered,
            self.queries_unanswered,
            self.mean_latency,
            self.mean_hit_latency,
            self.p95_latency,
            self.local_answer_ratio,
            self.stale_ratio,
            self.violation_ratio,
            self.mean_staleness_age,
            dict(self.transmissions_by_type),
            dict(self.counters),
            dict(self.fault_stats),
        )
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
assert _RECORD_FIELDS == tuple(name for name, _ in RECORD_SCHEMA), (
    "RunRecord fields must match RECORD_SCHEMA order"
)
_FIELD_GETTER = attrgetter(*_RECORD_FIELDS)

#: Field orders :meth:`RunRecord.to_result` relies on for positional
#: dataclass construction.  The MetricsSummary one is checked at import;
#: SimulationResult imports lazily, so its check runs on first use.
_SUMMARY_FIELD_ORDER = (
    "transmissions", "messages", "bytes_on_air", "queries_issued",
    "queries_answered", "queries_unanswered", "mean_latency",
    "mean_hit_latency", "p95_latency", "local_answer_ratio",
    "stale_ratio", "violation_ratio", "mean_staleness_age",
    "transmissions_by_type", "counters", "fault_stats",
)
assert tuple(f.name for f in fields(MetricsSummary)) == (
    _SUMMARY_FIELD_ORDER
), "MetricsSummary fields moved: fix RunRecord.to_result"

_RESULT_FIELD_ORDER = (
    "spec", "scenario", "config", "summary", "total_queries",
    "total_updates", "relay_samples", "traffic_series",
    "energy_consumed", "mean_battery_fraction", "wall_clock_seconds",
    "events_processed", "topology_stats", "fault_stats",
    "control_decisions",
)
_RESULT_ORDER_CHECKED = False


# ----------------------------------------------------------------------
# Batch encoding: column-major, fixed schema, stdlib only.


def encode_batch(records: Sequence[RunRecord]) -> bytes:
    """Encode records as one columnar batch (header + column payloads)."""
    count = len(records)
    if count == 0:
        raise ConfigurationError("cannot encode an empty batch")
    payloads: List[bytes] = []
    columns: List[List[object]] = []
    # One attrgetter call per record beats one getattr per cell 31-fold.
    transposed = zip(*(_FIELD_GETTER(record) for record in records))
    for (name, kind), values in zip(RECORD_SCHEMA, transposed):
        if kind in _STRUCT_CODE:
            blob = struct.pack(f"<{count}{_STRUCT_CODE[kind]}", *values)
        else:
            # str and json columns are one JSON array per column: a
            # single C-speed dumps/loads per batch instead of one per
            # value, and floats still round trip exactly via ``repr``.
            blob = json.dumps(values).encode("utf-8")
        payloads.append(blob)
        columns.append([name, kind, len(blob)])
    header = json.dumps(
        {"version": STORE_FORMAT_VERSION, "n": count, "cols": columns}
    ).encode("utf-8")
    return b"".join([_U32.pack(len(header)), header] + payloads)


def decode_batch(blob: bytes) -> List[RunRecord]:
    """Decode one batch produced by :func:`encode_batch`."""
    if len(blob) < _U32.size:
        raise StoreFormatError("batch shorter than its header length field")
    (header_len,) = _U32.unpack_from(blob, 0)
    offset = _U32.size
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"unreadable batch header: {exc}") from exc
    if header.get("version") != STORE_FORMAT_VERSION:
        raise StoreFormatError(
            f"batch format v{header.get('version')!r}, "
            f"this reader speaks v{STORE_FORMAT_VERSION}"
        )
    count = header["n"]
    offset += header_len
    columns: Dict[str, List[object]] = {}
    for name, kind, nbytes in header["cols"]:
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise StoreFormatError(f"truncated column {name!r}")
        offset += nbytes
        if kind in _STRUCT_CODE:
            columns[name] = list(
                struct.unpack(f"<{count}{_STRUCT_CODE[kind]}", chunk)
            )
        else:
            try:
                values = json.loads(chunk.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise StoreFormatError(
                    f"unreadable column {name!r}: {exc}"
                ) from exc
            if not isinstance(values, list) or len(values) != count:
                raise StoreFormatError(
                    f"column {name!r} does not hold {count} values"
                )
            columns[name] = values
    schema_names = [name for name, _ in RECORD_SCHEMA]
    if list(columns) != schema_names:
        raise StoreFormatError(
            f"batch columns {list(columns)} do not match the schema"
        )
    # Bulk-build the records around the frozen __init__: each field of a
    # frozen dataclass is set via object.__setattr__, which at 31 fields
    # per record is half the decode cost of a large batch.  Writing the
    # instance __dict__ directly is equivalent (RunRecord has no slots)
    # and keeps eq/hash semantics.
    new = RunRecord.__new__
    decoded: List[RunRecord] = []
    for row in zip(*(columns[name] for name in schema_names)):
        record = new(RunRecord)
        record.__dict__.update(zip(_RECORD_FIELDS, row))
        decoded.append(record)
    return decoded


# ----------------------------------------------------------------------
# Segments and index sidecars.


@dataclass(frozen=True)
class _BatchRef:
    """Where one committed batch lives."""

    segment: str
    generation: int
    index: int
    offset: int
    length: int
    crc32: int
    keys: Tuple[str, ...]


class SegmentWriter:
    """Buffered writer appending record batches to one exclusive segment.

    The segment file is claimed lazily (first flush) with ``O_EXCL``
    semantics on a generation-numbered name, so concurrent writers —
    other processes included — always land on distinct files.  Every
    flush appends one batch and then atomically rewrites the sidecar;
    until that rename the batch does not exist as far as readers are
    concerned.
    """

    def __init__(
        self, store: "ResultStore", writer_id: str = "w0", batch_size: int = 256
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size!r}")
        if not writer_id or "/" in writer_id or "." in writer_id:
            raise ConfigurationError(f"invalid writer id {writer_id!r}")
        self.store = store
        self.writer_id = writer_id
        self.batch_size = batch_size
        self._buffer: List[RunRecord] = []
        self._handle = None
        self._segment_name: Optional[str] = None
        self._generation: Optional[int] = None
        self._batches: List[Dict[str, object]] = []
        self._closed = False

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writing --------------------------------------------------------
    def add(self, record: RunRecord) -> None:
        """Buffer one record; auto-flushes a full batch."""
        if self._closed:
            raise ConfigurationError("writer is closed")
        self._buffer.append(record)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def add_result(self, key: str, result) -> None:
        """Reduce and buffer one :class:`SimulationResult`."""
        self.add(RunRecord.from_result(key, result))

    def flush(self) -> None:
        """Commit buffered records as one batch (no-op when empty)."""
        if not self._buffer:
            return
        if self._handle is None:
            self._claim_segment()
        blob = encode_batch(self._buffer)
        offset = self._handle.tell()
        self._handle.write(blob)
        self._handle.flush()
        self._batches.append({
            "offset": offset,
            "length": len(blob),
            "crc32": zlib.crc32(blob),
            "n": len(self._buffer),
            "keys": [record.key for record in self._buffer],
        })
        self._commit_index()
        stats = self.store.stats
        stats["records_appended"] += len(self._buffer)
        stats["batches_committed"] += 1
        stats["fs_writes"] += 3  # batch append + sidecar temp + rename
        self._buffer.clear()
        self.store._invalidate_index()

    def close(self) -> None:
        """Flush and release the segment file handle."""
        if self._closed:
            return
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    # -- internals ------------------------------------------------------
    def _claim_segment(self) -> None:
        self.store.root.mkdir(parents=True, exist_ok=True)
        generation = self.store._next_generation()
        while True:
            name = f"seg-{generation:06d}-{self.writer_id}.seg"
            path = self.store.root / name
            try:
                self._handle = open(path, "xb")
            except FileExistsError:
                generation += 1
                continue
            break
        self._handle.write(_MAGIC)
        self._handle.flush()
        self._segment_name = name
        self._generation = generation
        self.store.stats["segments_created"] += 1
        self.store.stats["fs_writes"] += 1

    def _commit_index(self) -> None:
        sidecar = {
            "format": STORE_FORMAT_VERSION,
            "segment": self._segment_name,
            "generation": self._generation,
            "writer": self.writer_id,
            "batches": self._batches,
        }
        path = self.store.root / f"{Path(self._segment_name).stem}.idx"
        tmp = path.with_suffix(f".idx.tmp{os.getpid()}")
        tmp.write_text(json.dumps(sidecar), encoding="utf-8")
        os.replace(tmp, path)


def _sidecar_refs(sidecar: Path) -> List[_BatchRef]:
    """The batches one sidecar commits; none when it is torn.

    A sidecar that cannot be read as this format's shape — cut short by
    a crash, or damaged — commits nothing: its batches stay invisible and
    their points re-run.  One that states another format version is a
    different store, and refused.
    """
    try:
        data = json.loads(sidecar.read_bytes())
        version = data["format"]
        if version == STORE_FORMAT_VERSION:
            return [
                _BatchRef(
                    segment=str(data["segment"]),
                    generation=int(data["generation"]),
                    index=position,
                    offset=int(batch["offset"]),
                    length=int(batch["length"]),
                    crc32=int(batch["crc32"]),
                    keys=tuple(map(str, batch["keys"])),
                )
                for position, batch in enumerate(data["batches"])
            ]
    except (OSError, ValueError, LookupError, TypeError):
        return []
    raise StoreFormatError(
        f"{sidecar} is store format v{version!r}, "
        f"reader speaks v{STORE_FORMAT_VERSION}"
    )


class ResultStore:
    """The merged view over every segment in one directory.

    Readers only trust the index sidecars, so partially appended batches
    (a crash between the segment append and the sidecar rename) are
    invisible.  ``stats`` counts writes (``fs_writes`` is the number of
    file creations/renames/appends — the number the campaign benchmark
    records) and merged reads.
    """

    def __init__(self, root: os.PathLike = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self.stats: Dict[str, int] = {
            "segments_created": 0,
            "batches_committed": 0,
            "records_appended": 0,
            "fs_writes": 0,
            "batches_read": 0,
            "records_served": 0,
        }
        self._index: Optional[Dict[str, Tuple[_BatchRef, int]]] = None

    # -- writing --------------------------------------------------------
    def writer(self, writer_id: str = "w0", batch_size: int = 256) -> SegmentWriter:
        """A buffered batch writer appending to its own segment."""
        return SegmentWriter(self, writer_id=writer_id, batch_size=batch_size)

    def _invalidate_index(self) -> None:
        self._index = None

    def _next_generation(self) -> int:
        latest = 0
        if self.root.is_dir():
            for entry in self.root.glob("seg-*.seg"):
                try:
                    latest = max(latest, int(entry.name.split("-")[1]))
                except (IndexError, ValueError):
                    continue
        return latest + 1

    def _load_index(self) -> Dict[str, Tuple[_BatchRef, int]]:
        if self._index is not None:
            return self._index
        refs: List[_BatchRef] = []
        if self.root.is_dir():
            for sidecar in sorted(self.root.glob("seg-*.idx")):
                refs.extend(_sidecar_refs(sidecar))
        refs.sort(key=lambda ref: (ref.generation, ref.segment, ref.index))
        index: Dict[str, Tuple[_BatchRef, int]] = {}
        for ref in refs:
            for row, key in enumerate(ref.keys):
                index[key] = (ref, row)  # later generations win
        self._index = index
        return index

    # -- reading --------------------------------------------------------
    def keys(self) -> frozenset:
        """Every completed content-address key (deduped)."""
        return frozenset(self._load_index())

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, key: str) -> bool:
        return key in self._load_index()

    def _read_batch(self, ref: _BatchRef) -> List[RunRecord]:
        path = self.root / ref.segment
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                # Checked before reading: a damaged length must not size a buffer.
                if not len(_MAGIC) <= ref.offset <= size - ref.length <= size:
                    raise StoreFormatError(
                        f"{path} truncated under batch {ref.index}"
                    )
                magic = handle.read(len(_MAGIC))
                handle.seek(ref.offset)
                blob = handle.read(ref.length)
        except OSError as exc:
            raise StoreFormatError(
                f"{path}: cannot read batch {ref.index}: {exc}"
            ) from exc
        if magic != _MAGIC:
            raise StoreFormatError(f"{path} is not a result-store segment")
        if zlib.crc32(blob) != ref.crc32:
            raise StoreFormatError(f"{path} batch {ref.index} fails its CRC")
        records = decode_batch(blob)
        # The sidecar's key list is what lookups trust: it must name
        # exactly the rows the batch holds.
        if tuple(record.key for record in records) != ref.keys:
            raise StoreFormatError(
                f"{path} batch {ref.index} does not hold its sidecar's keys"
            )
        self.stats["batches_read"] += 1
        return records

    def get(self, key: str) -> Optional[RunRecord]:
        """The winning record for ``key``, or ``None``."""
        entry = self._load_index().get(key)
        if entry is None:
            return None
        ref, row = entry
        self.stats["records_served"] += 1
        return self._read_batch(ref)[row]

    def get_many(self, keys: Sequence[str]) -> Dict[str, RunRecord]:
        """Batch lookup: each referenced batch is decoded exactly once."""
        index = self._load_index()
        wanted: Dict[_BatchRef, List[Tuple[int, str]]] = {}
        for key in keys:
            entry = index.get(key)
            if entry is not None:
                ref, row = entry
                wanted.setdefault(ref, []).append((row, key))
        found: Dict[str, RunRecord] = {}
        for ref in sorted(wanted, key=lambda r: (r.generation, r.segment, r.index)):
            records = self._read_batch(ref)
            for row, key in wanted[ref]:
                found[key] = records[row]
                self.stats["records_served"] += 1
        return found

    def records(self) -> Iterator[RunRecord]:
        """Merge-on-read over the whole store (deduped, batch at a time)."""
        index = self._load_index()
        by_batch: Dict[_BatchRef, List[int]] = {}
        for ref, row in index.values():
            by_batch.setdefault(ref, []).append(row)
        for ref in sorted(by_batch, key=lambda r: (r.generation, r.segment, r.index)):
            records = self._read_batch(ref)
            for row in sorted(by_batch[ref]):
                self.stats["records_served"] += 1
                yield records[row]
