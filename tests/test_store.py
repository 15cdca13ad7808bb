"""Tests for the append-only columnar result store.

The store is the campaign persistence layer, so its load-bearing
properties are (1) *exact* round trips — a record read
back must rebuild a bit-identical ``SimulationResult`` — and (2) crash
safety: only batches referenced by an atomically committed index sidecar
are ever visible, and merge-on-read dedups by content-address key with
the newest generation winning.
"""

import functools
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import env_jobs, run_key
from repro.experiments.runner import run_simulation
from repro.experiments.store import (
    RECORD_SCHEMA,
    STORE_FORMAT_VERSION,
    ResultStore,
    RunRecord,
    StoreFormatError,
    decode_batch,
    encode_batch,
)


def tiny_config(**kwargs):
    defaults = dict(
        n_peers=10,
        sim_time=120.0,
        warmup=0.0,
        seed=11,
        terrain_width=800.0,
        terrain_height=800.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def synthetic_record(index: int = 0, key: str = None) -> RunRecord:
    """A fully populated record without paying for a simulation."""
    return RunRecord(
        key=key if key is not None else f"{index:064x}",
        spec="rpcc-sc",
        scenario="standard",
        seed=index,
        sim_time=120.0,
        transmissions=1000 + index,
        messages=500 + index,
        bytes_on_air=2**40 + index,  # exceeds 32 bits: needs real int64
        queries_issued=60,
        queries_answered=59,
        queries_unanswered=1,
        mean_latency=0.1 + index * 1e-9,  # sub-ulp steps must round trip
        mean_hit_latency=0.05,
        p95_latency=math.inf,  # struct-packed scalars carry inf exactly
        local_answer_ratio=1 / 3,
        stale_ratio=0.0123456789012345678,
        violation_ratio=0.0,
        mean_staleness_age=7.5,
        total_queries=60,
        total_updates=12,
        energy_consumed=123.456,
        mean_battery_fraction=0.87,
        wall_clock_seconds=0.25,
        events_processed=4321,
        transmissions_by_type={"QueryRequest": 30, "POLL": 12},
        counters={"relay_promotions": 3},
        fault_stats={"availability": 0.991234567890123},
        topology_stats={"snapshots_built": 40},
        relay_samples=[[60.0, 4], [120.0, 5]],
        traffic_series={"name": "transmissions",
                        "times": [60.0, 120.0], "values": [10.0, 12.5]},
        control_decisions=[{"time": 90.0, "policy": "hysteresis",
                            "reason": "partition", "modes": 0,
                            "applied": {"ttr": 45.5}}],
    )


def result_fingerprint(result):
    return (
        result.spec,
        result.scenario,
        result.config,
        result.summary,
        result.total_queries,
        result.total_updates,
        result.relay_samples,
        result.traffic_series.times,
        result.traffic_series.values,
        result.energy_consumed,
        result.mean_battery_fraction,
        result.wall_clock_seconds,
        result.events_processed,
        result.topology_stats,
        result.fault_stats,
        result.control_decisions,
    )


class TestBatchCodec:
    def test_round_trip_preserves_every_column(self):
        records = [synthetic_record(i) for i in range(5)]
        assert decode_batch(encode_batch(records)) == records

    def test_single_record_batch(self):
        record = synthetic_record(7)
        assert decode_batch(encode_batch([record])) == [record]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_batch([])

    def test_version_mismatch_detected(self):
        blob = bytearray(encode_batch([synthetic_record()]))
        (header_len,) = __import__("struct").unpack_from("<I", blob, 0)
        header = json.loads(bytes(blob[4:4 + header_len]))
        header["version"] = STORE_FORMAT_VERSION + 1
        raw = json.dumps(header).encode()
        with pytest.raises(StoreFormatError):
            decode_batch(
                __import__("struct").pack("<I", len(raw)) + raw
                + bytes(blob[4 + header_len:])
            )

    def test_truncated_batch_detected(self):
        blob = encode_batch([synthetic_record()])
        with pytest.raises(StoreFormatError):
            decode_batch(blob[: len(blob) - 8])

    def test_schema_and_record_fields_agree(self):
        from dataclasses import fields

        assert [f.name for f in fields(RunRecord)] == [
            name for name, _ in RECORD_SCHEMA
        ]


class TestResultRoundTrip:
    def test_simulation_result_rebuilds_bit_identically(self):
        config = tiny_config()
        result = run_simulation(config, "rpcc-sc")
        key = run_key(config, "rpcc-sc")
        record = RunRecord.from_result(key, result)
        rebuilt = record.to_result(config)
        assert result_fingerprint(rebuilt) == result_fingerprint(result)

    def test_round_trip_survives_the_codec(self):
        config = tiny_config(seed=13)
        result = run_simulation(config, "push")
        record = RunRecord.from_result(run_key(config, "push"), result)
        (decoded,) = decode_batch(encode_batch([record]))
        assert result_fingerprint(decoded.to_result(config)) == (
            result_fingerprint(result)
        )


class TestStoreReadWrite:
    def test_writer_commits_and_reader_merges(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer(batch_size=2) as writer:
            for i in range(5):
                writer.add(synthetic_record(i))
        assert len(store) == 5
        assert store.keys() == {f"{i:064x}" for i in range(5)}
        assert store.get(f"{3:064x}").seed == 3
        assert store.get("f" * 64) is None
        seeds = sorted(record.seed for record in store.records())
        assert seeds == [0, 1, 2, 3, 4]

    def test_fresh_handle_sees_committed_data(self, tmp_path):
        with ResultStore(tmp_path / "store").writer() as writer:
            writer.add(synthetic_record(1))
        reader = ResultStore(tmp_path / "store")
        assert f"{1:064x}" in reader

    def test_get_many_reads_each_batch_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer(batch_size=10) as writer:
            for i in range(10):
                writer.add(synthetic_record(i))
        reader = ResultStore(tmp_path / "store")
        found = reader.get_many([f"{i:064x}" for i in range(10)])
        assert len(found) == 10
        assert reader.stats["batches_read"] == 1

    def test_last_writer_wins_across_generations(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "a" * 64
        with store.writer(writer_id="w1") as writer:
            writer.add(synthetic_record(1, key=key))
        with store.writer(writer_id="w2") as writer:
            writer.add(synthetic_record(2, key=key))
        assert len(store) == 1
        assert store.get(key).seed == 2
        assert [r.seed for r in store.records()] == [2]

    def test_concurrent_writers_use_distinct_segments(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = store.writer(writer_id="wa")
        second = store.writer(writer_id="wb")
        first.add(synthetic_record(1))
        first.flush()
        second.add(synthetic_record(2))
        second.flush()
        first.close()
        second.close()
        segments = sorted(p.name for p in (tmp_path / "store").glob("*.seg"))
        assert len(segments) == 2
        assert len(store) == 2

    def test_writer_validation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError):
            store.writer(batch_size=0)
        with pytest.raises(ConfigurationError):
            store.writer(writer_id="../evil")
        writer = store.writer()
        writer.close()
        with pytest.raises(ConfigurationError):
            writer.add(synthetic_record())

    def test_empty_store_reads_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "missing")
        assert len(store) == 0
        assert store.keys() == frozenset()
        assert list(store.records()) == []


class TestCrashSafety:
    def test_uncommitted_tail_bytes_are_invisible(self, tmp_path):
        """A crash after the segment append but before the sidecar rename
        leaves trailing bytes no reader ever sees."""
        store = ResultStore(tmp_path / "store")
        with store.writer() as writer:
            writer.add(synthetic_record(1))
        (segment,) = (tmp_path / "store").glob("*.seg")
        with open(segment, "ab") as handle:
            handle.write(b"\x00garbage-from-a-crashed-append\xff" * 10)
        reader = ResultStore(tmp_path / "store")
        assert len(reader) == 1
        assert reader.get(f"{1:064x}").seed == 1

    def test_segment_without_sidecar_is_invisible(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer() as writer:
            writer.add(synthetic_record(1))
        (tmp_path / "store" / "seg-000099-w9.seg").write_bytes(b"partial")
        reader = ResultStore(tmp_path / "store")
        assert len(reader) == 1

    def test_torn_sidecar_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer() as writer:
            writer.add(synthetic_record(1))
        # Cut short, emptied, not text at all, or not this format's shape.
        for torn in (b"{not json", b"", b"\xff\xfe{}", b"[]", b"null",
                     b'{"format": %d}' % STORE_FORMAT_VERSION):
            (tmp_path / "store" / "seg-000099-w9.idx").write_bytes(torn)
            reader = ResultStore(tmp_path / "store")
            assert len(reader) == 1

    def test_unflushed_records_are_not_committed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        writer = store.writer(batch_size=100)
        writer.add(synthetic_record(1))
        # no flush/close: simulated crash with a dirty buffer
        assert len(ResultStore(tmp_path / "store")) == 0
        writer.close()
        assert len(ResultStore(tmp_path / "store")) == 1

    def test_future_format_sidecar_is_rejected_loudly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer() as writer:
            writer.add(synthetic_record(1))
        (sidecar,) = (tmp_path / "store").glob("*.idx")
        data = json.loads(sidecar.read_text())
        for other in (STORE_FORMAT_VERSION + 1, STORE_FORMAT_VERSION - 1):
            data["format"] = other
            sidecar.write_text(json.dumps(data))
            with pytest.raises(StoreFormatError, match=f"format v{other}"):
                ResultStore(tmp_path / "store").keys()

    def test_missing_segment_is_named(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.writer() as writer:
            writer.add(synthetic_record(1))
        (segment,) = (tmp_path / "store").glob("*.seg")
        segment.unlink()
        with pytest.raises(StoreFormatError, match=segment.name):
            ResultStore(tmp_path / "store").get(f"{1:064x}")


#: Seven records committed as three batches (3 + 3 + 1).
WRITTEN = {record.key: record for record in map(synthetic_record, range(7))}


@functools.lru_cache(maxsize=None)
def _pristine_store_files():
    with tempfile.TemporaryDirectory() as root:
        with ResultStore(root).writer(batch_size=3) as writer:
            for record in WRITTEN.values():
                writer.add(record)
        return tuple(
            (path.name, path.read_bytes()) for path in sorted(Path(root).iterdir())
        )


@st.composite
def _damage(draw):
    """One damaged copy of the pristine files: a bit flip or a truncation."""
    files = dict(_pristine_store_files())
    name = draw(st.sampled_from(sorted(files)))
    blob = bytearray(files[name])
    offset = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        blob[offset] ^= 1 << draw(st.integers(0, 7))
    else:
        del blob[offset:]
    files[name] = bytes(blob)
    return files


class TestDamage:
    @settings(max_examples=400, deadline=None)
    @given(files=_damage())
    def test_reads_return_committed_records_or_raise(self, files):
        """Whatever happens to the files, a read hands back records that
        were written, exactly as written, or raises StoreFormatError."""
        with tempfile.TemporaryDirectory() as root:
            for name, blob in files.items():
                (Path(root) / name).write_bytes(blob)
            store = ResultStore(root)
            try:
                served = list(store.records())
                fetched = store.get_many(sorted(WRITTEN))
            except StoreFormatError:
                return
        assert len({record.key for record in served}) == len(served)
        for record in served:
            assert WRITTEN.get(record.key) == record
        for key, record in fetched.items():
            assert WRITTEN[key] == record


class TestEnvJobs:
    def test_default_when_unset_or_blank(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        assert env_jobs("REPRO_TEST_JOBS") == 1
        assert env_jobs("REPRO_TEST_JOBS", default=4) == 4
        monkeypatch.setenv("REPRO_TEST_JOBS", "   ")
        assert env_jobs("REPRO_TEST_JOBS") == 1

    def test_parses_positive_integers(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", "8")
        assert env_jobs("REPRO_TEST_JOBS") == 8

    @pytest.mark.parametrize("bad", ["0", "-3", "two", "1.5"])
    def test_rejects_invalid_values(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TEST_JOBS", bad)
        with pytest.raises(ConfigurationError):
            env_jobs("REPRO_TEST_JOBS")
