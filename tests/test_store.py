"""Tests for the one-table SQLite result store.

The store is the campaign persistence layer, so its load-bearing
properties are (1) *exact* round trips — a record read back must rebuild
a bit-identical ``SimulationResult``, every int and float field with its
type — and (2) crash safety: only committed transactions are ever
visible, and a damaged file serves the records that were written or
raises :class:`StoreFormatError`, never different numbers.
"""

import dataclasses
import functools
import json
import math
import os
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import run_key
from repro.experiments.runner import run_simulation
from repro.experiments.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    RunRecord,
    StoreFormatError,
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


class TestResultRoundTrip:
    def test_simulation_result_rebuilds_bit_identically(self):
        config = tiny_config()
        result = run_simulation(config, "rpcc-sc")
        key = run_key(config, "rpcc-sc")
        record = RunRecord.from_result(key, result)
        rebuilt = record.to_result(config)
        assert result_fingerprint(rebuilt) == result_fingerprint(result)

    def test_round_trip_survives_the_store(self, tmp_path):
        config = tiny_config(seed=13)
        result = run_simulation(config, "push")
        key = run_key(config, "push")
        ResultStore(tmp_path).put_many([RunRecord.from_result(key, result)])
        decoded = ResultStore(tmp_path).get_many([key])[key]
        assert result_fingerprint(decoded.to_result(config)) == (
            result_fingerprint(result)
        )


def stored(root, records):
    """Commit ``records`` through one handle, read them back through another."""
    ResultStore(root).put_many(records)
    return ResultStore(root).get_many([record.key for record in records])


def fields_with_types(record):
    """Every field as ``(value, type)``: ``==`` alone says ``1 == 1.0``."""
    return [(value, type(value)) for value in dataclasses.astuple(record)]


class TestExactTypes:
    def test_every_field_round_trips_with_its_type(self, tmp_path):
        records = [synthetic_record(i) for i in range(5)]
        found = stored(tmp_path, records)
        for record in records:
            assert fields_with_types(found[record.key]) == fields_with_types(record)

    def test_int_in_a_float_field_comes_back_a_float(self, tmp_path):
        record = dataclasses.replace(
            synthetic_record(), mean_latency=3, energy_consumed=0, sim_time=120
        )
        back = stored(tmp_path, [record])[record.key]
        for name in ("mean_latency", "energy_consumed", "sim_time"):
            assert type(getattr(back, name)) is float, name
        assert (back.mean_latency, back.energy_consumed) == (3.0, 0.0)

    def test_ints_beyond_double_precision_are_exact(self, tmp_path):
        big = 2**53 + 1  # the first int a float cannot hold
        record = dataclasses.replace(
            synthetic_record(),
            counters={"relay_promotions": big, "huge": 2**63 - 1},
            bytes_on_air=2**62 + 3,
        )
        back = stored(tmp_path, [record])[record.key]
        assert back.counters == {"relay_promotions": big, "huge": 2**63 - 1}
        assert back.bytes_on_air == 2**62 + 3

    def test_non_finite_and_negative_zero_floats(self, tmp_path):
        record = dataclasses.replace(
            synthetic_record(),
            mean_latency=math.inf,
            p95_latency=-math.inf,
            stale_ratio=math.nan,
            violation_ratio=-0.0,
            fault_stats={"nan": math.nan, "neg_zero": -0.0, "inf": math.inf},
        )
        back = stored(tmp_path, [record])[record.key]
        assert back.mean_latency == math.inf
        assert back.p95_latency == -math.inf
        assert math.isnan(back.stale_ratio)
        assert math.copysign(1.0, back.violation_ratio) == -1.0
        assert math.isnan(back.fault_stats["nan"])
        assert math.copysign(1.0, back.fault_stats["neg_zero"]) == -1.0
        assert back.fault_stats["inf"] == math.inf

    def test_payload_is_one_json_array_of_the_fields_in_order(self, tmp_path):
        record = synthetic_record(3)
        ResultStore(tmp_path).put_many([record])
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            ((key, payload),) = conn.execute("SELECT key, payload FROM runs")
        conn.close()
        assert key == record.key
        assert json.loads(payload) == list(dataclasses.astuple(record))


class TestStoreReadWrite:
    def test_commits_and_reads_back(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_many([synthetic_record(i) for i in range(3)])
        store.put_many([synthetic_record(i) for i in range(3, 5)])
        assert len(store) == 5
        assert store.keys() == {f"{i:064x}" for i in range(5)}
        found = store.get_many([f"{3:064x}", "f" * 64])
        assert list(found) == [f"{3:064x}"] and found[f"{3:064x}"].seed == 3
        assert store.stats == {
            "commits": 2, "records_appended": 5, "records_served": 1,
        }

    def test_fresh_handle_sees_committed_data(self, tmp_path):
        ResultStore(tmp_path / "store").put_many([synthetic_record(1)])
        assert ResultStore(tmp_path / "store").keys() == {f"{1:064x}"}

    def test_get_many_serves_large_key_lists(self, tmp_path):
        records = [synthetic_record(i) for i in range(1200)]
        found = stored(tmp_path, records)
        assert found == {record.key: record for record in records}

    def test_last_commit_wins_for_a_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "a" * 64
        store.put_many([synthetic_record(1, key=key)])
        store.put_many([synthetic_record(2, key=key)])
        assert len(store) == 1
        assert store.get_many([key])[key].seed == 2

    def test_two_handles_interleave_commits(self, tmp_path):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        first.put_many([synthetic_record(1)])
        second.put_many([synthetic_record(2), synthetic_record(3)])
        first.put_many([synthetic_record(4)])
        second.put_many([synthetic_record(1)])  # the same point, again
        assert (first.stats["commits"], second.stats["commits"]) == (2, 2)
        reader = ResultStore(tmp_path)
        assert reader.keys() == {f"{i:064x}" for i in (1, 2, 3, 4)}
        found = reader.get_many(sorted(reader.keys()))
        assert sorted(record.seed for record in found.values()) == [1, 2, 3, 4]

    def test_missing_directory_reads_empty_and_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "missing")
        assert len(store) == 0
        assert store.keys() == frozenset()
        assert store.get_many(["a" * 64]) == {}
        store.put_many([])  # nothing to commit
        assert not (tmp_path / "missing").exists()
        assert store.stats["commits"] == 0

    def test_unstamped_database_reads_empty(self, tmp_path):
        """A database another process is still creating has no table yet."""
        sqlite3.connect(tmp_path / "runs.sqlite").close()  # an empty file
        assert len(ResultStore(tmp_path)) == 0
        assert ResultStore(tmp_path).get_many(["a" * 64]) == {}

    def test_old_segment_files_are_ignored(self, tmp_path):
        (tmp_path / "seg-000001-w0.seg").write_bytes(b"RPCCSTORE2\n...")
        (tmp_path / "seg-000001-w0.idx").write_text("{}")
        assert len(ResultStore(tmp_path)) == 0
        ResultStore(tmp_path).put_many([synthetic_record(1)])
        assert ResultStore(tmp_path).keys() == {f"{1:064x}"}

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs procfs")
    def test_no_connection_outlives_a_call(self, tmp_path):
        """Nothing stays open to be inherited by a forked pool worker."""
        store = ResultStore(tmp_path)
        store.put_many([synthetic_record(1)])
        store.get_many([f"{1:064x}"])
        len(store)
        open_files = {
            os.path.realpath(f"/proc/self/fd/{fd}")
            for fd in os.listdir("/proc/self/fd")
        }
        assert not any("runs.sqlite" in path for path in open_files)


#: One of several processes committing to one store at once.
CONCURRENT_WRITER = """
import sys
from repro.experiments.store import ResultStore
from tests.test_store import synthetic_record
root, first = sys.argv[1], int(sys.argv[2])
for index in range(first, first + 40, 2):
    ResultStore(root).put_many([synthetic_record(index), synthetic_record(index + 1)])
"""


def test_concurrent_processes_lose_no_commit(tmp_path):
    """Writers outnumbering the cores create the store and commit to it
    at once while this process reads: no commit is lost, no read fails,
    and the count a reader sees never goes down."""
    root = tmp_path / "store"
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
    )
    firsts = [1000 * writer for writer in range((os.cpu_count() or 1) + 2)]
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", CONCURRENT_WRITER, str(root), str(first)],
            cwd=repo, env=env,
        )
        for first in firsts
    ]
    seen = [0]
    deadline = time.monotonic() + 60.0
    try:
        while any(writer.poll() is None for writer in writers):
            assert time.monotonic() < deadline, "a writer hung"
            seen.append(len(ResultStore(root)))
    finally:
        codes = [writer.wait(timeout=60) for writer in writers]
    assert codes == [0] * len(writers)
    assert seen == sorted(seen)
    expected = {
        record.key: record
        for record in map(synthetic_record, (
            first + offset for first in firsts for offset in range(40)
        ))
    }
    store = ResultStore(root)
    assert len(store) == len(expected)
    assert store.get_many(sorted(expected)) == expected


class TestCrashSafety:
    def test_uncommitted_transaction_is_invisible(self, tmp_path):
        ResultStore(tmp_path).put_many([synthetic_record(1)])
        conn = sqlite3.connect(tmp_path / "runs.sqlite", isolation_level=None)
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("DELETE FROM runs")
        conn.execute(
            "INSERT INTO runs VALUES (?, ?, ?)", ("b" * 64, b"[]", 0)
        )
        assert ResultStore(tmp_path).keys() == {f"{1:064x}"}
        conn.close()  # never committed
        assert ResultStore(tmp_path).keys() == {f"{1:064x}"}

    def test_killed_transaction_rolls_back_on_the_next_read(self, tmp_path):
        """A writer killed mid-commit leaves a hot journal; the next
        reader rolls it back and sees exactly the committed records."""
        committed = [synthetic_record(i) for i in range(3)]
        ResultStore(tmp_path).put_many(committed)
        database = tmp_path / "runs.sqlite"
        killed = (
            "import os, sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('PRAGMA cache_size = 1')  # spill pages before COMMIT\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "conn.execute('DELETE FROM runs')\n"
            "for i in range(400):\n"
            "    conn.execute('INSERT INTO runs VALUES (?, ?, 0)',\n"
            "                 ('%064x' % (10**6 + i), os.urandom(2000)))\n"
            "os._exit(9)\n"
        )
        subprocess.run([sys.executable, "-c", killed, str(database)], check=False)
        assert (tmp_path / "runs.sqlite-journal").exists()  # the hot journal
        store = ResultStore(tmp_path)
        assert store.get_many(sorted(store.keys())) == {
            record.key: record for record in committed
        }

    @pytest.mark.parametrize("delta", [1, -1, 97])
    def test_other_format_version_is_refused_naming_the_file(self, tmp_path, delta):
        ResultStore(tmp_path).put_many([synthetic_record(1)])
        other = STORE_FORMAT_VERSION + delta
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute(f"PRAGMA user_version = {other}")
        conn.close()
        database = str(tmp_path / "runs.sqlite")
        for read in (len, ResultStore.keys, lambda s: s.get_many(["a" * 64])):
            with pytest.raises(StoreFormatError, match=f"format v{other}") as info:
                read(ResultStore(tmp_path))
            assert database in str(info.value)
        with pytest.raises(StoreFormatError, match=f"format v{other}"):
            ResultStore(tmp_path).put_many([synthetic_record(2)])

    def test_a_file_that_is_not_a_database_is_named(self, tmp_path):
        (tmp_path / "runs.sqlite").write_bytes(b"not a database, " * 64)
        database = str(tmp_path / "runs.sqlite")
        with pytest.raises(StoreFormatError) as info:
            ResultStore(tmp_path).keys()
        assert database in str(info.value)
        with pytest.raises(StoreFormatError) as info:
            ResultStore(tmp_path).put_many([synthetic_record(1)])
        assert database in str(info.value)

    def test_a_row_under_another_key_is_refused(self, tmp_path):
        """A damaged key column cannot serve a record under the wrong key."""
        ResultStore(tmp_path).put_many([synthetic_record(1)])
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute("UPDATE runs SET key = ?", ("c" * 64,))
        conn.close()
        with pytest.raises(StoreFormatError, match="holds another record"):
            ResultStore(tmp_path).get_many(["c" * 64])

    def test_a_payload_that_fails_its_crc_is_refused(self, tmp_path):
        ResultStore(tmp_path).put_many([synthetic_record(1)])
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute("UPDATE runs SET crc = crc + 1")
        conn.close()
        with pytest.raises(StoreFormatError, match="fails its CRC"):
            ResultStore(tmp_path).get_many([f"{1:064x}"])


#: Seven records committed in three transactions (3 + 3 + 1).
WRITTEN = {record.key: record for record in map(synthetic_record, range(7))}


@functools.lru_cache(maxsize=None)
def _pristine_store_files():
    with tempfile.TemporaryDirectory() as root:
        records = list(WRITTEN.values())
        for start in range(0, len(records), 3):
            ResultStore(root).put_many(records[start:start + 3])
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
    def test_the_pristine_store_is_one_database_file(self):
        assert [name for name, _ in _pristine_store_files()] == ["runs.sqlite"]

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
                listed = store.keys()
                fetched = store.get_many(sorted(WRITTEN.keys() | listed))
            except StoreFormatError:
                return
        for key, record in fetched.items():
            assert WRITTEN[key] == record
