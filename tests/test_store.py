"""Tests for the one-table SQLite result store.

The store is the campaign persistence layer, so its load-bearing
properties are (1) *exact* round trips — a stored ``SimulationResult``
must be served bit-identical, every int and float field with its type —
and (2) crash safety: only committed transactions are ever visible, and
a damaged file serves the results that were written or raises
:class:`StoreFormatError`, never different numbers.
"""

import copy
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
import typing
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import run_key
from repro.experiments.runner import SimulationResult, run_simulation
from repro.experiments.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    StoreFormatError,
)
from repro.metrics.collector import MetricsSummary
from repro.metrics.timeseries import TimeSeries
from tests.conftest import result_fingerprint


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


#: The task every synthetic result is stored under and served with.
TASK = (tiny_config(), "rpcc-sc", "standard")

#: The result fields the store keeps besides the summary's, in order.
OWN = [
    field.name for field in dataclasses.fields(SimulationResult)
    if field.name not in ("config", "spec", "scenario", "summary")
]
#: The summary's fields, which the store keeps first.
SUMMARY = [field.name for field in dataclasses.fields(MetricsSummary)]
#: What each position of a stored payload holds.
COLUMNS = ["key", *SUMMARY, *OWN]


def series(name, *samples):
    built = TimeSeries(name)
    for time_, value in samples:
        built.record(time_, value)
    return built


def synthetic_result(index: int = 0) -> SimulationResult:
    """A fully populated result without paying for a simulation."""
    config, spec, scenario = TASK
    summary = MetricsSummary(
        transmissions=1000 + index,
        messages=500 + index,
        bytes_on_air=2**40 + index,  # exceeds 32 bits
        queries_issued=60,
        queries_answered=59,
        queries_unanswered=1,
        mean_latency=0.1 + index * 1e-9,  # sub-ulp steps must round trip
        mean_hit_latency=0.05,
        p95_latency=math.inf,
        local_answer_ratio=1 / 3,
        stale_ratio=0.0123456789012345678,
        violation_ratio=0.0,
        mean_staleness_age=7.5,
        transmissions_by_type={"QueryRequest": 30, "POLL": 12},
        counters={"relay_promotions": 3},
        fault_stats={"availability": 0.991234567890123},
    )
    return SimulationResult(
        spec=spec,
        scenario=scenario,
        config=config,
        summary=summary,
        total_queries=60,
        total_updates=12,
        relay_samples=[(60.0, 4), (120.0, 5)],
        traffic_series=series("transmissions", (60.0, 10.0), (120.0, 12.5)),
        energy_consumed=123.456,
        mean_battery_fraction=0.87,
        wall_clock_seconds=0.25,
        events_processed=index,
        topology_stats={"snapshots_built": 40},
        control_decisions=[{"time": 90.0, "policy": "hysteresis",
                            "reason": "partition", "modes": 0,
                            "applied": {"ttr": 45.5}}],
    )


def key_of(index: int) -> str:
    return f"{index:064x}"


def entry(index: int):
    """One ``(key, result)`` pair as the executor commits it."""
    return key_of(index), synthetic_result(index)


def exact(results):
    """``{key: fingerprint}`` with nothing skipped, the wall clock included."""
    return {key: result_fingerprint(result, skip=()) for key, result in dict(results).items()}


def served(root, keys):
    return ResultStore(root).get_many({key: TASK for key in keys})


def stored(root, pairs):
    """Commit ``pairs`` through one handle, read them back through another."""
    ResultStore(root).put_many(pairs)
    return served(root, [key for key, _ in pairs])


def raw_payload(root, key):
    with sqlite3.connect(Path(root) / "runs.sqlite") as conn:
        ((payload,),) = conn.execute("SELECT payload FROM runs WHERE key = ?", (key,))
    conn.close()
    return payload


def rewrite_payload(root, key, row):
    """Store ``row`` as the payload under ``key``, its CRC stamped anew."""
    payload = json.dumps(row).encode("utf-8")
    with sqlite3.connect(Path(root) / "runs.sqlite") as conn:
        conn.execute(
            "UPDATE runs SET payload = ?, crc = ? WHERE key = ?",
            (payload, zlib.crc32(payload), key),
        )
    conn.close()


class TestResultRoundTrip:
    def test_simulation_result_survives_the_store(self, tmp_path):
        config = tiny_config(seed=13)
        result = run_simulation(config, "rpcc-sc")
        key = run_key(config, "rpcc-sc")
        ResultStore(tmp_path).put_many([(key, result)])
        back = ResultStore(tmp_path).get_many({key: (config, "rpcc-sc", "standard")})
        assert exact(back) == exact({key: result})

    def test_a_served_result_is_built_around_its_task(self, tmp_path):
        config = tiny_config(seed=5)
        (key, result), = [entry(1)]
        ResultStore(tmp_path).put_many([(key, result)])
        back = ResultStore(tmp_path).get_many({key: (config, "push", "hot_set")})[key]
        assert (back.config, back.spec, back.scenario) == (config, "push", "hot_set")
        assert back.config is config
        assert back.summary == result.summary


def distinctive_result(cast: bool = False) -> SimulationResult:
    """Every field of a result and its summary holding a value no other
    field holds: non-finite floats, ``-0.0``, ints above 2**53, and ints in
    three float fields (as floats when ``cast``, which is how they read back)."""
    number = float if cast else int
    config, spec, scenario = TASK
    summary = MetricsSummary(
        transmissions=2**53 + 1,  # the first int a float cannot hold
        messages=2**63 - 1,
        bytes_on_air=2**64 + 7,
        queries_issued=101,
        queries_answered=97,
        queries_unanswered=4,
        mean_latency=math.inf,
        mean_hit_latency=-math.inf,
        p95_latency=math.nan,
        local_answer_ratio=-0.0,
        stale_ratio=0.0123456789012345678,
        violation_ratio=5e-324,  # the smallest subnormal
        mean_staleness_age=number(3),
        transmissions_by_type={"QueryRequest": 2**60, "POLL": 12},
        counters={"relay_promotions": 3, "huge": 2**70},
        fault_stats={"nan": math.nan, "neg_zero": -0.0, "inf": math.inf,
                     "int": number(2)},
    )
    return SimulationResult(
        spec=spec,
        scenario=scenario,
        config=config,
        summary=summary,
        total_queries=211,
        total_updates=223,
        relay_samples=[(-0.0, 0), (1e300, 2**62)],
        traffic_series=series("tx", (0.0, math.inf), (0.5, -0.0), (0.5, 1 / 3)),
        energy_consumed=number(17),
        mean_battery_fraction=1.7976931348623157e308,
        wall_clock_seconds=2.2250738585072014e-308,
        events_processed=307,
        topology_stats={"snapshots_built": 311, "pair_list_builds": 2**53 + 3},
        control_decisions=[{"time": 0.25, "applied": {"ttr": -0.0, "ttp": math.inf},
                            "nested": [None, True, "text", [1, 2.5]]}],
    )


class TestExactTypes:
    def test_every_field_round_trips_with_its_type(self, tmp_path):
        pairs = [entry(i) for i in range(5)]
        assert exact(stored(tmp_path, pairs)) == exact(pairs)

    def test_a_distinctive_value_in_every_field_round_trips(self, tmp_path):
        written = distinctive_result()
        back = stored(tmp_path, [("d" * 64, written)])["d" * 64]
        assert exact({0: back}) == exact({0: distinctive_result(cast=True)})
        # The three ints in float fields come back floats; nothing else moved.
        assert exact({0: back}) != exact({0: written})
        # Every field is set, and to a value no other field holds, so a
        # field read back from another's position cannot pass.
        values = [
            json.dumps(result_fingerprint(getattr(holder, field.name)))
            for holder in (written.summary, written)
            for field in dataclasses.fields(holder)
            if field.name not in ("config", "spec", "scenario", "summary")
        ]
        assert len(values) == len(COLUMNS) - 1 == len(set(values))
        for holder in (written.summary, written):
            for field in dataclasses.fields(holder):
                if field.default_factory is not dataclasses.MISSING:
                    assert getattr(holder, field.name) != field.default_factory()
                elif field.default is not dataclasses.MISSING:
                    assert getattr(holder, field.name) != field.default, field.name

    def test_payload_is_one_json_array_of_the_fields_in_order(self, tmp_path):
        key, result = entry(3)
        ResultStore(tmp_path).put_many([(key, result)])
        expected = [key]
        expected += [getattr(result.summary, name) for name in SUMMARY]
        expected += [getattr(result, name) for name in OWN]
        traffic = result.traffic_series
        expected[COLUMNS.index("traffic_series")] = [traffic.name, traffic.times, traffic.values]
        assert json.loads(raw_payload(tmp_path, key)) == json.loads(json.dumps(expected))


#: Values a field's type refuses, each with the field it is written to.
REFUSED = [
    ("transmissions", "lots"),
    ("transmissions", 3.0),
    ("events_processed", True),
    ("mean_latency", "0.1"),
    ("mean_latency", None),
    ("mean_latency", 10**400),  # an int no float can hold
    ("counters", {"relay_promotions": 1.5}),
    ("counters", [["relay_promotions", 1]]),
    ("relay_samples", [[1.0], [120.0, 5]]),
    ("relay_samples", [[60.0, 4.0]]),
    ("relay_samples", [[60.0, 4, 0]]),
    ("traffic_series", ["tx", [2.0, 1.0], [1.0, 1.0]]),  # out of time order
    ("traffic_series", ["tx", [1.0], []]),
    ("traffic_series", [7, [], []]),
    ("control_decisions", {"time": 1.0}),
]


class TestDecodeChecks:
    @pytest.mark.parametrize(("field", "value"), REFUSED)
    def test_a_value_its_field_refuses_is_named(self, tmp_path, field, value):
        key, result = entry(1)
        ResultStore(tmp_path).put_many([(key, result)])
        row = json.loads(raw_payload(tmp_path, key))
        row[COLUMNS.index(field)] = value
        rewrite_payload(tmp_path, key, row)
        with pytest.raises(StoreFormatError) as info:
            served(tmp_path, [key])
        assert f"record {key!r}: field {field!r}" in str(info.value)

    def test_an_int_in_a_float_field_is_served_a_float(self, tmp_path):
        key, result = entry(1)
        ResultStore(tmp_path).put_many([(key, result)])
        row = json.loads(raw_payload(tmp_path, key))
        row[COLUMNS.index("mean_latency")] = 2**53 + 1
        rewrite_payload(tmp_path, key, row)
        back = served(tmp_path, [key])[key]
        assert type(back.summary.mean_latency) is float
        assert back.summary.mean_latency == float(2**53 + 1)


#: Any JSON value: what one rewritten part of a payload may become.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def rewrite(draw, value):
    """``value`` with one part rewritten: all of it, or inside a list or a
    dict one element replaced (the same way), added or dropped."""
    if not isinstance(value, (list, dict)) or not draw(st.booleans()):
        return draw(JSON)
    value = copy.copy(value)
    where = list(range(len(value))) if isinstance(value, list) else sorted(value)
    action = draw(st.sampled_from(["replace", "add", "drop"] if where else ["add"]))
    if action == "add" and isinstance(value, list):
        value.insert(draw(st.integers(0, len(value))), draw(JSON))
    elif action == "add":
        value[draw(st.text(max_size=4))] = draw(JSON)
    elif action == "drop":
        del value[draw(st.sampled_from(where))]
    else:
        at = draw(st.sampled_from(where))
        value[at] = rewrite(draw, value[at])
    return value


def conforms(value, hint) -> bool:
    """``value`` is what a field annotated ``hint`` may hold: each scalar of
    exactly its type, each container of its shape, a TimeSeries in time order."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is object:
        return True
    if hint in (int, float, str):
        return type(value) is hint
    if origin is typing.Union:  # Optional[X]
        return value is None or conforms(value, args[0])
    if origin is dict:
        return type(value) is dict and all(
            type(name) is str and conforms(item, args[1]) for name, item in value.items()
        )
    if origin is list:
        return type(value) is list and all(conforms(item, args[0]) for item in value)
    if origin is tuple:
        return type(value) is tuple and len(value) == len(args) and all(map(conforms, value, args))
    assert hint is TimeSeries, hint
    return (
        type(value) is TimeSeries and type(value.name) is str
        and conforms(value.times, typing.List[float])
        and conforms(value.values, typing.List[float])
        and len(value.times) == len(value.values) and value.times == sorted(value.times)
    )


def same(written, read) -> bool:
    """``read`` is ``written`` as its field holds it: equal and of one type,
    but for an int that a float field casts."""
    if type(read) is float and type(written) is int:
        return float(written) == read
    if type(read) is not type(written):
        return False
    if isinstance(read, list):
        return len(read) == len(written) and all(map(same, written, read))
    if isinstance(read, dict):
        return read.keys() == written.keys() and all(same(written[k], read[k]) for k in read)
    return repr(read) == repr(written)


#: Every stored field's annotation, by name.
HINTS = typing.get_type_hints(MetricsSummary) | typing.get_type_hints(SimulationResult)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_rewritten_value_is_served_as_written_or_refused(data):
    """One value of a payload rewritten and its CRC stamped anew: the read
    serves what the payload now says, each field holding what its
    annotation allows, or raises StoreFormatError — never another exception."""
    key, result = entry(1)
    with tempfile.TemporaryDirectory() as root:
        ResultStore(root).put_many([(key, result)])
        row = json.loads(raw_payload(root, key))
        at = data.draw(st.integers(0, len(row) - 1), label="position")
        row[at] = rewrite(data.draw, row[at])
        rewrite_payload(root, key, row)
        try:
            back = served(root, [key])[key]
        except StoreFormatError:
            return
        ResultStore(root).put_many([("e" * 64, back)])
        again = json.loads(raw_payload(root, "e" * 64))
    for name in COLUMNS[1:]:
        value = getattr(back.summary if name in SUMMARY else back, name)
        assert conforms(value, HINTS[name]), (name, value)
    assert same(row[1:], again[1:]), (COLUMNS[at], row[at])


class TestStoreReadWrite:
    def test_commits_and_reads_back(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_many([entry(i) for i in range(3)])
        store.put_many([entry(i) for i in range(3, 5)])
        assert len(store) == 5
        assert store.keys() == {key_of(i) for i in range(5)}
        found = store.get_many({key_of(3): TASK, "f" * 64: TASK})
        assert list(found) == [key_of(3)] and found[key_of(3)].events_processed == 3
        assert store.stats == {
            "commits": 2, "records_appended": 5, "records_served": 1,
        }

    def test_fresh_handle_sees_committed_data(self, tmp_path):
        ResultStore(tmp_path / "store").put_many([entry(1)])
        assert ResultStore(tmp_path / "store").keys() == {key_of(1)}

    def test_get_many_serves_large_key_lists(self, tmp_path):
        pairs = [entry(i) for i in range(1200)]
        assert exact(stored(tmp_path, pairs)) == exact(pairs)

    def test_last_commit_wins_for_a_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "a" * 64
        store.put_many([(key, synthetic_result(1))])
        store.put_many([(key, synthetic_result(2))])
        assert len(store) == 1
        assert store.get_many({key: TASK})[key].events_processed == 2

    def test_two_handles_interleave_commits(self, tmp_path):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        first.put_many([entry(1)])
        second.put_many([entry(2), entry(3)])
        first.put_many([entry(4)])
        second.put_many([entry(1)])  # the same point, again
        assert (first.stats["commits"], second.stats["commits"]) == (2, 2)
        reader = ResultStore(tmp_path)
        assert reader.keys() == {key_of(i) for i in (1, 2, 3, 4)}
        found = reader.get_many({key: TASK for key in sorted(reader.keys())})
        assert sorted(result.events_processed for result in found.values()) == [1, 2, 3, 4]

    def test_missing_directory_reads_empty_and_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "missing")
        assert len(store) == 0
        assert store.keys() == frozenset()
        assert store.get_many({"a" * 64: TASK}) == {}
        store.put_many([])  # nothing to commit
        assert not (tmp_path / "missing").exists()
        assert store.stats["commits"] == 0

    def test_unstamped_database_reads_empty(self, tmp_path):
        """A database another process is still creating has no table yet."""
        sqlite3.connect(tmp_path / "runs.sqlite").close()  # an empty file
        assert len(ResultStore(tmp_path)) == 0
        assert served(tmp_path, ["a" * 64]) == {}

    def test_old_segment_files_are_ignored(self, tmp_path):
        (tmp_path / "seg-000001-w0.seg").write_bytes(b"RPCCSTORE2\n...")
        (tmp_path / "seg-000001-w0.idx").write_text("{}")
        assert len(ResultStore(tmp_path)) == 0
        ResultStore(tmp_path).put_many([entry(1)])
        assert ResultStore(tmp_path).keys() == {key_of(1)}

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs procfs")
    def test_no_connection_outlives_a_call(self, tmp_path):
        """Nothing stays open to be inherited by a forked pool worker."""
        store = ResultStore(tmp_path)
        store.put_many([entry(1)])
        store.get_many({key_of(1): TASK})
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
from tests.test_store import entry
root, first = sys.argv[1], int(sys.argv[2])
for index in range(first, first + 40, 2):
    ResultStore(root).put_many([entry(index), entry(index + 1)])
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
    expected = [entry(first + offset) for first in firsts for offset in range(40)]
    assert len(ResultStore(root)) == len(expected)
    assert exact(served(root, sorted(dict(expected)))) == exact(expected)


class TestCrashSafety:
    def test_uncommitted_transaction_is_invisible(self, tmp_path):
        ResultStore(tmp_path).put_many([entry(1)])
        conn = sqlite3.connect(tmp_path / "runs.sqlite", isolation_level=None)
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("DELETE FROM runs")
        conn.execute(
            "INSERT INTO runs VALUES (?, ?, ?)", ("b" * 64, b"[]", 0)
        )
        assert ResultStore(tmp_path).keys() == {key_of(1)}
        conn.close()  # never committed
        assert ResultStore(tmp_path).keys() == {key_of(1)}

    def test_killed_transaction_rolls_back_on_the_next_read(self, tmp_path):
        """A writer killed mid-commit leaves a hot journal; the next
        reader rolls it back and sees exactly the committed results."""
        committed = [entry(i) for i in range(3)]
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
        assert exact(served(tmp_path, sorted(store.keys()))) == exact(committed)

    @pytest.mark.parametrize("delta", [1, -1, 97])
    def test_other_format_version_is_refused_naming_the_file(self, tmp_path, delta):
        """``delta = -1`` is the format before this one (v3's payloads
        were another record type): refused, naming both versions."""
        ResultStore(tmp_path).put_many([entry(1)])
        other = STORE_FORMAT_VERSION + delta
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute(f"PRAGMA user_version = {other}")
        conn.close()
        database = str(tmp_path / "runs.sqlite")
        both = f"format v{other}, this reader speaks v{STORE_FORMAT_VERSION}"
        for read in (len, ResultStore.keys, lambda s: s.get_many({key_of(1): TASK})):
            with pytest.raises(StoreFormatError, match=both) as info:
                read(ResultStore(tmp_path))
            assert database in str(info.value)
        with pytest.raises(StoreFormatError, match=both):
            ResultStore(tmp_path).put_many([entry(2)])

    def test_a_file_that_is_not_a_database_is_named(self, tmp_path):
        (tmp_path / "runs.sqlite").write_bytes(b"not a database, " * 64)
        database = str(tmp_path / "runs.sqlite")
        with pytest.raises(StoreFormatError) as info:
            ResultStore(tmp_path).keys()
        assert database in str(info.value)
        with pytest.raises(StoreFormatError) as info:
            ResultStore(tmp_path).put_many([entry(1)])
        assert database in str(info.value)

    def test_a_row_under_another_key_is_refused(self, tmp_path):
        """A damaged key column cannot serve a result under the wrong key."""
        ResultStore(tmp_path).put_many([entry(1)])
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute("UPDATE runs SET key = ?", ("c" * 64,))
        conn.close()
        with pytest.raises(StoreFormatError, match="holds another record"):
            served(tmp_path, ["c" * 64])

    def test_a_payload_that_fails_its_crc_is_refused(self, tmp_path):
        ResultStore(tmp_path).put_many([entry(1)])
        with sqlite3.connect(tmp_path / "runs.sqlite") as conn:
            conn.execute("UPDATE runs SET crc = crc + 1")
        conn.close()
        with pytest.raises(StoreFormatError, match="fails its CRC"):
            served(tmp_path, [key_of(1)])


#: Seven results committed in three transactions (3 + 3 + 1).
WRITTEN = [entry(index) for index in range(7)]


@functools.lru_cache(maxsize=None)
def _pristine_store_files():
    with tempfile.TemporaryDirectory() as root:
        for start in range(0, len(WRITTEN), 3):
            ResultStore(root).put_many(WRITTEN[start:start + 3])
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
    def test_reads_return_committed_results_or_raise(self, files):
        """Whatever happens to the files, a read hands back results that
        were written, exactly as written, or raises StoreFormatError."""
        with tempfile.TemporaryDirectory() as root:
            for name, blob in files.items():
                (Path(root) / name).write_bytes(blob)
            store = ResultStore(root)
            try:
                listed = store.keys()
                fetched = served(root, sorted(dict(WRITTEN).keys() | listed))
            except StoreFormatError:
                return
        written = exact(WRITTEN)
        for key, fingerprint in exact(fetched).items():
            assert written[key] == fingerprint
