"""Campaign persistence benchmark: the columnar result store.

The append-only columnar store batches completed points into record
batches (256 rows by default) and commits each with a single segment
append plus an atomic index-sidecar rewrite, so a thousand-point campaign
takes a dozen filesystem writes and reads back as a handful of
sequential scans.

``campaign_store_write_read_1000`` times a synthetic 1000-point campaign
end to end — persist every point through one ``SegmentWriter`` pass,
reopen cold, read every point back (``get_many`` +
``RunRecord.to_result``) as a usable ``SimulationResult``.  The synthetic
records are generated once outside the timed region, so the timing
isolates the persistence layer itself.  The measured ``store_fs_writes``
lands in ``BENCH_campaign.json``'s metadata, where
``tests/test_bench_baseline.py`` holds the committed number to what
:func:`campaign_write_counts` measures.

The pytest entry point below asserts the correctness side: the store
hands back the campaign it was given, bit for bit.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, List, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.store import ResultStore, RunRecord

#: Campaign size and batching for every benchmark in this module.
CAMPAIGN_POINTS = 1000
STORE_BATCH = 256


def _campaign_config() -> SimulationConfig:
    return SimulationConfig(
        n_peers=10, sim_time=120.0, warmup=0.0, seed=5,
        terrain_width=800.0, terrain_height=800.0,
    )


def synthetic_record(index: int) -> RunRecord:
    """One fully populated campaign point, no simulation required."""
    return RunRecord(
        key=f"{index:064x}",
        spec="rpcc-sc",
        scenario="standard",
        seed=index,
        sim_time=120.0,
        transmissions=1000 + index,
        messages=500 + index,
        bytes_on_air=2**40 + index,
        queries_issued=60,
        queries_answered=59,
        queries_unanswered=1,
        mean_latency=0.1 + index * 1e-9,
        mean_hit_latency=0.05,
        p95_latency=0.4,
        local_answer_ratio=1 / 3,
        stale_ratio=0.0123456789012345678,
        violation_ratio=0.0,
        mean_staleness_age=7.5,
        total_queries=60,
        total_updates=12,
        energy_consumed=123.456 + index,
        mean_battery_fraction=0.87,
        wall_clock_seconds=0.25,
        events_processed=4321 + index,
        transmissions_by_type={"QueryRequest": 30 + index % 7, "POLL": 12},
        counters={"relay_promotions": index % 5},
        fault_stats={"availability": 0.991234567890123},
        topology_stats={"snapshots_built": 40},
        relay_samples=[[60.0, 4], [120.0, 5]],
        traffic_series={"name": "transmissions",
                        "times": [60.0, 120.0],
                        "values": [10.0, 12.5 + index]},
        control_decisions=[],
    )


def synthetic_campaign() -> List[RunRecord]:
    return [synthetic_record(i) for i in range(CAMPAIGN_POINTS)]


def _store_write_read(root: str, records, config) -> Dict:
    store = ResultStore(root)
    with store.writer(batch_size=STORE_BATCH) as writer:
        for record in records:
            writer.add(record)
    cold = ResultStore(root)
    found = cold.get_many([record.key for record in records])
    return {key: record.to_result(config) for key, record in found.items()}


def campaign_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated campaign benchmark.

    Each timed iteration gets a pristine directory under ``workdir``, so
    it pays the real segment-claim cost instead of appending a new
    generation next to the last iteration's.
    """
    config = _campaign_config()
    records = synthetic_campaign()
    fresh = itertools.count()

    def store_campaign() -> None:
        _store_write_read(
            os.path.join(workdir, f"store-{next(fresh)}"), records, config
        )

    return [("campaign_store_write_read_1000", store_campaign)]


def campaign_write_counts() -> Dict[str, int]:
    """Filesystem writes the 1000-point campaign costs the store.

    *Measured* from the writer's own accounting, so the number tracks the
    implementation instead of a hand-maintained constant.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-writes-") as root:
        store = ResultStore(os.path.join(root, "store"))
        with store.writer(batch_size=STORE_BATCH) as writer:
            for record in synthetic_campaign():
                writer.add(record)
        return {"store_fs_writes": store.stats["fs_writes"]}


# ----------------------------------------------------------------------
# pytest entry point: the store must hand back the campaign it was
# given, bit for bit.


def _fingerprint(result) -> tuple:
    return (
        result.spec, result.scenario, result.config, result.summary,
        result.total_queries, result.total_updates, result.relay_samples,
        result.traffic_series.times, result.traffic_series.values,
        result.energy_consumed, result.mean_battery_fraction,
        result.topology_stats, result.fault_stats, result.control_decisions,
    )


def test_store_round_trip_matches_the_reference(tmp_path):
    config = _campaign_config()
    records = synthetic_campaign()[:50]

    from_store = _store_write_read(str(tmp_path / "store"), records, config)

    assert set(from_store) == {record.key for record in records}
    for record in records:
        assert _fingerprint(from_store[record.key]) == _fingerprint(
            record.to_result(config)
        )
