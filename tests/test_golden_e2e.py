"""Golden end-to-end regression digests for the seeded strategy matrix.

Each (spec, seed) cell runs a short traced simulation and is reduced to
a *digest*: the integer metrics, rounded float metrics and per-event-type
trace counts.  Digests are compared against ``tests/golden/digests.json``
— any behavioural drift in the engine, the network, a protocol, or the
trace instrumentation shows up as a digest mismatch here before it can
silently corrupt a figure.

Digests deliberately contain **no** ids (query/poll/message/fetch ids
come from process-global counters and depend on test execution order)
and no wall-clock fields.  Regenerate after an intentional behaviour
change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_e2e.py

and commit the refreshed ``digests.json`` (and ``worlds.json``, the
larger worlds pinned further down) alongside the change.  Each cell's
JSONL trace bytes are pinned too, in ``trace_bytes.json``: a change to
the writer alone must leave that file as it is.

Every run is also replayed through the invariant checker: the golden
matrix doubles as the "checker passes seeded e2e runs of all strategies
and levels" acceptance gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.net import soa
from repro.net.topology import TopologySnapshot
from repro.obs import InvariantChecker, JsonlSink, ListSink, TraceBus, read_jsonl

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
#: sha256 and byte count of each matrix cell's JSONL trace, recorded
#: through the sink of the per-field writer the compiled ones replaced.
TRACE_BYTES_PATH = Path(__file__).parent / "golden" / "trace_bytes.json"
#: Table-1 and 2 000-peer worlds, recorded while a scalar per-quantum core
#: still ran next to the array core and both produced these digests.
WORLDS_PATH = Path(__file__).parent / "golden" / "worlds.json"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))

SPECS = (
    "push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc", "rpcc-hy",
    "rpcc-controlled-sc", "rpcc-random-selection-sc", "push-uir",
)
SEEDS = (7, 11)
MATRIX = [(spec, seed) for spec in SPECS for seed in SEEDS]

_INT_METRICS = (
    "transmissions", "messages", "bytes_on_air",
    "queries_issued", "queries_answered", "queries_unanswered",
)
_FLOAT_METRICS = (
    "mean_latency", "mean_hit_latency", "p95_latency",
    "local_answer_ratio", "stale_ratio", "violation_ratio",
    "mean_staleness_age",
)


def _config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        n_peers=20,
        terrain_width=1000.0,
        terrain_height=1000.0,
        sim_time=180.0,
        warmup=60.0,
        seed=seed,
    )


def _run_cell(spec: str, seed: int, config: SimulationConfig = None):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(
        config or _config(seed), spec, "standard", trace=bus
    ).run()
    bus.close()
    return result, sink.events


def _digest(result, events) -> dict:
    summary = result.summary
    digest = {name: getattr(summary, name) for name in _INT_METRICS}
    digest.update({
        name: round(getattr(summary, name), 6) for name in _FLOAT_METRICS
    })
    digest["counters"] = dict(sorted(summary.counters.items()))
    digest["transmissions_by_type"] = dict(
        sorted(summary.transmissions_by_type.items())
    )
    digest["total_queries"] = result.total_queries
    digest["total_updates"] = result.total_updates
    digest["events"] = dict(sorted(Counter(e.etype for e in events).items()))
    return digest


def _renumbered(events) -> list:
    """``events`` with every ``*_id`` field renumbered 1, 2, ... in order
    of first appearance, per field: the ids come from process-global
    counters, so their raw values depend on what ran earlier in the process."""
    numbers: dict = {}
    renumbered = []
    for event in events:
        changes = {}
        for field in dataclasses.fields(event):
            if field.name.endswith("_id"):
                seen = numbers.setdefault(field.name, {})
                value = getattr(event, field.name)
                changes[field.name] = seen.setdefault(value, len(seen) + 1)
        renumbered.append(dataclasses.replace(event, **changes))
    return renumbered


def _trace_bytes(events) -> bytes:
    """The JSONL file a :class:`JsonlSink` writes for ``events``."""
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    for event in events:
        sink.on_event(event)
    return buffer.getvalue().encode("utf-8")


def _load_golden(path: Path = GOLDEN_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _store_golden(key: str, digest: dict, path: Path = GOLDEN_PATH) -> None:
    golden = _load_golden(path)
    golden[key] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("spec,seed", MATRIX, ids=[f"{s}-s{d}" for s, d in MATRIX])
def test_golden_digest(spec, seed):
    result, events = _run_cell(spec, seed)
    digest = _digest(result, events)

    # The invariant gate rides along on every golden run.
    report = InvariantChecker(delta=result.config.ttp).feed_all(events).finish()
    assert report.ok, f"{spec} seed={seed}:\n{report.format()}"
    assert report.reads_checked > 0  # the pass is not vacuous

    key = f"{spec}-seed{seed}"
    events = _renumbered(events)
    data = _trace_bytes(events)
    trace = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if UPDATE:
        _store_golden(key, digest)
        _store_golden(key, trace, TRACE_BYTES_PATH)
        pytest.skip(f"updated golden digest for {key}")
    # The file reads back to the events that wrote it.
    assert read_jsonl(io.StringIO(data.decode("utf-8"))) == events
    assert trace == _load_golden(TRACE_BYTES_PATH).get(key), (
        f"trace bytes of {key} no longer match tests/golden/trace_bytes.json"
    )
    golden = _load_golden()
    assert key in golden, (
        f"no golden digest for {key}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert digest == golden[key], (
        f"behaviour drift in {key}: digest no longer matches "
        f"tests/golden/digests.json (regenerate only if the change is intended)"
    )


def test_replay_is_bit_identical():
    """Same config, same seed, fresh build — byte-for-byte the same digest."""
    first_result, first_events = _run_cell("rpcc-sc", 7)
    second_result, second_events = _run_cell("rpcc-sc", 7)
    assert _digest(first_result, first_events) == _digest(second_result, second_events)
    # Stronger than the digest: the full timestamped event streams match.
    strip = lambda events: [
        {k: v for k, v in e.to_dict().items() if not k.endswith("_id")}
        for e in events
    ]
    assert strip(first_events) == strip(second_events)


def test_golden_digest_reproduced_outside_the_matrix():
    """One golden cell rerun outside the matrix yields the committed digest.

    The 20-peer golden population takes the array build (all-pairs
    candidate stage), like every size.
    """
    digest = _digest(*_run_cell("rpcc-sc", 7))
    golden = _load_golden()
    if not UPDATE and "rpcc-sc-seed7" in golden:
        assert digest == golden["rpcc-sc-seed7"]


# ----------------------------------------------------------------------
# The paper's regime (Table 1: 50 peers, waypoint, churn) on the array build
# ----------------------------------------------------------------------
FAULTS_DIR = Path(__file__).parent.parent / "examples" / "faults"


def _run_table1(spec: str, **overrides):
    """Table-1 defaults, shortened; ``(result, digest)`` of one traced run."""
    config = SimulationConfig(sim_time=150.0, warmup=50.0, seed=7, **overrides)
    result, events = _run_cell(spec, 7, config)
    return result, _digest(result, events)


def _check_world(key: str, digest: dict, **pinned) -> None:
    """Compare one world with ``worlds.json`` (or record it, under UPDATE).

    ``pinned`` holds result counters (``topology_stats``,
    ``fault_stats``) committed next to the digest.
    """
    record = {"digest": digest, **pinned}
    if UPDATE:
        _store_golden(key, record, WORLDS_PATH)
        return
    worlds = _load_golden(WORLDS_PATH)
    assert key in worlds, (
        f"no committed world {key}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert record == worlds[key], f"behaviour drift in {key} (tests/golden/worlds.json)"


def _spy(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("spec", ("rpcc-hy", "pull", "push"))
def test_table1_world_matches_golden(spec):
    """50 peers is under every size crossover there ever was: the array
    build serves it and must reproduce the digest and refresh counters
    committed when a scalar core produced them too."""
    result, digest = _run_table1(spec)
    assert digest["transmissions"] > 0
    _check_world(f"table1-{spec}", digest, topology_stats=result.topology_stats)


@pytest.mark.parametrize("spec,sent", [
    ("pull", {"PullPoll", "PullReply"}),  # floods, unicast replies
    ("rpcc-hy", {"Invalidation", "Poll", "PollAckA"}),
])
def test_table1_run_stays_off_the_scalar_build(monkeypatch, spec, sent):
    """Floods and unicasts over 50 waypoint peers: arrays in, dicts out.
    One ``build_csr`` per built snapshot; no refresh makes a ``Point``,
    and no membership test is a numpy call."""
    calls = []
    _spy(monkeypatch, soa.ArrayPositions, "materialized", calls)
    _spy(monkeypatch, soa.ArrayPositions, "__contains__", calls)
    _spy(monkeypatch, soa.np, "searchsorted", calls)
    _spy(monkeypatch, soa, "build_csr", calls)
    built = []
    real_init = TopologySnapshot.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TopologySnapshot, "__init__", init)
    result, digest = _run_table1(spec)
    stats = result.topology_stats
    assert stats["snapshots_built"] > 100
    assert digest["transmissions_by_type"].keys() >= sent
    assert calls == ["build_csr"] * stats["snapshots_built"]
    assert len(built) == stats["snapshots_built"]
    # Traversals stop where the answer is: what every per-source record
    # discovered over the run, against walking each one's whole component
    # (what a full BFS per source per snapshot costs: 100 %).
    discovered = whole = 0
    for snapshot in built:
        for source, record in list(snapshot._bfs_cache.items()):
            discovered += len(record[0])
            whole += len(snapshot.bfs_levels(source))
    assert 0 < discovered <= whole
    if spec == "rpcc-hy":  # unicasts and holder lookups; pull's TTL-8 floods
        assert discovered <= 0.6 * whole  # walk nearly everything (64 %)


def test_partition_plan_filters_the_lazily_materialised_snapshot(monkeypatch):
    """A partition reads positions and neighbour lists the array build
    left unmaterialised; the cut graph must yield the committed run."""
    from repro.faults import FaultPlan

    plan = FaultPlan.load(FAULTS_DIR / "partition.json")
    filtered = []
    real_filter = TopologySnapshot._apply_edge_filter

    def apply_edge_filter(self):
        filtered.append(
            (type(self.positions), self._adjacency_store is None, self._csr is None)
        )
        real_filter(self)

    monkeypatch.setattr(TopologySnapshot, "_apply_edge_filter", apply_edge_filter)
    result, digest = _run_table1("rpcc-sc", faults=plan)
    # Every filtered build started from arrays with nothing materialised.
    assert len(filtered) > 10
    assert set(filtered) <= {
        (soa.ArrayPositions, True, False), (dict, True, False)
    }
    assert (soa.ArrayPositions, True, False) in filtered
    assert result.summary.fault_stats["partition_seconds"] == 60.0
    _check_world("table1-partition-rpcc-sc", digest, fault_stats=result.summary.fault_stats)


#: ``(key, spec, peers, sim_time)``: nineteen peers in twenty stand still,
#: so a quantum moves two or three of 50 and about ten of 200 (terrain
#: scaled to the Table-1 density).
PAUSE_WORLDS = [
    ("pause50-pull", "pull", 50, 150.0),
    ("pause50-rpcc-hy", "rpcc-hy", 50, 150.0),
    ("pause200-rpcc-hy", "rpcc-hy", 200, 100.0),
]


@pytest.mark.parametrize(
    "key,spec,n_peers,sim_time", PAUSE_WORLDS, ids=[w[0] for w in PAUSE_WORLDS]
)
def test_pause_heavy_world(key, spec, n_peers, sim_time):
    """Few movers a quantum, the regime where a refresh used to patch the
    previous snapshot instead of rebuilding it.  These digests were
    recorded while it still did: ``incremental_updates`` read 182
    (pause50-pull), 191 (pause50-rpcc-hy) and 153 (pause200-rpcc-hy)
    against one from-scratch build each, so a rebuild that diverges from
    the patch in this regime fails here."""
    side = 1500.0 * (n_peers / 50.0) ** 0.5
    config = SimulationConfig(
        n_peers=n_peers,
        terrain_width=side,
        terrain_height=side,
        stable_fraction=0.95,
        sim_time=sim_time,
        warmup=50.0,
        seed=7,
    )
    result, events = _run_cell(spec, 7, config)
    digest = _digest(result, events)
    assert digest["transmissions"] > 0
    _check_world(key, digest)
    # Served by rebuilds: one per changed refresh.
    assert result.topology_stats["snapshots_built"] > 150


def _run_large_world(key: str, stable_fraction: float):
    """A 2 000-peer walk world, above the array-refresh crossover: the
    result of one traced run, its digest checked against the committed one."""
    n_peers = 2000
    assert n_peers >= soa.ARRAY_REFRESH_MIN_NODES
    side = 1500.0 * (n_peers / 50.0) ** 0.5
    config = SimulationConfig(
        n_peers=n_peers,
        terrain_width=side,
        terrain_height=side,
        mobility="walk",
        stable_fraction=stable_fraction,
        sim_time=3.0,
        warmup=0.0,
        query_interval=100.0,
        update_interval=2.0,
        seed=7,
    )
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(config, "rpcc-hy", "single_source", trace=bus).run()
    bus.close()
    digest = _digest(result, sink.events)
    assert digest["transmissions"] > 0
    _check_world(key, digest)
    return result


def test_large_sparse_world_matches_golden():
    """Above the array-refresh crossover with few movers, a run must
    still equal the committed one."""
    stats = _run_large_world("large-sparse", 0.9).topology_stats
    assert stats["snapshots_built"] > 1


def test_large_walker_world_matches_golden():
    """Nine walkers in ten, switching on and off as they go: the array
    refreshes reuse their candidate pairs through the churn, and the run
    still equals the committed one."""
    stats = _run_large_world("large-walkers", 0.1).topology_stats
    assert stats["invalidations"] > 0
    assert stats["pair_list_reuses"] > stats["pair_list_builds"] >= 1
    assert stats["snapshots_built"] == (
        stats["pair_list_builds"] + stats["pair_list_reuses"]
    )


def test_golden_file_covers_the_whole_matrix():
    if UPDATE:
        pytest.skip("regenerating")
    cells = {f"{spec}-seed{seed}" for spec, seed in MATRIX}
    assert set(_load_golden()) == cells
    assert set(_load_golden(TRACE_BYTES_PATH)) == cells
