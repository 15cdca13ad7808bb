"""Golden end-to-end regression digests for the seeded strategy matrix.

Each (spec, seed) cell runs a short traced simulation and is reduced to
a *digest*: the integer metrics, rounded float metrics and per-event-type
trace counts.  Digests are compared against ``tests/golden/digests.json``
— any behavioural drift in the engine, the network, a protocol, or the
trace instrumentation shows up as a digest mismatch here before it can
silently corrupt a figure.

Digests deliberately contain **no** ids (query/poll/message/fetch ids
come from process-global counters and depend on test execution order)
and no wall-clock fields.  Each cell's JSONL trace bytes are pinned too,
in ``trace_bytes.json``: a change to the writer alone must leave that
file as it is.  ``worlds.json`` pins the larger worlds further down.
:func:`digests`, :func:`trace_bytes` and :func:`worlds` compute the three
files; after an intentional behaviour change ``python tools/adopt.py``
shows what moved and ``python tools/adopt.py --adopt`` re-takes them.

Every run is also replayed through the invariant checker: the golden
matrix doubles as the "checker passes seeded e2e runs of all strategies
and levels" acceptance gate.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.net import soa
from repro.net.topology import TopologySnapshot
from repro.obs import InvariantChecker, JsonlSink, ListSink, TraceBus, read_jsonl
from tests.expectations import committed, summary_digest

SPECS = (
    "push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc", "rpcc-hy",
    "rpcc-controlled-sc", "rpcc-random-selection-sc", "push-uir",
)
SEEDS = (7, 11)
MATRIX = [(spec, seed) for spec in SPECS for seed in SEEDS]


def _config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        n_peers=20,
        terrain_width=1000.0,
        terrain_height=1000.0,
        sim_time=180.0,
        warmup=60.0,
        seed=seed,
    )


def _run_cell(spec: str, seed: int, config: SimulationConfig = None,
              scenario: str = "standard"):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(
        config or _config(seed), spec, scenario, trace=bus
    ).run()
    bus.close()
    return result, sink.events


def _digest(result, events) -> dict:
    digest = summary_digest(result.summary)
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


def _trace_record(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@functools.lru_cache(maxsize=None)
def _matrix():
    """``(digests, trace records)`` of every matrix cell, by cell key:
    one run per cell serves both files."""
    digests, traces = {}, {}
    for spec, seed in MATRIX:
        result, events = _run_cell(spec, seed)
        digests[f"{spec}-seed{seed}"] = _digest(result, events)
        traces[f"{spec}-seed{seed}"] = _trace_record(_trace_bytes(_renumbered(events)))
    return digests, traces


def digests() -> dict:
    """The content of ``tests/golden/digests.json``."""
    return _matrix()[0]


def trace_bytes() -> dict:
    """The content of ``tests/golden/trace_bytes.json``."""
    return _matrix()[1]


@pytest.mark.expectation
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
    # The file reads back to the events that wrote it.
    assert read_jsonl(io.StringIO(data.decode("utf-8"))) == events
    assert _trace_record(data) == committed("trace_bytes").get(key), (
        f"trace bytes of {key} no longer match tests/golden/trace_bytes.json"
    )
    assert digest == committed("digests").get(key), (
        f"behaviour drift in {key}: digest no longer matches "
        f"tests/golden/digests.json (python tools/adopt.py shows what moved)"
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


@pytest.mark.expectation
def test_golden_digest_reproduced_outside_the_matrix():
    """One golden cell rerun outside the matrix yields the committed digest.

    The 20-peer golden population takes the array build (all-pairs
    candidate stage), like every size.
    """
    digest = _digest(*_run_cell("rpcc-sc", 7))
    assert digest == committed("digests")["rpcc-sc-seed7"]


# ----------------------------------------------------------------------
# The paper's regime (Table 1: 50 peers, waypoint, churn) on the array build
# ----------------------------------------------------------------------
FAULTS_DIR = Path(__file__).parent.parent / "examples" / "faults"


def _run_table1(spec: str, **overrides):
    """Table-1 defaults, shortened; ``(result, digest)`` of one traced run."""
    config = SimulationConfig(sim_time=150.0, warmup=50.0, seed=7, **overrides)
    result, events = _run_cell(spec, 7, config)
    return result, _digest(result, events)


def _table1_world(spec: str):
    """A Table-1 world and its record: the digest and the refresh
    counters committed when a scalar core produced them too."""
    result, digest = _run_table1(spec)
    return result, {"digest": digest, "topology_stats": result.topology_stats}


def _partition_world():
    """The Table-1 world cut by ``examples/faults/partition.json``."""
    from repro.faults import FaultPlan

    plan = FaultPlan.load(FAULTS_DIR / "partition.json")
    result, digest = _run_table1("rpcc-sc", faults=plan)
    return result, {"digest": digest, "fault_stats": result.summary.fault_stats}


#: ``(key, spec, peers, sim_time)``: nineteen peers in twenty stand still,
#: so a quantum moves two or three of 50 and about ten of 200 (terrain
#: scaled to the Table-1 density).
PAUSE_WORLDS = [
    ("pause50-pull", "pull", 50, 150.0),
    ("pause50-rpcc-hy", "rpcc-hy", 50, 150.0),
    ("pause200-rpcc-hy", "rpcc-hy", 200, 100.0),
]


def _pause_world(spec: str, n_peers: int, sim_time: float):
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
    return result, {"digest": _digest(result, events)}


def _large_world(stable_fraction: float):
    """A 2 000-peer walk world, above the array-refresh crossover."""
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
    result, events = _run_cell("rpcc-hy", 7, config, "single_source")
    return result, {"digest": _digest(result, events)}


#: Every world of ``worlds.json``: its key and the run that yields
#: ``(result, record)``.
WORLDS = {
    **{f"table1-{spec}": functools.partial(_table1_world, spec)
       for spec in ("rpcc-hy", "pull", "push")},
    "table1-partition-rpcc-sc": _partition_world,
    **{key: functools.partial(_pause_world, spec, n_peers, sim_time)
       for key, spec, n_peers, sim_time in PAUSE_WORLDS},
    "large-sparse": functools.partial(_large_world, 0.9),
    "large-walkers": functools.partial(_large_world, 0.1),
}


def worlds() -> dict:
    """The content of ``tests/golden/worlds.json``."""
    return {key: world()[1] for key, world in WORLDS.items()}


def _check_world(key: str):
    """Run world ``key``, compare its record with ``worlds.json`` and
    return the run's result."""
    result, record = WORLDS[key]()
    assert record["digest"]["transmissions"] > 0
    assert record == committed("worlds").get(key), (
        f"behaviour drift in {key} (tests/golden/worlds.json)"
    )
    return result


def _spy(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.expectation
@pytest.mark.parametrize("spec", ("rpcc-hy", "pull", "push"))
def test_table1_world_matches_golden(spec):
    """50 peers is under every size crossover there ever was: the array
    build serves it and must reproduce the digest and refresh counters
    committed when a scalar core produced them too."""
    _check_world(f"table1-{spec}")


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


@pytest.mark.expectation
def test_partition_plan_filters_the_lazily_materialised_snapshot(monkeypatch):
    """A partition reads positions and neighbour lists the array build
    left unmaterialised; the cut graph must yield the committed run."""
    filtered = []
    real_filter = TopologySnapshot._apply_edge_filter

    def apply_edge_filter(self):
        filtered.append(
            (type(self.positions), self._adjacency_store is None, self._csr is None)
        )
        real_filter(self)

    monkeypatch.setattr(TopologySnapshot, "_apply_edge_filter", apply_edge_filter)
    result = _check_world("table1-partition-rpcc-sc")
    # Every filtered build started from arrays with nothing materialised.
    assert len(filtered) > 10
    assert set(filtered) <= {
        (soa.ArrayPositions, True, False), (dict, True, False)
    }
    assert (soa.ArrayPositions, True, False) in filtered
    assert result.summary.fault_stats["partition_seconds"] == 60.0


@pytest.mark.expectation
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
    result = _check_world(key)
    # Served by rebuilds: one per changed refresh.
    assert result.topology_stats["snapshots_built"] > 150


@pytest.mark.expectation
def test_large_sparse_world_matches_golden():
    """Above the array-refresh crossover with few movers, a run must
    still equal the committed one."""
    stats = _check_world("large-sparse").topology_stats
    assert stats["snapshots_built"] > 1


@pytest.mark.expectation
def test_large_walker_world_matches_golden():
    """Nine walkers in ten, switching on and off as they go: the array
    refreshes reuse their candidate pairs through the churn, and the run
    still equals the committed one."""
    stats = _check_world("large-walkers").topology_stats
    assert stats["invalidations"] > 0
    assert stats["pair_list_reuses"] > stats["pair_list_builds"] >= 1
    assert stats["snapshots_built"] == (
        stats["pair_list_builds"] + stats["pair_list_reuses"]
    )


@pytest.mark.expectation
def test_golden_file_covers_the_whole_matrix():
    cells = {f"{spec}-seed{seed}" for spec, seed in MATRIX}
    assert set(committed("digests")) == cells
    assert set(committed("trace_bytes")) == cells
    assert set(committed("worlds")) == set(WORLDS)
