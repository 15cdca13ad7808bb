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

and commit the refreshed ``digests.json`` alongside the change.

Every run is also replayed through the invariant checker: the golden
matrix doubles as the "checker passes seeded e2e runs of all strategies
and levels" acceptance gate.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.obs import InvariantChecker, ListSink, TraceBus

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))

SPECS = ("push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc")
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


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _store_golden(key: str, digest: dict) -> None:
    golden = _load_golden()
    golden[key] = digest
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("spec,seed", MATRIX, ids=[f"{s}-s{d}" for s, d in MATRIX])
def test_golden_digest(spec, seed):
    result, events = _run_cell(spec, seed)
    digest = _digest(result, events)

    # The invariant gate rides along on every golden run.
    report = InvariantChecker(delta=result.config.ttp).feed_all(events).finish()
    assert report.ok, f"{spec} seed={seed}:\n{report.format()}"
    assert report.reads_checked > 0  # the pass is not vacuous

    key = f"{spec}-seed{seed}"
    if UPDATE:
        _store_golden(key, digest)
        pytest.skip(f"updated golden digest for {key}")
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


def _skip_without_numpy():
    from repro.net import soa

    if not soa.HAVE_NUMPY:
        pytest.skip("numpy (the perf extra) is not installed")
    return soa


def test_golden_digest_identical_on_both_cores(monkeypatch):
    """One golden cell rerun on each core must yield the committed digest.

    The 20-peer golden population takes the array build (all-pairs
    candidate stage) on the vectorized arm, like every other size.
    """
    _skip_without_numpy()
    monkeypatch.setenv("REPRO_SOA", "1")
    vectorized = _digest(*_run_cell("rpcc-sc", 7))
    monkeypatch.setenv("REPRO_SOA", "0")
    scalar = _digest(*_run_cell("rpcc-sc", 7))
    assert vectorized == scalar
    golden = _load_golden()
    if not UPDATE and "rpcc-sc-seed7" in golden:
        assert vectorized == golden["rpcc-sc-seed7"]


# ----------------------------------------------------------------------
# The paper's regime (Table 1: 50 peers, waypoint, churn) on the array build
# ----------------------------------------------------------------------
FAULTS_DIR = Path(__file__).parent.parent / "examples" / "faults"


def _run_table1(spec: str, **overrides):
    """Table-1 defaults, shortened; ``(result, digest)`` of one traced run."""
    config = SimulationConfig(sim_time=150.0, warmup=50.0, seed=7, **overrides)
    result, events = _run_cell(spec, 7, config)
    return result, _digest(result, events)


def _spy(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("spec", ("rpcc-hy", "pull", "push"))
def test_table1_world_identical_on_both_cores(monkeypatch, spec):
    """50 peers is under every size crossover there ever was: the array
    build serves it by default and must reproduce the scalar core."""
    _skip_without_numpy()
    monkeypatch.setenv("REPRO_SOA", "1")
    vectorized, vectorized_digest = _run_table1(spec)
    monkeypatch.setenv("REPRO_SOA", "0")
    scalar, scalar_digest = _run_table1(spec)
    assert (vectorized.core, scalar.core) == ("vectorized", "scalar")
    assert vectorized_digest == scalar_digest
    assert vectorized_digest["transmissions"] > 0
    assert vectorized.topology_stats == scalar.topology_stats


@pytest.mark.parametrize("spec,sent", [
    ("pull", {"PullPoll", "PullReply"}),  # floods, unicast replies
    ("rpcc-hy", {"Invalidation", "Poll", "PollAckA"}),
])
def test_table1_run_stays_off_the_scalar_build(monkeypatch, spec, sent):
    """Floods and unicasts over 50 waypoint peers: arrays in, dicts out.
    No refresh runs the scalar grid build or makes a ``Point``, and no
    membership test is a numpy call."""
    soa = _skip_without_numpy()
    from repro.net.topology import TopologySnapshot

    calls = []
    _spy(monkeypatch, TopologySnapshot, "_build_adjacency", calls)
    _spy(monkeypatch, soa.ArrayPositions, "materialized", calls)
    _spy(monkeypatch, soa.ArrayPositions, "__contains__", calls)
    _spy(monkeypatch, soa.np, "searchsorted", calls)
    _spy(monkeypatch, soa, "build_csr", calls)
    monkeypatch.setenv("REPRO_SOA", "1")
    result, digest = _run_table1(spec)
    stats = result.topology_stats
    # Waypoint moves more than a quarter of the peers every quantum.
    assert stats["incremental_updates"] == 0 and stats["snapshots_built"] > 100
    assert digest["transmissions_by_type"].keys() >= sent
    assert calls == ["build_csr"] * stats["snapshots_built"]


def test_partition_plan_filters_the_lazily_materialised_snapshot(monkeypatch):
    """A partition reads positions and neighbour lists the array build
    left unmaterialised; the cut graph must equal the scalar core's."""
    soa = _skip_without_numpy()
    from repro.faults import FaultPlan
    from repro.net.topology import TopologySnapshot

    plan = FaultPlan.load(FAULTS_DIR / "partition.json")
    calls = []
    filtered = []
    real_filter = TopologySnapshot._apply_edge_filter

    def apply_edge_filter(self):
        filtered.append(
            (type(self.positions), self._adjacency_store is None, self._csr is None)
        )
        real_filter(self)

    monkeypatch.setattr(TopologySnapshot, "_apply_edge_filter", apply_edge_filter)
    _spy(monkeypatch, TopologySnapshot, "_build_adjacency", calls)
    monkeypatch.setenv("REPRO_SOA", "1")
    vectorized, vectorized_digest = _run_table1("rpcc-sc", faults=plan)
    assert calls == []
    # Every filtered build started from arrays with nothing materialised.
    assert len(filtered) > 10
    assert set(filtered) <= {
        (soa.ArrayPositions, True, False), (dict, True, False)
    }
    assert (soa.ArrayPositions, True, False) in filtered
    monkeypatch.setenv("REPRO_SOA", "0")
    scalar, scalar_digest = _run_table1("rpcc-sc", faults=plan)
    assert vectorized_digest == scalar_digest
    assert vectorized.fault_stats == scalar.fault_stats
    assert vectorized.fault_stats["partition_seconds"] == 60.0


def _run_large_world_on_both_cores(monkeypatch, stable_fraction: float):
    """A 2 000-peer walk world, above the array-refresh crossover, run on
    each core: ``(vectorized, scalar)`` results, digests asserted equal."""
    soa = _skip_without_numpy()
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

    def run():
        bus = TraceBus()
        sink = bus.add_sink(ListSink())
        result = build_simulation(config, "rpcc-hy", "single_source", trace=bus).run()
        bus.close()
        return result, _digest(result, sink.events)

    monkeypatch.setenv("REPRO_SOA", "1")
    vectorized, vectorized_digest = run()
    monkeypatch.setenv("REPRO_SOA", "0")
    scalar, scalar_digest = run()
    assert (vectorized.core, scalar.core) == ("vectorized", "scalar")
    assert vectorized_digest == scalar_digest
    assert vectorized_digest["transmissions"] > 0
    return vectorized, scalar


def test_large_sparse_world_identical_on_both_cores(monkeypatch):
    """Above the array-refresh crossover with few movers — the regime
    where the vectorized core rebuilds the CSR instead of patching — a
    run must still equal the scalar core's, and report no patches."""
    vectorized, scalar = _run_large_world_on_both_cores(monkeypatch, 0.9)

    # Same world, same refreshes; only the path that served them differs.
    stats = vectorized.topology_stats
    assert stats["incremental_updates"] == 0 and stats["bfs_trees_retained"] == 0
    assert stats["snapshots_built"] > 1
    assert scalar.topology_stats["incremental_updates"] > 0
    refreshes = lambda s: (
        s["snapshots_built"] + s["incremental_updates"] + s["snapshots_reused"]
    )
    assert refreshes(stats) == refreshes(scalar.topology_stats)


def test_large_walker_world_identical_on_both_cores(monkeypatch):
    """Nine walkers in ten, switching on and off as they go: the array
    refreshes reuse their candidate pairs through the churn, and the run
    still equals the scalar core's."""
    vectorized, scalar = _run_large_world_on_both_cores(monkeypatch, 0.1)
    stats = vectorized.topology_stats
    assert stats["invalidations"] > 0
    assert stats["pair_list_reuses"] > stats["pair_list_builds"] >= 1
    assert stats["snapshots_built"] == (
        stats["pair_list_builds"] + stats["pair_list_reuses"]
    )
    assert scalar.topology_stats["pair_list_builds"] == 0


def test_golden_file_covers_the_whole_matrix():
    if UPDATE:
        pytest.skip("regenerating")
    golden = _load_golden()
    assert set(golden) == {f"{spec}-seed{seed}" for spec, seed in MATRIX}
