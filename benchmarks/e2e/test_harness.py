"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

They cover the arithmetic the numbers rest on (self time, the calibrated
clock), the paths a refactor will hit (a seam that no longer resolves),
and the output checks (digest agreement, a corrupted expected digest),
and they hold ``BENCHMARK.json`` to what the harness actually reports.
"""

from __future__ import annotations

import json

import pytest

import clock as clock_module
import run
import seams
import update_digests
from clock import CalibratedClock
from seams import LayerTimer, Seam
from workloads import BY_NAME, WORKLOADS


class FakeTime:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    time = FakeTime()
    timer = LayerTimer(time)

    def leaf():
        time.advance(5.0)

    leaf = timer.wrap("leaf", leaf)

    def inner():
        time.advance(3.0)
        leaf()

    inner = timer.wrap("inner", inner)

    def outer():
        time.advance(1.0)
        inner()
        time.advance(2.0)
        leaf()

    outer = timer.wrap("outer", outer)
    outer()
    assert timer.stats == {"leaf": [2, 10.0], "inner": [1, 3.0], "outer": [1, 3.0]}
    # Self times add up to the wall time of the whole tree.
    assert sum(self_s for _, self_s in timer.stats.values()) == time.now


def test_self_time_with_recursion_and_a_shared_name():
    time = FakeTime()
    timer = LayerTimer(time)

    def descend(depth):
        time.advance(1.0)
        if depth:
            descend(depth - 1)

    descend = timer.wrap("descend", descend)
    descend(3)
    assert timer.stats["descend"] == [4, 4.0]


def test_exception_closes_the_span():
    time = FakeTime()
    timer = LayerTimer(time)

    def broken():
        time.advance(2.0)
        raise ValueError("boom")

    broken = timer.wrap("broken", broken)

    def caller():
        time.advance(1.0)
        with pytest.raises(ValueError):
            broken()
        time.advance(1.0)

    caller = timer.wrap("caller", caller)
    caller()
    assert timer.stats == {"broken": [1, 2.0], "caller": [1, 2.0]}


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------
class _Sample:
    def method(self, value):
        return value + 1

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def double(value):
        return 2 * value


def test_install_wraps_methods_classmethods_and_staticmethods(monkeypatch):
    for name in ("method", "make", "double"):
        monkeypatch.setattr(_Sample, name, _Sample.__dict__[name])  # restored after
    timer = LayerTimer(FakeTime())
    table = (
        Seam("sample", tuple(f"{__name__}._Sample.{name}"
                             for name in ("method", "make", "double")), "run_s", "-"),
    )
    assert seams.install(timer, table) == []
    assert isinstance(_Sample.make(), _Sample)
    assert _Sample().method(1) == 2
    assert _Sample.double(4) == 8
    assert timer.stats["sample"][0] == 3


def test_missing_seam_is_listed_not_raised():
    timer = LayerTimer(FakeTime())
    table = (
        Seam("gone.module", ("repro_no_such_package.thing.call",), "run_s", "-"),
        Seam("gone.attribute", (f"{__name__}._Sample.no_such_method",), "run_s", "-"),
    )
    assert seams.install(timer, table) == [
        "repro_no_such_package.thing.call",
        f"{__name__}._Sample.no_such_method",
    ]
    # No entry at all: unknown, which is not "never called".
    assert timer.stats == {}


def test_missing_seam_reads_null_and_is_counted():
    outcome = {
        "run_s": 2.0, "build_s": 0.5, "import_s": 0.25, "events": 10,
        "trace": {}, "topology": {}, "model": {
            "transmissions": 1, "queries_issued": 1, "queries_answered": 1,
            "mean_latency_s": 0.0, "stale_ratio": 0.0,
        },
        "network": {"messages_sent": 1, "delivered": 1, "undeliverable": 0},
        # Every seam but from_delta and dispatch was found and called once.
        "layers": {
            seam.name: [1, 0.125] for seam in seams.SEAMS
            if seam.name not in ("net.topology.from_delta", "sim.engine.dispatch")
        },
        "missing_seams": [
            "repro.net.topology.TopologySnapshot.from_delta",
            "repro.sim.engine.Simulator.run_until",
        ],
    }
    untimed = {"run_wall_s": 3.0, "setup_wall_s": 0.7, "machine_speed": 0.5}
    layers = run.per_layer_of(outcome, 1.6, untimed)
    for name in ("net.topology.from_delta.calls", "net.topology.from_delta.self_s",
                 "net.topology.from_delta.ms_per_call", "sim.engine.us_per_event"):
        assert layers[name]["value"] is None
    assert layers["net.soa.build_csr.calls"]["value"] == 1
    assert layers["host.run_wall_s"]["value"] == 3.0
    assert layers["layers.missing_seams"]["value"] == 2
    assert layers["layers.overhead_ratio"]["value"] == pytest.approx(0.25)
    known = len(seams.SEAMS) - 2
    assert layers["layers.unattributed_s"]["value"] == pytest.approx(2.0 - 0.125 * known)
    # The driver's line holds numbers only; the count says a seam is gone.
    result = {"failed": 0, "attempted": 1, "end_to_end": {}, "per_layer": layers}
    line = json.loads(run.contract_line(result, 1))
    assert line["metrics"]["net.topology.from_delta.calls"]["value"] == 0
    assert line["metrics"]["layers.missing_seams"]["value"] == 2


def test_every_seam_resolves_at_this_commit():
    for seam in seams.SEAMS:
        for dotted in seam.targets:
            seams.resolve(dotted)


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
def test_clock_scales_each_stretch_by_the_speed_at_its_start(monkeypatch):
    time = FakeTime()
    clock = CalibratedClock(timer=time)
    cost = {"burst": 2 * clock_module.REF_BURST_S}  # half speed
    monkeypatch.setattr(clock_module, "burst", lambda phase: time.advance(cost["burst"]))
    clock._tick(None, None)
    started, started_wall = clock.now(), clock.wall()
    time.advance(1.0)          # one wall second at half speed
    clock._tick(None, None)
    assert clock.now() - started == pytest.approx(0.5)
    cost["burst"] = clock_module.REF_BURST_S  # the machine recovers
    time.advance(1.0)          # still scaled by the last sample: half speed
    clock._tick(None, None)
    time.advance(1.0)          # and from here at full speed
    assert clock.now() - started == pytest.approx(0.5 + 0.5 + 1.0)
    # Bursts are in neither reading.
    assert clock.wall() - started_wall == pytest.approx(3.0)
    assert clock.samples == 3


def test_clock_never_runs_backwards_when_the_speed_drops(monkeypatch):
    time = FakeTime()
    clock = CalibratedClock(timer=time)
    cost = {"burst": clock_module.REF_BURST_S}
    monkeypatch.setattr(clock_module, "burst", lambda phase: time.advance(cost["burst"]))
    clock._tick(None, None)
    time.advance(0.01)
    before = clock.now()
    cost["burst"] = 4 * clock_module.REF_BURST_S
    clock._tick(None, None)
    assert clock.now() >= before


# ----------------------------------------------------------------------
# Protocol and output checks (these spawn real children, smoke-sized)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_result():
    (result,) = run.measure([BY_NAME["paper50-rpcc"]], seed=3, repeats=2, smoke=True)
    return result


def test_digest_is_stable_across_runs_of_one_simulation_seed(smoke_result):
    # Repeats 0 and 1 run panel members 0 and 1; the layer-timed run is
    # member 0 again and has to reproduce repeat 0's digest.
    assert smoke_result["failures"] == []
    assert smoke_result["attempted"] == 3
    first, second = (str(run.sim_seed(3, repeat)) for repeat in (0, 1))
    assert list(smoke_result["digests"]) == [first, second]
    assert smoke_result["digests"][first] != smoke_result["digests"][second]
    assert smoke_result["digests"][first]["queries_answered"] > 0


def test_every_declared_metric_is_reported(smoke_result):
    assert list(smoke_result["end_to_end"]) == [m.name for m in run.END_TO_END]
    assert list(smoke_result["per_layer"]) == [m.name for m in run.per_layer_declared()]
    for trace, expected in (
        (0, len(run.DRIVER_END_TO_END)),
        (1, len(run.per_layer_declared())),
    ):
        line = json.loads(run.contract_line(smoke_result, trace))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert len(line["metrics"]) == expected
        assert all(
            isinstance(entry["value"], (int, float)) for entry in line["metrics"].values()
        )


def test_layer_predictions_that_hold_at_any_size(smoke_result):
    layers = smoke_result["per_layer"]
    assert layers["obs.emit.calls"]["value"] == 0
    assert layers["net.topology.from_delta.calls"]["value"] == 0
    assert layers["net.network.unicast.calls"]["value"] > 0
    assert layers["sim.engine.events"]["value"] > 0


def test_corrupted_expected_digest_fails_every_repeat(smoke_result):
    workload = BY_NAME["paper50-rpcc"]
    member = run.sim_seed(3, 0)
    corrupted = dict(smoke_result["digests"][str(member)], transmissions=-1)
    (result,) = run.measure(
        [workload], seed=3, repeats=1, smoke=True, layers=False,
        expected={run.digest_key(workload, member, True): corrupted},
    )
    assert result["failed"] == result["attempted"] == 1
    assert "committed" in result["failures"][0]
    line = json.loads(run.contract_line(result, 0))
    assert line["correct"] is False and line["failed"] == 1


def test_a_child_that_cannot_run_counts_as_failed():
    outcome = run.spawn({"src": "/nonexistent"})
    assert outcome["ok"] is False and outcome["error"]


def test_failed_share_is_the_fourth_end_to_end_metric(smoke_result):
    assert smoke_result["end_to_end"]["failed_share"] == {
        "value": 0.0, "unit": "ratio", "n": 3,
    }
    assert run.END_TO_END[-1].bound == 0.0


def _set(run_s: float, failed_share: float = 0.0):
    values = {"setup_s": 1.0, "run_s": run_s, "peak_rss_mb": 40.0,
              "failed_share": failed_share}
    return [{
        "workload": "w", "digests": {}, "per_layer": {},
        "end_to_end": {name: {"value": value} for name, value in values.items()},
    }]


def test_aa_holds_two_sets_to_the_bounds():
    assert run.compare_sets(_set(2.0), _set(2.19))[1] is True
    assert run.compare_sets(_set(2.0), _set(2.21))[1] is False
    # failed_share is absolute: one failed repeat in either set is too many.
    lines, agree = run.compare_sets(_set(2.0), _set(2.0, failed_share=0.1))
    assert agree is False and "DISAGREE" in lines[-1]


def test_update_digests_rewrites_the_file_whole(monkeypatch, tmp_path):
    target = tmp_path / "digests.json"
    target.write_text(json.dumps({"stale|seed=1|sim_time=1": {}}))
    monkeypatch.setattr(run, "DIGESTS", target)

    def fake_measure(workloads, seed, **settings):
        assert settings == {"repeats": 2 * run.PANEL, "layers": False, "expected": {}}
        return [
            {"workload": w.name, "failures": [],
             "digests": {str(run.sim_seed(seed, 0)): {"transmissions": 1}}}
            for w in workloads
        ]

    monkeypatch.setattr(run, "measure", fake_measure)
    assert update_digests.main() == 0
    written = json.loads(target.read_text())
    first = run.sim_seed(run.DEFAULT_SEED, 0)
    assert sorted(written) == sorted(
        run.digest_key(workload, first, False) for workload in WORKLOADS
    )

    monkeypatch.setattr(run, "measure", lambda *a, **k: [
        {"workload": "w", "failures": ["repeat 1: digest disagrees"], "digests": {}}
    ])
    before = target.read_text()
    assert update_digests.main() == 1
    assert target.read_text() == before


# ----------------------------------------------------------------------
# BENCHMARK.json says what the harness does
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    declared = json.loads((run.HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == [
        "python3", "benchmarks/e2e/run.py", "--repeats", str(2 * run.PANEL),
    ]
    assert declared["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.DRIVER_END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in run.per_layer_declared()
    ]
    assert len(declared["per_layer"]) <= 128


def test_committed_digests_cover_the_default_seed():
    digests = run.load_digests()
    for workload in WORKLOADS:
        for repeat in range(run.PANEL):
            member = run.sim_seed(run.DEFAULT_SEED, repeat)
            assert run.digest_key(workload, member, False) in digests
