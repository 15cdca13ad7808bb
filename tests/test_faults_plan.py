"""FaultPlan serialization, validation, and result-cache integration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import run_key
from repro.faults import (
    BurstyLoss,
    Crash,
    DelayJitter,
    FaultPlan,
    Partition,
    RelayKill,
)

FULL_PLAN = FaultPlan(
    name="everything",
    description="one of each kind",
    faults=(
        BurstyLoss(start=10.0, end=50.0, p_good_bad=0.1, loss_bad=0.6),
        Partition(start=20.0, duration=30.0, mode="spatial", axis="y", frac=0.4),
        Partition(start=60.0, duration=10.0, mode="nodes", nodes=(1, 2), name="island"),
        Crash(node=3, at=25.0, down_for=15.0, wipe_cache=True),
        RelayKill(at=40.0, count=2, down_for=20.0, item=5),
        DelayJitter(start=0.0, max_delay=0.02, duplicate_rate=0.05),
    ),
)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        assert FaultPlan.from_json(FULL_PLAN.to_json()) == FULL_PLAN

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FULL_PLAN.to_json(), encoding="utf-8")
        assert FaultPlan.load(path) == FULL_PLAN

    def test_kind_tags_are_stable(self):
        kinds = [entry["kind"] for entry in FULL_PLAN.to_dict()["faults"]]
        assert kinds == [
            "bursty_loss", "partition", "partition",
            "crash", "relay_kill", "delay_jitter",
        ]

    def test_node_lists_become_tuples(self):
        plan = FaultPlan.from_dict({
            "faults": [
                {"kind": "partition", "mode": "nodes", "nodes": [4, 5]},
            ]
        })
        assert plan.partitions[0].nodes == (4, 5)

    def test_shipped_example_plans_load(self):
        import pathlib

        examples = pathlib.Path(__file__).parent.parent / "examples" / "faults"
        plans = sorted(examples.glob("*.json"))
        assert len(plans) >= 4
        for path in plans:
            plan = FaultPlan.load(path)
            assert not plan.is_empty
            assert plan.name


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            FaultPlan.from_dict({"faults": [{"kind": "meteor_strike"}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="crash"):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "nodez": 1}]})

    def test_faults_must_be_a_list(self):
        with pytest.raises(ConfigurationError, match="must be a list"):
            FaultPlan.from_dict({"faults": "oops"})

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(tmp_path / "nope.json")

    @pytest.mark.parametrize("bad", [
        lambda: BurstyLoss(start=-1.0),
        lambda: BurstyLoss(start=10.0, end=5.0),
        lambda: BurstyLoss(p_bad_good=1.5),
        lambda: Partition(duration=0.0),
        lambda: Partition(mode="diagonal"),
        lambda: Partition(mode="spatial", frac=1.0),
        lambda: Partition(mode="spatial", axis="z"),
        lambda: Partition(mode="nodes", nodes=()),
        lambda: Crash(node=-1),
        lambda: Crash(down_for=0.0),
        lambda: RelayKill(count=0),
        lambda: DelayJitter(max_delay=-0.1),
        lambda: DelayJitter(duplicate_rate=1.0),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ConfigurationError):
            bad()

    def test_config_rejects_non_plan_faults(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            SimulationConfig(faults={"kind": "crash"})

    @pytest.mark.parametrize("field,value", [
        ("backoff_factor", 0.5),
        ("backoff_factor", 0.0),
        ("backoff_factor", float("nan")),
    ])
    def test_config_rejects_bad_backoff(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**{field: value})


class TestTypedViews:
    def test_of_kind_partitions(self):
        assert len(FULL_PLAN.partitions) == 2
        assert len(FULL_PLAN.crashes) == 1
        assert len(FULL_PLAN.relay_kills) == 1
        assert len(FULL_PLAN.bursty_loss) == 1
        assert len(FULL_PLAN.jitters) == 1

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FULL_PLAN.is_empty

    def test_partition_end(self):
        assert Partition(start=20.0, duration=30.0).end == 50.0


class TestCacheKey:
    def test_plan_changes_the_run_key(self):
        base = SimulationConfig(seed=1)
        faulted = SimulationConfig(seed=1, faults=FULL_PLAN)
        assert run_key(base, "push", "standard") != run_key(faulted, "push", "standard")

    def test_different_plans_differ(self):
        a = SimulationConfig(faults=FaultPlan(faults=(Crash(node=1, at=5.0),)))
        b = SimulationConfig(faults=FaultPlan(faults=(Crash(node=2, at=5.0),)))
        assert run_key(a, "push", "standard") != run_key(b, "push", "standard")

    def test_equal_plans_share_the_key(self):
        a = SimulationConfig(faults=FaultPlan.from_json(FULL_PLAN.to_json()))
        b = SimulationConfig(faults=FULL_PLAN)
        assert run_key(a, "push", "standard") == run_key(b, "push", "standard")

    def test_configs_with_plans_are_picklable(self):
        import pickle

        config = SimulationConfig(faults=FULL_PLAN)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.faults == FULL_PLAN
