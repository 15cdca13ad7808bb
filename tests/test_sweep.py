"""One sweep: expansion, the checked runner, the aggregate.

Pins the contracts every campaign relies on (figure panels, matrix
files, the chaos campaign, ``results/collect.py``): the exact cross
product in axis order, first-appearance dedup by run key, loud
validation of every name and value before anything simulates, the
matrix ``[base]`` precedence, and groups that keep their per-cell values
in cell order.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor, run_key
from repro.experiments.sweep import Sweep, aggregate, run_checked
from repro.faults import FaultPlan
from repro.scenarios.matrix import load_matrix

TINY_BASE = SimulationConfig(
    n_peers=10,
    sim_time=40.0,
    warmup=0.0,
    terrain_width=800.0,
    terrain_height=800.0,
)
PLAN = Path(__file__).resolve().parent.parent / "examples" / "faults" / "partition.json"


def _coordinates(cells, axes):
    return [tuple(cell.values[axis] for axis in axes) for cell in cells]


class TestExpansion:
    def test_exact_cross_product_in_axis_order(self):
        axes = {
            "scenario": ("urban-grid", "highway-strip", "multi-source"),
            "spec": ("push", "rpcc-sc"),
            "replacement_policy": ("lru", "fifo"),
            "seed": (1, 2),
        }
        sweep = Sweep(TINY_BASE, axes)
        cells = sweep.cells()
        assert sweep.size == 3 * 2 * 2 * 2 == len(cells) == 24
        assert _coordinates(cells, axes) == list(itertools.product(*axes.values()))
        for cell in cells:
            assert cell.config.replacement_policy == cell.values["replacement_policy"]
            assert cell.config.seed == cell.values["seed"]
            assert cell.spec == cell.values["spec"]
        # A catalog preset resolves to its placement; a placement name is kept.
        assert {cell.scenario for cell in cells if cell.values["scenario"] == "multi-source"} == {
            "hot_set"
        }
        (placed,) = Sweep(TINY_BASE, {"spec": ("pull",), "scenario": ("single_source",)}).cells()
        assert placed.scenario == "single_source" and placed.config == TINY_BASE

    def test_repeated_seed_dedups_by_run_key(self):
        sweep = Sweep(TINY_BASE, {"spec": ("push",), "seed": (1, 1, 2)})
        assert sweep.size == 3
        assert [cell.values["seed"] for cell in sweep.cells()] == [1, 2]

    def test_equal_configs_dedup_across_spellings(self):
        """10 and 10.0 are one cache_num once cast: the first spelling wins."""
        cells = Sweep(TINY_BASE, {"cache_num": (10, 10.0, 5), "spec": ("push",)}).cells()
        assert [cell.values["cache_num"] for cell in cells] == [10, 5]
        assert all(type(cell.config.cache_num) is int for cell in cells)

    def test_unknown_names_fail_before_any_run(self, monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(CampaignExecutor, "run_many", no_runs)
        base = {"scenario": ("urban-grid",), "spec": ("push",)}
        with pytest.raises(ConfigurationError, match="scenario 'atlantis'"):
            Sweep(TINY_BASE, {**base, "scenario": ("atlantis",)}).cells()
        with pytest.raises(ConfigurationError, match="strategy spec 'gossip'"):
            Sweep(TINY_BASE, {**base, "spec": ("push", "gossip")}).cells()
        with pytest.raises(ConfigurationError, match="replacement_policy 'arc'"):
            Sweep(TINY_BASE, {**base, "replacement_policy": ("lru", "arc")}).cells()
        with pytest.raises(ConfigurationError, match="controller 'bangbang'"):
            Sweep(TINY_BASE, {**base, "controller": ("bangbang",)}).cells()
        with pytest.raises(ConfigurationError, match="unknown sweep axis 'polices'"):
            Sweep(TINY_BASE, {**base, "polices": ("lru",)})
        with pytest.raises(ConfigurationError, match="ttl_rpcc must be >= 1"):
            Sweep(TINY_BASE, {**base, "ttl_rpcc": (3, 0)}).cells()
        with pytest.raises(ConfigurationError, match="cannot read fault plan"):
            Sweep(TINY_BASE, {**base, "faults": ("no/such/plan.json",)}).cells()

    def test_empty_or_scalar_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="'seed' needs a non-empty list"):
            Sweep(TINY_BASE, {"spec": ("push",), "seed": ()})
        with pytest.raises(ConfigurationError, match="needs a 'spec' axis"):
            Sweep(TINY_BASE, {"seed": (1,)})
        with pytest.raises(ConfigurationError, match="'spec' needs a non-empty list of values, got 'push'"):
            Sweep(TINY_BASE, {"spec": "push"})

    def test_values_cast_to_the_field_type(self):
        cells = Sweep(TINY_BASE, {"ttl_rpcc": (1.0, 7.0), "spec": ("rpcc-sc",)}).cells()
        assert [cell.values["ttl_rpcc"] for cell in cells] == [1.0, 7.0]  # as declared
        assert [cell.config.ttl_rpcc for cell in cells] == [1, 7]  # as run
        with pytest.raises(ConfigurationError, match="seed values must be integers, got 1.5"):
            Sweep(TINY_BASE, {"spec": ("push",), "seed": (1.5,)}).cells()
        for bad in (True, "1", None):
            with pytest.raises(ConfigurationError, match=f"seed values must be numbers, got {bad!r}"):
                Sweep(TINY_BASE, {"spec": ("push",), "seed": (bad,)}).cells()
        with pytest.raises(ConfigurationError, match="update_interval values must be numbers"):
            Sweep(TINY_BASE, {"spec": ("push",), "update_interval": ("60",)}).cells()

    def test_fault_plan_path_loads(self):
        (cell,) = Sweep(TINY_BASE, {"faults": (str(PLAN),), "spec": ("push",)}).cells()
        assert cell.values["faults"] == str(PLAN)
        assert cell.config.faults == FaultPlan.load(PLAN)

    def test_with_axis_replaces_in_place_or_appends(self):
        sweep = Sweep(TINY_BASE, {"seed": (1,), "spec": ("push",)})
        assert list(sweep.with_axis("seed", (2, 3)).axes.items()) == [
            ("seed", (2, 3)), ("spec", ("push",)),
        ]
        assert list(sweep.with_axis("controller", ("static",)).axes) == [
            "seed", "spec", "controller",
        ]


class TestBasePrecedence:
    """Config defaults < the caller's base < ``[base]`` < preset < axes."""

    def _matrix(self, tmp_path, base_table):
        path = tmp_path / "m.toml"
        path.write_text(
            '[matrix]\nscenarios = ["urban-grid"]\nstrategies = ["push"]\n'
            f"seeds = [4]\n[base]\n{base_table}"
        )
        return path

    def test_base_table_sits_between_caller_and_preset(self, tmp_path):
        path = self._matrix(tmp_path, "sim_time = 33.0\nn_peers = 5\nseed = 9\n")
        caller = SimulationConfig(sim_time=50.0, warmup=7.0)
        (cell,) = load_matrix(path, caller).cells()
        assert cell.config.sim_time == 33.0  # [base] beats the caller
        assert cell.config.warmup == 7.0  # the caller beats the defaults
        assert cell.config.n_peers == 24  # urban-grid's override beats [base]
        assert cell.config.seed == 4  # the seed axis beats [base]

    def test_unknown_base_field_is_loud(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"m\.toml: .*sim_tmie"):
            load_matrix(self._matrix(tmp_path, "sim_tmie = 33.0\n"))

    def test_base_value_a_run_cannot_use_fails_the_load(self, tmp_path):
        """A fractional TTL used to expand every point and then crash
        each run inside its first flood."""
        with pytest.raises(ConfigurationError, match="ttl_rpcc.*2.5"):
            load_matrix(self._matrix(tmp_path, "ttl_rpcc = 2.5\n"))


_SPECS = ("push", "pull", "rpcc-sc")


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    specs=st.lists(st.sampled_from(_SPECS), min_size=1, max_size=3),
    cache_nums=st.lists(st.sampled_from((5, 5.0, 10)), min_size=1, max_size=3),
    policies=st.lists(st.sampled_from(("lru", "fifo")), min_size=1, max_size=2),
)
def test_expansion_is_the_product_first_seen_per_run_key(seeds, specs, cache_nums, policies):
    axes = {
        "seed": seeds, "spec": specs, "cache_num": cache_nums, "replacement_policy": policies,
    }
    expected, seen = [], set()
    for seed, spec, cache_num, policy in itertools.product(*axes.values()):
        config = TINY_BASE.with_overrides(
            seed=seed, cache_num=int(cache_num), replacement_policy=policy
        )
        key = run_key(config, spec, "standard")
        if key not in seen:
            seen.add(key)
            expected.append((seed, spec, cache_num, policy))
    assert _coordinates(Sweep(TINY_BASE, axes).cells(), axes) == expected


class TestAggregate:
    def test_groups_keep_cell_order_and_mean(self):
        axes = {"spec": ("push", "pull"), "seed": (1, 2, 3)}
        cells = Sweep(TINY_BASE, axes).cells()
        rows = [{"x": float(index)} for index in range(len(cells))]
        groups = aggregate(cells, rows, by=("spec",))
        assert [group.key for group in groups] == [("push",), ("pull",)]
        assert [group.values["x"] for group in groups] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert [group.mean["x"] for group in groups] == [1.0, 4.0]
        assert [group.size for group in groups] == [3, 3]

    def test_needs_one_row_per_cell(self):
        cells = Sweep(TINY_BASE, {"spec": ("push",)}).cells()
        with pytest.raises(ConfigurationError, match="one row per cell"):
            aggregate(cells, [], by=("spec",))


class TestRunChecked:
    def test_checked_runs_match_the_executor_and_report(self):
        cells = Sweep(TINY_BASE, {"spec": ("push", "rpcc-sc"), "seed": (1, 2)}).cells()
        plain = CampaignExecutor().run_many([cell.task for cell in cells])
        checked, reports = run_checked(cells)
        assert [r.summary for r in checked] == [r.summary for r in plain]
        assert len(reports) == len(cells)
        assert all(report.ok and report.reads_checked > 0 for report in reports)
