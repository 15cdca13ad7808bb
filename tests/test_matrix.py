"""Experiment-matrix expansion, execution and aggregation semantics.

Pins the contracts ``repro matrix`` relies on: exact cross-product
expansion, first-appearance dedup by content address, loud validation of
every axis before anything simulates, and byte-identical aggregate CSVs
across serial, sharded and killed-then-resumed executions.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor, CampaignRunError
from repro.experiments.store import ResultStore
from repro.scenarios.matrix import (
    AGGREGATE_COLUMNS,
    MatrixSpec,
    aggregate_matrix,
    expand_matrix,
    load_matrix,
    matrix_csv,
)

TINY_BASE = SimulationConfig(
    n_peers=10,
    sim_time=40.0,
    warmup=0.0,
    terrain_width=800.0,
    terrain_height=800.0,
)


class TestExpansion:
    def test_exact_cross_product(self):
        matrix = MatrixSpec(
            scenarios=("urban-grid", "highway-strip", "multi-source"),
            strategies=("push", "rpcc-sc"),
            policies=("lru", "fifo"),
            seeds=(1, 2),
        )
        points = expand_matrix(matrix, base_config=TINY_BASE)
        assert matrix.cells == 3 * 2 * 2 * 2 == len(points) == 24
        expanded = {(p.scenario, p.strategy, p.policy, p.seed) for p in points}
        expected = set(itertools.product(
            matrix.scenarios, matrix.strategies, matrix.policies, matrix.seeds
        ))
        assert expanded == expected
        for point in points:
            assert point.config.replacement_policy == point.policy
            assert point.config.seed == point.seed

    def test_repeated_seed_dedups_by_content_address(self):
        matrix = MatrixSpec(
            scenarios=("urban-grid",),
            strategies=("push",),
            seeds=(1, 1, 2),
        )
        points = expand_matrix(matrix, base_config=TINY_BASE)
        assert matrix.cells == 3
        assert [p.seed for p in points] == [1, 2]

    def test_unknown_axis_names_fail_before_any_run(self):
        base = dict(scenarios=("urban-grid",), strategies=("push",))
        with pytest.raises(ConfigurationError, match="scenario"):
            expand_matrix(MatrixSpec(**{**base, "scenarios": ("atlantis",)}))
        with pytest.raises(ConfigurationError, match="strategy"):
            expand_matrix(MatrixSpec(**{**base, "strategies": ("gossip",)}))
        with pytest.raises(ConfigurationError, match="policy"):
            expand_matrix(MatrixSpec(**base, policies=("arc",)))

    def test_base_table_applies_and_scenario_overrides_win(self):
        matrix = MatrixSpec(
            scenarios=("urban-grid",),
            strategies=("push",),
            base={"sim_time": 33.0, "n_peers": 5},
        )
        (point,) = expand_matrix(matrix)
        assert point.config.sim_time == 33.0
        # urban-grid's own override beats the [base] table.
        assert point.config.n_peers == 24

    def test_unknown_base_field_is_loud(self):
        matrix = MatrixSpec(
            scenarios=("urban-grid",),
            strategies=("push",),
            base={"sim_tmie": 33.0},
        )
        with pytest.raises(ConfigurationError, match="sim_tmie"):
            expand_matrix(matrix)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            MatrixSpec(scenarios=(), strategies=("push",))
        with pytest.raises(ConfigurationError, match="integers"):
            MatrixSpec(scenarios=("urban-grid",), strategies=("push",),
                       seeds=(1.5,))


class TestLoading:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(
            '[matrix]\n'
            'scenarios = ["urban-grid"]\n'
            'strategies = ["push", "rpcc-sc"]\n'
            'seeds = [3, 4]\n'
            '[base]\n'
            'sim_time = 45.0\n'
        )
        matrix = load_matrix(path)
        assert matrix.scenarios == ("urban-grid",)
        assert matrix.strategies == ("push", "rpcc-sc")
        assert matrix.policies == ("lru",)
        assert matrix.seeds == (3, 4)
        assert matrix.base == {"sim_time": 45.0}

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "matrix": {"scenarios": ["flash-crowd"], "strategies": ["pull"]},
        }))
        matrix = load_matrix(path)
        assert matrix.scenarios == ("flash-crowd",)
        assert matrix.seeds == (1,)

    def test_unknown_tables_and_axes_rejected(self, tmp_path):
        bad_table = tmp_path / "a.toml"
        bad_table.write_text('[matrx]\nscenarios = ["urban-grid"]\n')
        with pytest.raises(ConfigurationError, match="matrx"):
            load_matrix(bad_table)
        bad_axis = tmp_path / "b.toml"
        bad_axis.write_text(
            '[matrix]\nscenarios = ["urban-grid"]\n'
            'strategies = ["push"]\npolices = ["lru"]\n'
        )
        with pytest.raises(ConfigurationError, match="polices"):
            load_matrix(bad_axis)
        missing = tmp_path / "c.toml"
        missing.write_text('[matrix]\nscenarios = ["urban-grid"]\n')
        with pytest.raises(ConfigurationError, match="strategies"):
            load_matrix(missing)

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_matrix(tmp_path / "nope.toml")

    def test_committed_example_files_load(self):
        smoke = load_matrix("examples/matrix/smoke.toml")
        assert smoke.cells == 4
        sweep = load_matrix("examples/matrix/catalog_sweep.toml")
        assert sweep.cells == 6 * 3 * 2 * 2
        # Every axis name in the committed files must resolve.
        committed = sorted(Path("examples/matrix").glob("*.toml"))
        assert len(committed) >= 4
        for path in committed:
            matrix = load_matrix(path)
            expand_matrix(MatrixSpec(
                scenarios=matrix.scenarios, strategies=matrix.strategies,
                policies=matrix.policies, seeds=(1,),
            ))


SMALL = MatrixSpec(
    scenarios=("urban-grid", "multi-source"),
    strategies=("push", "rpcc-sc"),
    base={"n_peers": 10, "sim_time": 40.0, "warmup": 0.0},
)


class TestExecution:
    def _rows(self, executor):
        points = expand_matrix(SMALL)
        results = executor.run_many([p.task for p in points])
        return aggregate_matrix(points, results)

    def test_serial_sharded_resumed_csv_byte_identical(self, tmp_path):
        serial_rows = self._rows(CampaignExecutor())
        pooled_rows = self._rows(CampaignExecutor(
            jobs=2, store=ResultStore(tmp_path / "s")
        ))
        assert matrix_csv(serial_rows) == matrix_csv(pooled_rows)

        # Kill mid-flight: a poisoned spec aborts the campaign after some
        # points completed into the store ...
        points = expand_matrix(SMALL)
        tasks = [p.task for p in points]
        poisoned = tasks[:2] + [(TINY_BASE, "gossip", "standard")] + tasks[2:]
        store = ResultStore(tmp_path / "resume")
        with pytest.raises(CampaignRunError):
            CampaignExecutor(store=store).run_many(poisoned)

        # ... and the resumed run serves them from the store, finishes
        # the rest, and aggregates bit-identically to the serial run.
        resumed_executor = CampaignExecutor(store=ResultStore(tmp_path / "resume"))
        resumed = resumed_executor.run_many(tasks)
        assert resumed_executor.store_hits == 2
        assert resumed_executor.runs_executed == len(tasks) - 2
        resumed_rows = aggregate_matrix(points, resumed)
        assert matrix_csv(resumed_rows) == matrix_csv(serial_rows)

    def test_aggregate_shape_and_order(self):
        rows = self._rows(CampaignExecutor())
        assert [row[:3] for row in rows] == [
            ("urban-grid", "push", "lru"),
            ("urban-grid", "rpcc-sc", "lru"),
            ("multi-source", "push", "lru"),
            ("multi-source", "rpcc-sc", "lru"),
        ]
        for row in rows:
            assert len(row) == len(AGGREGATE_COLUMNS)
            assert row[3] == 1  # one seed per cell

    def test_aggregate_needs_matching_lengths(self):
        points = expand_matrix(SMALL)
        with pytest.raises(ConfigurationError, match="one result per point"):
            aggregate_matrix(points, [])

    def test_seeds_average_into_one_row(self):
        matrix = MatrixSpec(
            scenarios=("urban-grid",),
            strategies=("push",),
            seeds=(1, 2),
            base={"n_peers": 10, "sim_time": 40.0, "warmup": 0.0},
        )
        points = expand_matrix(matrix)
        results = CampaignExecutor().run_many([p.task for p in points])
        (row,) = aggregate_matrix(points, results)
        assert row[3] == 2
        per_seed = [float(r.summary.transmissions) for r in results]
        assert row[4] == sum(per_seed) / 2
