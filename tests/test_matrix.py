"""Matrix files: loading into a sweep, and ``repro matrix`` end to end.

Pins the contracts ``repro matrix`` relies on: a matrix file is one
:class:`~repro.experiments.sweep.Sweep` (``tests/test_sweep.py`` holds
its expansion), malformed files fail loudly naming the file, and the
aggregate CSV is byte-identical across serial, sharded and
killed-then-resumed executions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor, CampaignRunError
from repro.experiments.store import ResultStore
from repro.scenarios.matrix import AGGREGATE_COLUMNS, load_matrix


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
        sweep = load_matrix(path)
        assert sweep.axes == {
            "scenario": ("urban-grid",),
            "spec": ("push", "rpcc-sc"),
            "replacement_policy": ("lru",),
            "seed": (3, 4),
        }
        assert sweep.base == SimulationConfig(sim_time=45.0)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "matrix": {"scenarios": ["flash-crowd"], "strategies": ["pull"]},
        }))
        sweep = load_matrix(path)
        assert sweep.axes["scenario"] == ("flash-crowd",)
        assert sweep.axes["seed"] == (1,)

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
        assert smoke.size == 4
        sweep = load_matrix("examples/matrix/catalog_sweep.toml")
        assert sweep.size == 6 * 3 * 2 * 2
        # Every axis name in the committed files must resolve.
        committed = sorted(Path("examples/matrix").glob("*.toml"))
        assert len(committed) >= 4
        for path in committed:
            load_matrix(path).with_axis("seed", (1,)).cells()


SMALL = (
    '[matrix]\n'
    'scenarios = ["urban-grid", "multi-source"]\n'
    'strategies = ["push", "rpcc-sc"]\n'
    '[base]\n'
    'n_peers = 10\nsim_time = 40.0\nwarmup = 0.0\n'
)


class TestExecution:
    def _csv(self, tmp_path, *flags, matrix=SMALL, name="out.csv"):
        path = tmp_path / "m.toml"
        path.write_text(matrix)
        out = tmp_path / name
        assert cli.main(["matrix", str(path), "--csv", str(out), *flags]) == 0
        return out.read_text()

    def test_serial_sharded_resumed_csv_byte_identical(self, tmp_path, capsys):
        serial = self._csv(tmp_path, "--no-store", name="serial.csv")
        pooled = self._csv(tmp_path, "--jobs", "2", "--store", str(tmp_path / "s"),
                           name="pooled.csv")
        assert serial == pooled

        # Kill mid-flight: a poisoned spec aborts the campaign after some
        # points completed into the store ...
        base = cli._config(cli.build_parser().parse_args(["matrix", "m.toml"]))
        tasks = [cell.task for cell in load_matrix(tmp_path / "m.toml", base).cells()]
        poisoned = tasks[:2] + [(base, "gossip", "standard")] + tasks[2:]
        with pytest.raises(CampaignRunError):
            CampaignExecutor(store=ResultStore(tmp_path / "resume")).run_many(poisoned)

        # ... and the resumed run serves them from the store, finishes
        # the rest, and aggregates bit-identically to the serial run.
        capsys.readouterr()
        resumed = self._csv(tmp_path, "--store", str(tmp_path / "resume"),
                            name="resumed.csv")
        footer = capsys.readouterr().out.splitlines()[-1]
        assert footer.startswith("store: 2 served")
        assert footer.endswith(f"; {len(tasks) - 2} runs simulated")
        assert resumed == serial

    def test_aggregate_shape_and_order(self, tmp_path):
        header, *rows = self._csv(tmp_path, "--no-store").splitlines()
        assert header.split(",") == list(AGGREGATE_COLUMNS)
        cells = [row.split(",") for row in rows]
        assert [row[:3] for row in cells] == [
            ["urban-grid", "push", "lru"],
            ["urban-grid", "rpcc-sc", "lru"],
            ["multi-source", "push", "lru"],
            ["multi-source", "rpcc-sc", "lru"],
        ]
        for row in cells:
            assert len(row) == len(AGGREGATE_COLUMNS)
            assert row[3] == "1"  # one seed per cell
            for value in row[4:]:
                float(value)  # every metric column holds a number

    def test_seeds_average_into_one_row(self, tmp_path):
        matrix = SMALL.replace('strategies = ["push", "rpcc-sc"]\n',
                               'strategies = ["push"]\nseeds = [1, 2]\n')
        matrix = matrix.replace('"urban-grid", "multi-source"', '"urban-grid"')
        header, row = self._csv(tmp_path, "--no-store", matrix=matrix).splitlines()
        assert len(row.split(",")) == len(header.split(",")) == len(AGGREGATE_COLUMNS)
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["seeds"] == "2"
        base = cli._config(cli.build_parser().parse_args(["matrix", "m.toml"]))
        tasks = [cell.task for cell in load_matrix(tmp_path / "m.toml", base).cells()]
        results = CampaignExecutor().run_many(tasks)
        per_seed = [float(r.summary.transmissions) for r in results]
        assert float(fields["transmissions"]) == sum(per_seed) / 2
