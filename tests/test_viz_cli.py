"""Unit tests for the ASCII chart renderer and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.viz.ascii import ascii_chart


class TestAsciiChart:
    def test_basic_structure(self):
        chart = ascii_chart(
            [1.0, 2.0, 3.0],
            {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
            width=20,
            height=6,
            title="demo",
        )
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 1 + 6 + 2 + 1  # title + grid + axis/xticks + legend
        assert "o=a" in lines[-1] and "x=b" in lines[-1]

    def test_markers_placed_at_extremes(self):
        chart = ascii_chart([0.0, 10.0], {"s": [0.0, 100.0]}, width=20, height=5)
        lines = chart.splitlines()
        grid = [line.split("|", 1)[1] for line in lines[:5]]
        assert grid[0].rstrip().endswith("o")  # max at top-right
        assert grid[-1].lstrip().startswith("o")  # min at bottom-left

    def test_log_scale_compresses(self):
        linear = ascii_chart([1, 2, 3], {"s": [1.0, 10.0, 100.0]},
                             width=20, height=9)
        log = ascii_chart([1, 2, 3], {"s": [1.0, 10.0, 100.0]},
                          width=20, height=9, log_y=True)

        def row_of_middle(chart):
            for row, line in enumerate(chart.splitlines()):
                body = line.split("|", 1)[-1]
                middle = len(body) // 2
                if "o" in body[middle - 2: middle + 3]:
                    return row
            return None

        # On a log axis the middle point (10) sits midway; linearly it
        # hugs the bottom.
        assert row_of_middle(log) < row_of_middle(linear)
        assert "(log y)" in log

    def test_flat_series_renders(self):
        chart = ascii_chart([1, 2], {"s": [5.0, 5.0]}, width=20, height=5)
        assert "o" in chart

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_chart([], {"s": []})
        with pytest.raises(ConfigurationError):
            ascii_chart([1.0], {"s": [1.0, 2.0]})
        with pytest.raises(ConfigurationError):
            ascii_chart([1.0], {"s": [1.0]}, width=5)

    def test_figure_plot_integration(self):
        from repro.experiments.figures import FigureData

        figure = FigureData(
            figure_id="Fig T",
            title="test",
            x_label="x",
            y_label="y",
            x_values=[1.0, 2.0, 3.0],
            series={"pull": [30.0, 20.0, 10.0], "push": [5.0, 5.0, 5.0]},
        )
        chart = figure.plot(width=30, height=8)
        assert "Fig T" in chart
        assert "o=pull" in chart


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "rpcc-sc"])
        assert args.command == "run"
        assert args.spec == "rpcc-sc"
        assert args.jobs == 1 and not args.no_store
        args = parser.parse_args(["--sim-time", "100", "fig7a", "--plot"])
        assert args.sim_time == 100.0
        assert args.plot

    def test_parser_executor_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--jobs", "4", "--no-store", "--store", "/tmp/s", "compare"]
        )
        assert args.jobs == 4
        assert args.no_store
        assert args.store == "/tmp/s"
        # The campaign flags are accepted after `matrix` too.
        args = parser.parse_args(
            ["matrix", "m.toml", "--jobs", "2", "--store", "/tmp/m"]
        )
        assert (args.jobs, args.store, args.no_store) == (2, "/tmp/m", False)

    def test_unknown_spec_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "gossip"])

    @pytest.mark.parametrize("argv,field", [
        (["fig9", "--ttls", "1", "0"], "ttl_rpcc"),
        (["--sim-time", "-5", "run", "push"], "sim_time"),
        (["--sim-time", "-5", "fig7a"], "sim_time"),
        (["--sim-time", "-5", "table1"], "sim_time"),
        (["fig9", "--ttls", "0"], "ttl_rpcc"),
        (["--sim-time", "nan", "run", "push"], "sim_time"),
        (["--warmup", "-1", "run", "push"], "warmup"),
        (["run", "push", "--loss-rate", "1.5"], "loss_rate"),
        (["run", "push", "--controller", "static", "--controller-interval", "0"],
         "controller_interval"),
        (["--sim-time", "-5", "compare"], "sim_time"),
        (["--sim-time", "-5", "matrix", "examples/matrix/smoke.toml"], "sim_time"),
    ])
    def test_config_error_is_a_usage_error(self, capsys, argv, field):
        """A value the config rejects exits 2 naming the field, before any run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--no-store"] + argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"repro: error: {field} must be" in captured.err
        assert captured.out == ""

    def test_unknown_controller_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--no-store", "run", "push", "--controller", "nope"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "repro: error: unknown controller 'nope'" in captured.err
        assert captured.out == ""

    def test_traced_config_error_writes_no_trace(self, tmp_path, capsys):
        """``trace`` builds its config before it opens the trace file."""
        out = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["--sim-time", "-5", "trace", "push", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "repro: error: sim_time must be" in capsys.readouterr().err
        assert not out.exists()

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "N_Peers" in out

    def test_run_command(self, capsys):
        code = main(
            ["--sim-time", "120", "--warmup", "60", "--seed", "2",
             "--no-store", "run", "rpcc-wc"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rpcc-wc" in out
        assert "transmissions" in out
        assert "relay population" in out

    def test_run_single_source(self, capsys):
        code = main(
            ["--sim-time", "120", "--warmup", "60",
             "--no-store", "run", "push", "--scenario", "single_source"]
        )
        assert code == 0
        assert "single_source" in capsys.readouterr().out

    def test_fig9_command_with_plot(self, capsys):
        code = main(
            ["--sim-time", "120", "--warmup", "60",
             "--no-store", "fig9", "--ttls", "1", "3", "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 9(a)" in out
        assert "Fig 9(b)" in out
        assert "o=rpcc-sc" in out  # the ASCII plot rendered


class TestCLIAll:
    def test_all_writes_every_csv(self, tmp_path, capsys):
        code = main(
            ["--sim-time", "60", "--warmup", "30", "--no-store",
             "all", "--out", str(tmp_path)]
        )
        assert code == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "fig7a.csv", "fig7b.csv", "fig7c.csv",
            "fig8a.csv", "fig8b.csv", "fig8c.csv",
            "fig9a.csv", "fig9b.csv",
        ]
        header = (tmp_path / "fig7a.csv").read_text().splitlines()[0]
        assert header.startswith("update interval (s),")


class TestCLIExecutor:
    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        base = ["--sim-time", "60", "--warmup", "30"]
        assert main(base + ["--no-store", "compare"]) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--no-store", "--jobs", "2", "compare"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path, capsys):
        base = [
            "--sim-time", "60", "--warmup", "30",
            "--store", str(tmp_path / "store"),
        ]
        assert main(base + ["compare"]) == 0
        cold_out = capsys.readouterr().out
        assert "store: 0 served, 6 appended" in cold_out
        assert "6 runs simulated" in cold_out
        assert main(base + ["compare"]) == 0
        warm_out = capsys.readouterr().out
        assert "store: 6 served, 0 appended" in warm_out
        assert "0 runs simulated" in warm_out
        # The science is identical; only the store footer differs.
        strip = lambda text: text.split("store:")[0]
        assert strip(cold_out) == strip(warm_out)

    def test_fig7a_then_fig8a_shares_the_sweep(self, tmp_path, capsys):
        base = [
            "--sim-time", "60", "--warmup", "30",
            "--store", str(tmp_path / "store"),
        ]
        assert main(base + ["fig7a"]) == 0
        capsys.readouterr()
        assert main(base + ["fig8a"]) == 0
        out = capsys.readouterr().out
        # Fig 8(a) reads the exact sweep Fig 7(a) computed: all served.
        assert "0 runs simulated" in out


class TestCLIFigureCommand:
    def test_fig7a_with_csv(self, tmp_path, capsys):
        target = tmp_path / "fig7a.csv"
        code = main(
            ["--sim-time", "60", "--warmup", "30", "--no-store",
             "fig7a", "--csv", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 7(a)" in out
        assert target.exists()
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 6  # header + five sweep points

    def test_compare_command(self, capsys):
        code = main(["--sim-time", "60", "--warmup", "30", "--no-store", "compare"])
        assert code == 0
        out = capsys.readouterr().out
        for spec in ("pull", "push", "rpcc-sc", "rpcc-hy"):
            assert spec in out
