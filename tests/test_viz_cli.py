"""Unit tests for the ASCII chart renderer and the CLI."""

import sqlite3

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

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "run", "push"],
        ["--jobs", "-3", "compare"],
        ["--jobs", "two", "fig7a"],
        ["matrix", "examples/matrix/smoke.toml", "--jobs", "0"],
    ])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, argv):
        """Rejected while parsing: no result store is opened."""
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["--store", str(store)] + argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument --jobs: must be an integer >= 1, got {argv[argv.index('--jobs') + 1]!r}"
        )
        assert not store.exists()

    @pytest.mark.parametrize("body,message", [
        ('[matrix]\npolices = ["lru"]\n', "unknown matrix axis/axes ['polices']"),
        ('[matrix]\nstrategies = ["push"]\n', "[matrix] needs a 'scenarios' list"),
        ('[matrix]\nscenarios = ["standard"]\nstrategies = ["gossip"]\n', "gossip"),
        ('[matrix]\nscenarios = ["standard"]\nstrategies = ["push"]\nseeds = 3\n',
         "sweep axis 'seed' needs a non-empty list of values, got 3"),
        ('[matrix]\nscenarios = ["standard"]\nstrategies = ["push"]\nseeds = ["1"]\n',
         "seed values must be numbers, got '1'"),
        ("[matrix\n", "invalid TOML"),
    ])
    def test_malformed_matrix_file_is_one_error_line(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.toml"
        bad.write_text(body)
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["--store", str(store), "matrix", str(bad)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"repro: error: {bad}: ") and message in last
        assert "Traceback" not in captured.err
        assert not store.exists()

    @pytest.mark.parametrize("argv,target", [
        (["trace", "push", "--out", "{missing}/t.jsonl"], "{missing}/t.jsonl"),
        (["matrix", "examples/matrix/smoke.toml", "--csv", "{missing}/x.csv"],
         "{missing}/x.csv"),
        (["fig9", "--csv", "{missing}/f"], "{missing}/fa.csv"),
        (["run", "push", "--profile", "{missing}/p.pstats"], "{missing}/p.pstats"),
    ])
    def test_unwritable_output_fails_before_any_run(self, tmp_path, capsys, argv, target):
        missing = tmp_path / "missing" / "dir"
        argv = [arg.format(missing=missing) for arg in argv]
        code = main(["--sim-time", "20", "--warmup", "10", "--no-store"] + argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing was simulated
        assert captured.err == (
            f"repro: error: cannot write {target.format(missing=missing)}: "
            "No such file or directory\n"
        )

    def test_unwritable_output_found_at_write_is_one_error_line(self, tmp_path, capsys):
        """A directory where the trace file should go fails as it opens."""
        code = main(["--sim-time", "20", "--warmup", "10", "trace", "push", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: cannot write {tmp_path}: Is a directory\n"

    def test_all_out_that_is_a_file_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        """``all --out`` names a directory; a plain file there is one line, exit 1."""
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("repro.cli.reproduce", no_runs)
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["--sim-time", "20", "--warmup", "10", "--no-store", "all", "--out", str(afile)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: cannot write {afile}: File exists\n"

    def test_store_of_another_format_is_one_error_line(self, tmp_path, capsys):
        """A store stamped with another format version: one line, exit 1, nothing written."""
        store = tmp_path / "store"
        argv = ["--store", str(store), "--sim-time", "60", "--warmup", "30", "--seed", "4"]
        assert main(argv + ["run", "push"]) == 0
        database = store / "runs.sqlite"
        conn = sqlite3.connect(database)
        conn.execute("PRAGMA user_version = 3")
        conn.close()
        capsys.readouterr()
        before = database.read_bytes()
        code = main(argv + ["run", "push"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: {database.resolve()}: store format v3, this reader speaks v4\n"
        )
        assert sorted(path.name for path in store.iterdir()) == ["runs.sqlite"]
        assert database.read_bytes() == before

    def test_refused_store_leaves_no_out_directory_behind(self, tmp_path, capsys):
        """``all --out`` removes every level it created when the store is refused;
        a level that was already there stays."""
        store = tmp_path / "store"
        argv = ["--store", str(store), "--sim-time", "20", "--warmup", "10"]
        assert main(argv + ["run", "push"]) == 0
        conn = sqlite3.connect(store / "runs.sqlite")
        conn.execute("PRAGMA user_version = 3")
        conn.close()
        (tmp_path / "kept").mkdir()
        capsys.readouterr()
        for out in (tmp_path / "new" / "sub", tmp_path / "kept" / "sub"):
            assert main(argv + ["all", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "store format v3" in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["kept", "store"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_exception_out_of_the_run_leaves_no_out_directory_behind(
        self, tmp_path, monkeypatch
    ):
        def failing_run(*args, **kwargs):
            raise RuntimeError("the run failed")

        monkeypatch.setattr("repro.cli.reproduce", failing_run)
        out = tmp_path / "new" / "sub"
        with pytest.raises(RuntimeError, match="the run failed"):
            main(["--sim-time", "20", "--warmup", "10", "--no-store", "all", "--out", str(out)])
        assert list(tmp_path.iterdir()) == []

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
