"""Unit tests for the benchmark baseline tracking and regression gate."""

import json

import pytest

from benchmarks.baseline import (
    Comparison,
    compare,
    format_comparison,
    has_regressions,
    load_baseline,
    main as baseline_main,
    save_baseline,
)
from benchmarks.run_bench import kernel_benchmarks, measure, sweep_speedups


class TestSaveLoadRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        results = {"snapshot_build_1000": 0.004, "route_burst_1000": 0.012}
        save_baseline(path, results, meta={"repeats": 5})
        assert load_baseline(path) == results

    def test_meta_recorded(self, tmp_path):
        path = tmp_path / "bench.json"
        save_baseline(path, {"a": 1.0}, meta={"repeats": 3})
        data = json.loads(path.read_text())
        assert data["meta"]["repeats"] == 3
        assert "python" in data["meta"]

    def test_results_sorted_for_stable_diffs(self, tmp_path):
        path = tmp_path / "bench.json"
        save_baseline(path, {"zeta": 1.0, "alpha": 2.0})
        names = list(json.loads(path.read_text())["results"])
        assert names == ["alpha", "zeta"]


class TestCompare:
    def test_within_threshold_is_ok(self):
        rows = compare({"a": 1.2}, {"a": 1.0}, threshold=0.30)
        assert [row.status for row in rows] == ["ok"]
        assert not has_regressions(rows)

    def test_beyond_threshold_regresses(self):
        rows = compare({"a": 1.31}, {"a": 1.0}, threshold=0.30)
        assert rows[0].status == "regressed"
        assert has_regressions(rows)

    def test_symmetric_speedup_reported_as_improved(self):
        rows = compare({"a": 0.5}, {"a": 1.0}, threshold=0.30)
        assert rows[0].status == "improved"
        assert not has_regressions(rows)

    def test_new_and_missing_benchmarks_never_fail(self):
        rows = compare({"new_bench": 1.0}, {"old_bench": 1.0})
        statuses = {row.name: row.status for row in rows}
        assert statuses == {"new_bench": "new", "old_bench": "missing"}
        assert not has_regressions(rows)

    def test_ratio(self):
        row = compare({"a": 2.0}, {"a": 1.0})[0]
        assert row.ratio == pytest.approx(2.0)
        assert Comparison("b", None, 1.0, "new").ratio is None

    def test_format_mentions_every_row(self):
        rows = compare({"a": 1.5, "b": 1.0}, {"a": 1.0, "b": 1.0})
        text = format_comparison(rows)
        assert "regressed" in text and "ok" in text
        assert "1.50x" in text


class TestBaselineCli:
    def test_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        save_baseline(base, {"a": 1.0})
        save_baseline(good, {"a": 1.1})
        save_baseline(bad, {"a": 2.0})
        assert baseline_main([str(base), str(good)]) == 0
        assert baseline_main([str(base), str(bad)]) == 1
        assert "regressed" in capsys.readouterr().out


class TestRunBench:
    def test_measure_returns_positive_seconds(self):
        assert measure(lambda: sum(range(100)), repeats=2) > 0.0

    def test_kernel_benchmark_names_match_committed_baseline(self):
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_kernel.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in kernel_benchmarks()}
        assert defined == committed

    def test_every_benchmark_callable_runs(self):
        for name, fn in kernel_benchmarks():
            fn()  # one iteration each: smoke, not timing

    def test_only_updates_and_gates_the_named_rows_alone(self, tmp_path, capsys):
        """``--only ROW`` ratchets one row: the others and the metadata
        stay as committed, and ``--check`` judges nothing else."""
        from benchmarks.run_bench import main as run_bench_main

        path = tmp_path / "BENCH_kernel.json"
        save_baseline(
            path,
            {"snapshot_build_50": 9.0, "snapshot_build_200": 1e-9},
            meta={"repeats": 5, "note": "kept"},
        )
        common = ["--suite", "kernel", "--baseline-dir", str(tmp_path),
                  "--repeats", "1", "--only", "snapshot_build_50"]
        assert run_bench_main(common + ["--update"]) == 0
        data = json.loads(path.read_text())
        assert 0.0 < data["results"]["snapshot_build_50"] < 1.0  # re-measured
        assert data["results"]["snapshot_build_200"] == 1e-9  # untouched
        assert data["meta"]["note"] == "kept" and data["meta"]["repeats"] == 5
        before = path.read_text()
        # The impossible 1 ns row would fail a whole-suite gate; it is not asked.
        data["results"]["snapshot_build_50"] = 9.0
        path.write_text(json.dumps(data))
        assert run_bench_main(common + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "snapshot_build_50" in out and "snapshot_build_200" not in out
        assert before != path.read_text() == json.dumps(data)  # --check wrote nothing
        assert run_bench_main(common + ["--only", "no_such_row", "--check"]) == 2
        assert "no_such_row" in capsys.readouterr().err

    def test_sweep_benchmark_names_match_committed_baseline(self, tmp_path):
        import pathlib

        from benchmarks.bench_sweep import sweep_benchmarks

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_sweep.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in sweep_benchmarks(str(tmp_path))}
        assert defined == committed

    def test_sweep_speedups_derived_from_timings(self):
        speedups = sweep_speedups({
            "sweep_serial_6runs": 1.0,
            "sweep_jobs2_6runs": 0.5,
            "sweep_cache_warm_6runs": 0.01,
        })
        assert speedups["parallel_speedup_jobs2"] == pytest.approx(2.0)
        assert speedups["cache_hit_speedup"] == pytest.approx(100.0)
        assert sweep_speedups({}) == {}

    def test_scale_benchmark_names_match_committed_baseline(self, tmp_path):
        import pathlib

        from benchmarks.bench_scale import scale_benchmarks

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_scale.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in scale_benchmarks(str(tmp_path))}
        assert defined == committed
        assert defined == {f"scale_run_vectorized_{n}" for n in (1000, 5000, 10000)}

    def test_scale_speedups_derived_from_timings(self):
        from benchmarks.bench_scale import PR6_VECTORIZED_10000, scale_speedups

        ratios = scale_speedups({
            "scale_run_vectorized_1000": 0.10,
            "scale_run_vectorized_10000": 2.5,
        })
        assert ratios == {
            "engine_speedup_vs_pr6": pytest.approx(PR6_VECTORIZED_10000 / 2.5),
        }
        assert scale_speedups({}) == {}

    def test_committed_scale_baseline_doubles_the_pr6_run_phase(self):
        """The engine PR's acceptance bar: the committed 10k-node
        vectorized run phase is at least 2x faster than the committed
        pre-wheel (PR-6) measurement on the same reference machine."""
        import pathlib

        from benchmarks.bench_scale import PR6_VECTORIZED_10000

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_scale.json"
        )
        data = json.loads(baseline_path.read_text())
        committed = data["results"]["scale_run_vectorized_10000"]
        assert PR6_VECTORIZED_10000 / committed >= 2.0
        assert data["meta"]["engine_speedup_vs_pr6"] >= 2.0

    def test_engine_benchmark_names_match_committed_baseline(self, tmp_path):
        import pathlib

        from benchmarks.bench_engine import engine_benchmarks

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_engine.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in engine_benchmarks(str(tmp_path))}
        assert defined == committed

    def test_campaign_benchmark_names_match_committed_baseline(self, tmp_path):
        import pathlib

        from benchmarks.bench_campaign import campaign_benchmarks

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_campaign.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in campaign_benchmarks(str(tmp_path))}
        assert defined == committed

    def test_committed_campaign_baseline_records_the_targets(self):
        """The one figure the campaign baseline commits to: its commit
        count for the 1000-point campaign is what the store's own
        accounting measures today."""
        import pathlib

        from benchmarks.bench_campaign import campaign_write_counts

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_campaign.json"
        )
        meta = json.loads(baseline_path.read_text())["meta"]
        assert meta["store_commits"] == (
            campaign_write_counts()["store_commits"]
        )

    def test_control_benchmark_names_match_committed_baseline(self, tmp_path):
        import pathlib

        from benchmarks.bench_control import control_benchmarks

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_control.json"
        )
        committed = set(load_baseline(baseline_path))
        defined = {name for name, _ in control_benchmarks(str(tmp_path))}
        assert defined == committed

    def test_control_overheads_derived_from_timings(self):
        from benchmarks.bench_control import control_overheads

        overheads = control_overheads({
            "control_off_run": 0.10,
            "control_static_run": 0.101,
            "control_hysteresis_chaos_run": 0.12,
        })
        assert overheads["static_sampling_overhead"] == pytest.approx(1.01)
        assert overheads["hysteresis_chaos_overhead"] == pytest.approx(1.2)
        assert control_overheads({}) == {}

    def test_committed_control_baseline_records_the_budget(self):
        """The acceptance bar: pure observation (the static policy
        sampling every window on a fault-free run) costs at most 5%
        wall-clock over no controller at all."""
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_control.json"
        )
        data = json.loads(baseline_path.read_text())
        assert data["meta"]["static_sampling_overhead"] <= 1.05
        results = data["results"]
        assert results["control_off_run"] > 0
        assert results["control_hysteresis_chaos_run"] > 0
