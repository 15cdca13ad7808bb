"""Tests for the experiment harness: Table-1 config, runner, figure sweeps.

Simulation-driving tests use small worlds (12 peers, a few minutes) so
the suite stays fast while still exercising every strategy end to end.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import TABLE1_ROWS, SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.figures import PANELS, FigureData, reproduce
from repro.experiments.runner import (
    STRATEGY_SPECS,
    _gc_quiet,
    build_simulation,
    run_simulation,
)
from repro.peers.host import MobileHost

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_config(**kwargs):
    defaults = dict(
        n_peers=12,
        sim_time=300.0,
        warmup=0.0,
        seed=11,
        terrain_width=800.0,
        terrain_height=800.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    def test_table1_defaults(self):
        config = SimulationConfig()
        assert config.n_peers == 50
        assert config.cache_num == 10
        assert config.sim_time == 5 * 3600.0
        assert config.update_interval == 120.0
        assert config.query_interval == 20.0
        assert config.ttl_broadcast == 8
        assert config.ttl_rpcc == 3
        assert config.ttn == 120.0
        assert config.ttr == 90.0
        assert config.ttp == 240.0
        assert config.switch_interval == 300.0

    def test_table1_rows_complete(self):
        names = [row[0] for row in SimulationConfig().table1_rows()]
        assert names == TABLE1_ROWS

    def test_with_overrides_returns_copy(self):
        base = SimulationConfig()
        other = base.with_overrides(cache_num=5)
        assert other.cache_num == 5
        assert base.cache_num == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_peers": 0},
            {"cache_num": 0},
            {"sim_time": -1.0},
            {"ttl_broadcast": 0},
            {"stable_fraction": 1.5},
            {"speed_min": 0.0},
            {"warmup": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)

    POSITIVES = (
        "n_peers", "terrain_width", "terrain_height", "cache_num",
        "radio_range", "sim_time", "update_interval", "query_interval",
        "ttn", "ttr", "ttp", "switch_interval", "subnet_cell",
        "mean_online", "mean_offline", "poll_timeout", "controller_interval",
    )

    @pytest.mark.parametrize("value", [float("nan"), 0, -1], ids=["nan", "zero", "negative"])
    @pytest.mark.parametrize("name", POSITIVES)
    def test_positive_fields_reject_nan_zero_and_negative(self, name, value):
        # A NaN radio range would build a world with no radio links.
        with pytest.raises(ConfigurationError, match=name):
            SimulationConfig(**{name: value})

    NAN = float("nan")

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("warmup", NAN), ("backoff_factor", NAN),
            ("controller_interval", NAN), ("speed_min", NAN), ("speed_max", NAN),
            ("flash_crowd_at", NAN), ("zipf_theta", NAN),
            ("pause_time", -5.0), ("mean_online", -1.0), ("mean_offline", 0.0),
            ("poll_timeout", 0.0), ("omega", -0.5),
            ("omega", 2.0), ("warmup", float("inf")),
            # Counts and TTLs are integers: each of these passed the range
            # checks and then crashed the run.
            ("ttl_broadcast", NAN), ("ttl_broadcast", 2.5),
            ("ttl_rpcc", NAN), ("ttl_rpcc", 2.5),
            ("n_peers", 2.5), ("n_peers", True), ("cache_num", 2.5),
            ("hot_set_size", 2.5), ("hot_set_size", NAN),
            # Each of these ran seed 1 under a run key of its own.
            ("seed", True), ("seed", 1.5), ("seed", 1.0),
            # Lengths a run can reach the end of.
            ("terrain_width", float("inf")), ("terrain_height", float("inf")),
            ("sim_time", float("inf")), ("controller_interval", float("inf")),
        ],
    )
    def test_values_a_run_cannot_use_are_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize(
        "name",
        ["query_interval", "update_interval", "mean_offline",
         "ttn", "switch_interval", "poll_timeout"],
    )
    def test_infinite_periods_and_means_are_rejected(self, name):
        # Each used to fail partway through a run: a rate of 0 in the
        # exponential draws, or an event time of inf.
        with pytest.raises(ConfigurationError, match=name):
            SimulationConfig(**{name: float("inf")})

    def test_infinite_mean_online_is_the_stable_host_marker(self):
        config = tiny_config(mean_online=float("inf"), sim_time=60.0, warmup=0.0)
        result = build_simulation(config, "push").run()
        assert result.events_processed > 0

    def test_zipf_skew_is_spelled_with_its_access_pattern(self):
        """Zipf access has one spelling: a skew alone does not select it."""
        with pytest.raises(ConfigurationError, match="zipf_theta"):
            SimulationConfig(zipf_theta=0.8)
        assert SimulationConfig(access_pattern="zipf", zipf_theta=0.8).zipf_theta == 0.8


class TestBuildSimulation:
    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(tiny_config(), "gossip")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(tiny_config(), "push", scenario="weird")

    def test_hosts_and_catalog_sized(self):
        simulation = build_simulation(tiny_config(), "push")
        assert len(simulation.hosts) == 12
        assert len(simulation.catalog) == 12
        assert all(h.source_item is not None for h in simulation.hosts.values())

    def test_standard_placement_fills_caches(self):
        simulation = build_simulation(tiny_config(cache_num=4), "pull")
        for host in simulation.hosts.values():
            assert len(host.store) == 4
            assert host.node_id not in host.store

    def test_single_source_placement(self):
        simulation = build_simulation(tiny_config(), "rpcc-sc", "single_source")
        item = simulation.single_source_item
        assert item is not None
        source = simulation.catalog.source_of(item)
        for host_id, host in simulation.hosts.items():
            if host_id == source:
                assert item not in host.store
            else:
                assert item in host.store

    def test_stable_fraction_respected(self):
        simulation = build_simulation(tiny_config(stable_fraction=0.5), "push")
        switchers = sum(
            1 for host in simulation.hosts.values() if host.switching is not None
        )
        assert switchers == 6


class TestGcQuiet:
    """The collector pause around world construction and start-up arming."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", (True, False))
    def test_previous_state_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with _gc_quiet():
            assert not gc.isenabled()
            with _gc_quiet():  # nests: the inner block leaves it off
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", (True, False))
    def test_previous_state_restored_on_exception(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ConfigurationError):
            build_simulation(tiny_config(), "gossip")
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            with _gc_quiet():
                raise RuntimeError("boom")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", (True, False))
    def test_build_and_arming_run_paused_and_nothing_else(self, enabled, monkeypatch):
        from repro.consistency.push import PushStrategy
        from repro.sim.engine import Simulator

        seen = {}
        real_agent, real_start = PushStrategy.make_agent, PushStrategy.start
        real_run_until = Simulator.run_until

        def spy(name, real):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, gc.isenabled())
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PushStrategy, "make_agent", spy("build", real_agent))
        monkeypatch.setattr(PushStrategy, "start", spy("arming", real_start))
        monkeypatch.setattr(Simulator, "run_until", spy("run", real_run_until))
        (gc.enable if enabled else gc.disable)()
        simulation = build_simulation(tiny_config(sim_time=30.0), "push")
        assert gc.isenabled() is enabled
        simulation.run()
        assert gc.isenabled() is enabled
        assert seen == {"build": False, "arming": False, "run": enabled}

    def test_collection_schedule_after_a_build_ignores_what_came_before(self):
        """The build zeroes the young-generation counters before it pauses.

        Otherwise how soon the resumed collector walks the new world a
        second time (a 60 ms pass at 10 000 hosts) depends on how many
        young collections the imports before the build happened to cause.
        """
        after = []
        for earlier_young_collections in (0, 7):
            gc.collect()
            for _ in range(earlier_young_collections):
                gc.collect(0)
            assert gc.get_count()[1] == earlier_young_collections
            gc.disable()  # count what the build leaves, not what follows it
            build_simulation(tiny_config(), "pull")
            after.append(gc.get_count()[1])
        assert after == [0, 0]


def _live_hosts() -> int:
    """MobileHosts the collector's generations hold right now."""
    return sum(type(obj) is MobileHost for obj in gc.get_objects())


class TestGcFreeze:
    """A built world is frozen out of the collector until its run ends."""

    @pytest.fixture(autouse=True)
    def _collected(self):
        # Start from nothing frozen and no garbage, whatever came before.
        gc.unfreeze()
        gc.collect()

    def test_built_world_is_frozen_and_run_releases_it(self):
        simulation = build_simulation(tiny_config(sim_time=30.0), "pull")
        assert gc.get_freeze_count() > 0
        assert _live_hosts() == 0  # the collector would not walk them
        simulation.run()
        assert gc.get_freeze_count() == 0
        assert _live_hosts() >= len(simulation.hosts)

    def test_run_whose_callback_raises_still_releases_it(self):
        simulation = build_simulation(tiny_config(sim_time=30.0), "pull")

        def boom() -> None:
            raise RuntimeError("callback failed")

        simulation.sim.schedule(5.0, boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            simulation.run()
        assert gc.get_freeze_count() == 0

    def test_dropped_worlds_are_collected(self):
        for _ in range(20):
            build_simulation(tiny_config(sim_time=30.0), "pull").run()
        assert gc.get_freeze_count() == 0
        gc.collect()
        assert _live_hosts() == 0


# A campaign worker in miniature: a fresh interpreter that builds and never
# runs, then builds, runs and drops worlds, and never collects by itself.
_WORKER = """
import gc, json, sys
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.peers.host import MobileHost

unrun = SimulationConfig(n_peers=12, sim_time=300.0, warmup=0.0, seed=11,
                         terrain_width=800.0, terrain_height=800.0)
counts = []
for _ in range(40):
    build_simulation(unrun, "pull")
    counts.append(gc.get_freeze_count())
gc.unfreeze()
gc.collect()

large = SimulationConfig(n_peers=500, sim_time=1.0, warmup=0.0, seed=11,
                         terrain_width=2000.0, terrain_height=2000.0)
heap = sys.getallocatedblocks()
simulation = build_simulation(large, "pull")
simulation.run()
world = sys.getallocatedblocks() - heap
del simulation
for _ in range(5):
    build_simulation(large, "pull").run()
gc.unfreeze()
hosts = sum(type(obj) is MobileHost for obj in gc.get_objects())
print(json.dumps({"counts": counts, "heap": heap, "world": world, "hosts": hosts}))
"""


class TestGcFreezeInACampaign:
    """What many worlds in one process leave behind, without collecting."""

    @pytest.fixture(scope="class")
    def report(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _WORKER], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(done.stdout)

    def test_builds_without_runs_keep_the_freeze_count_flat(self, report):
        counts = report["counts"]
        # Each build releases the unrun world before it; without that the
        # count grows by a whole world per build.
        assert max(counts[1:]) <= counts[1] * 1.01, counts

    def test_each_build_after_a_run_frees_the_world_before_it(self, report):
        """Each world adds more than a quarter of the interpreter's heap,
        so every build after a run makes its full pass, and only the last
        world (nothing has built since) is left.  Where the heap dwarfs
        its worlds (a test session's) a pass follows a quarter's worth."""
        assert report["world"] > report["heap"] / 4, "enlarge the world"
        assert report["hosts"] <= 500, report


class TestSingleShotRun:
    """A world runs once; a second run would arm every timer again."""

    def test_second_run_raises_and_arms_nothing(self):
        simulation = build_simulation(tiny_config(), "pull")
        simulation.run(until=0.0)
        pending = simulation.sim.pending_events
        processed = simulation.sim.events_processed
        with pytest.raises(SimulationError, match="single-shot"):
            simulation.run()
        assert simulation.sim.pending_events == pending
        assert simulation.sim.events_processed == processed

    def test_traffic_series_samples_each_minute_once(self):
        simulation = build_simulation(tiny_config(), "pull")
        series = simulation.run().traffic_series
        assert series.times == [60.0, 120.0, 180.0, 240.0, 300.0]
        with pytest.raises(SimulationError):
            simulation.run()
        assert len(series) == 5

    def test_relay_samples_each_minute_once(self):
        simulation = build_simulation(tiny_config(), "rpcc-sc")
        samples = simulation.run().relay_samples
        assert [time for time, _ in samples] == [60.0, 120.0, 180.0, 240.0, 300.0]
        with pytest.raises(SimulationError):
            simulation.run()
        assert len(simulation._relay_samples) == 5


class TestStartupArming:
    def test_arming_order_keeps_the_event_stream(self):
        """Start-up arming files one event per timer and arrival stream,
        in the order that fixes their sequence numbers: this tuple is what
        every earlier arming path produced."""
        config = tiny_config(sim_time=120.0, warmup=30.0, seed=13)
        result = build_simulation(config, "rpcc-sc", "standard").run()
        summary = result.summary
        assert (
            summary.transmissions,
            summary.messages,
            summary.queries_issued,
            summary.queries_answered,
            round(summary.mean_latency, 9),
            round(summary.stale_ratio, 9),
            result.events_processed,
        ) == (1043, 168, 71, 71, 0.019606986, 0.0, 532)


class TestRunSimulation:
    @pytest.mark.parametrize("spec", STRATEGY_SPECS)
    def test_every_spec_runs_and_answers(self, spec):
        result = run_simulation(tiny_config(), spec)
        assert result.total_queries > 0
        assert result.summary.queries_answered > 0
        assert result.summary.transmissions > 0
        # Answered queries never exceed issued ones.
        assert result.summary.queries_answered <= result.summary.queries_issued

    def test_deterministic_given_seed(self):
        a = run_simulation(tiny_config(seed=5), "rpcc-sc")
        b = run_simulation(tiny_config(seed=5), "rpcc-sc")
        assert a.summary.transmissions == b.summary.transmissions
        assert a.summary.mean_latency == b.summary.mean_latency
        assert a.total_queries == b.total_queries

    def test_seed_changes_outcome(self):
        a = run_simulation(tiny_config(seed=5), "pull")
        b = run_simulation(tiny_config(seed=6), "pull")
        assert a.summary.transmissions != b.summary.transmissions

    def test_relay_samples_only_for_rpcc(self):
        assert run_simulation(tiny_config(), "push").relay_samples == []
        rpcc = run_simulation(tiny_config(sim_time=400.0), "rpcc-sc")
        assert rpcc.relay_samples  # sampled every 60 s

    def test_warmup_excluded_from_metrics(self):
        with_warmup = run_simulation(tiny_config(warmup=200.0), "pull")
        without = run_simulation(tiny_config(warmup=0.0, sim_time=500.0), "pull")
        assert with_warmup.summary.queries_issued < without.summary.queries_issued

    def test_transmissions_per_minute(self):
        result = run_simulation(tiny_config(), "push")
        expected = result.summary.transmissions / (result.config.sim_time / 60.0)
        assert result.transmissions_per_minute == pytest.approx(expected)

    def test_weak_rpcc_never_violates(self):
        result = run_simulation(tiny_config(), "rpcc-wc")
        assert result.summary.violation_ratio == 0.0


class TestReproduce:
    def test_points_cover_every_spec_and_value(self):
        figures, results = reproduce(
            ("fig7c",), tiny_config(sim_time=200.0), values=(2, 4)
        )
        assert set(results) == {
            ("fig7c", spec, x) for spec in STRATEGY_SPECS for x in (2, 4)
        }
        figure = figures["fig7c"]
        assert figure.x_values == [2, 4]
        assert list(figure.series) == list(STRATEGY_SPECS)
        assert figure.series["push"] == [
            float(results[("fig7c", "push", x)].summary.transmissions)
            for x in (2, 4)
        ]

    def test_references_run_once_and_plot_flat(self):
        executor = CampaignExecutor()
        figures, results = reproduce(
            ("fig9a", "fig9b"), tiny_config(sim_time=200.0), executor,
            values=(1.0, 3.0),
        )
        # Two TTLs for rpcc-sc plus push and pull, shared by both panels.
        assert executor.runs_executed == 4
        assert results[("fig9a", "push", None)] is results[("fig9b", "push", None)]
        traffic = figures["fig9a"]
        assert list(traffic.series) == ["rpcc-sc", "push", "pull"]
        assert traffic.series["pull"] == [traffic.series["pull"][0]] * 2
        assert traffic.x_values == [1.0, 3.0]

    def test_fig7_and_fig8_read_the_same_runs(self):
        executor = CampaignExecutor()
        figures, _ = reproduce(
            ("fig7a", "fig8a"), tiny_config(sim_time=200.0), executor,
            values=(60.0,),
        )
        assert executor.runs_executed == len(STRATEGY_SPECS)
        assert figures["fig8a"].y_label == "mean hit latency (s)"

    def test_unknown_panel_rejected(self):
        with pytest.raises(ConfigurationError, match="fig10"):
            reproduce(("fig7a", "fig10"), tiny_config())

    def test_panels_are_the_papers_eight(self):
        assert list(PANELS) == [
            "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b",
        ]
        assert [PANELS[name].log_y for name in PANELS] == [
            False, False, False, True, True, True, False, True,
        ]


class TestFigureData:
    def make_figure(self):
        return FigureData(
            figure_id="Fig X",
            title="test",
            x_label="x",
            y_label="y",
            x_values=[1.0, 2.0],
            series={"push": [10.0, 20.0], "pull": [30.0, 40.0]},
        )

    def test_value_lookup(self):
        figure = self.make_figure()
        assert figure.value("pull", 2.0) == 40.0

    def test_value_lookup_tolerates_float_noise(self):
        # An axis value that went through arithmetic (0.5 * 4, unit
        # conversions, ...) need not compare equal; the lookup is
        # isclose-based.
        figure = self.make_figure()
        assert figure.value("pull", 2.0 + 1e-13) == 40.0
        assert figure.value("push", 0.1 + 0.2 + 0.7) == 10.0

    def test_value_miss_raises_configuration_error(self):
        figure = self.make_figure()
        with pytest.raises(ConfigurationError, match="no x value near"):
            figure.value("pull", 3.0)

    def test_format_contains_rows(self):
        text = self.make_figure().format()
        assert "Fig X" in text
        assert "push" in text and "pull" in text
        assert len(text.splitlines()) == 5


class TestFigureCSV:
    def make_figure(self):
        return FigureData(
            figure_id="Fig X",
            title="test",
            x_label="x",
            y_label="y",
            x_values=[1.0, 2.0],
            series={"push": [10.0, 20.0], "pull": [30.0, 40.0]},
        )

    def test_to_csv_shape(self):
        csv_text = self.make_figure().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "x,push,pull"
        assert lines[1] == "1.0,10.0,30.0"
        assert lines[2] == "2.0,20.0,40.0"

    def test_save_csv_roundtrip(self, tmp_path):
        target = tmp_path / "fig.csv"
        figure = self.make_figure()
        figure.save_csv(str(target))
        assert target.read_text() == figure.to_csv()
