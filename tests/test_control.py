"""The adaptive control subsystem: policies, signals, controller, checker.

Covers the anti-oscillation contract of the hysteresis policy (two-point
actuation, cooldowns, healthy-window hysteresis), the pull-based signal
derivation, the controller's sample -> decide -> actuate loop against a
real simulation, and the invariant checker's actuation timeline (a
controller that lowers Δ must never retroactively create violations).
"""

from __future__ import annotations

import random

import pytest

from repro.control import (
    ControlDecision,
    ControlPolicy,
    ControlSignals,
    DeltaTracker,
    HysteresisPolicy,
    OnlineController,
    StaticPolicy,
)
from repro.errors import ConfigurationError
from repro.obs import (
    ControllerActuated,
    ControllerSampled,
    InvalidationReceived,
    InvariantChecker,
    ListSink,
    ReadServed,
    SourceUpdate,
    TraceBus,
    check_events,
    read_jsonl,
)
from repro.scenarios.registry import CONTROLLERS


def sig(time: float, **overrides) -> ControlSignals:
    return ControlSignals(time=time, window=30.0, **overrides)


BASELINE = {"ttr": 90.0, "ttp": 240.0, "poll_timeout": 4.0,
            "relay_boost": 1.0, "backoff_factor": 2.0}


class TestRegistry:
    def test_both_policies_registered(self):
        assert "static" in CONTROLLERS
        assert "hysteresis" in CONTROLLERS

    def test_factories_build_policies(self):
        for name in CONTROLLERS.names():
            policy = CONTROLLERS.get(name)()
            assert isinstance(policy, ControlPolicy)
            assert policy.name == name


class TestStaticPolicy:
    def test_never_actuates(self):
        policy = StaticPolicy()
        policy.prime(dict(BASELINE))
        rng = random.Random(1)
        for window in range(20):
            degraded = sig(30.0 * window, availability=0.1, partitions_active=2)
            assert policy.decide(degraded, rng) is None


class TestHysteresisStateMachine:
    """The shipped settings: a 45 s cooldown stretched by up to 10 %, and
    three healthy 30 s windows before a relax."""

    def _primed(self) -> HysteresisPolicy:
        policy = HysteresisPolicy()
        policy.prime(dict(BASELINE))
        return policy

    def test_holds_before_prime(self):
        policy = HysteresisPolicy()
        decision = policy.decide(sig(30.0, partitions_active=1), random.Random(1))
        assert decision is None  # no baseline -> nothing to actuate

    def test_tightens_on_first_degraded_window(self):
        policy = self._primed()
        decision = policy.decide(sig(30.0, partitions_active=1), random.Random(1))
        assert decision is not None
        assert policy.tight
        assert decision.knobs["ttr"] == 22.5       # x TIGHTEN_SCALE
        assert decision.knobs["ttp"] == 60.0
        assert decision.knobs["poll_timeout"] == 1.0
        assert decision.knobs["relay_boost"] == 2.0     # x RELAY_BOOST
        assert decision.knobs["backoff_factor"] == 3.0  # x BACKOFF_BOOST
        assert "partition" in decision.reason

    def test_two_point_actuation_never_ratchets(self):
        """Tighten -> relax -> tighten lands on the same two value sets."""
        policy = self._primed()
        rng = random.Random(2)
        first = policy.decide(sig(30.0, partitions_active=1), rng)
        for time in (60.0, 90.0):
            assert policy.decide(sig(time), rng) is None
        relax = policy.decide(sig(120.0), rng)
        second = policy.decide(sig(180.0, partitions_active=1), rng)
        assert relax.knobs == BASELINE
        assert second.knobs == first.knobs  # no compounding

    def test_cooldown_bounds_the_actuation_rate(self):
        policy = self._primed()
        rng = random.Random(3)
        assert policy.decide(sig(30.0, partitions_active=1), rng) is not None
        # Three clean windows inside the cooldown (75-79.5 s) cannot relax yet.
        for time in (40.0, 50.0, 70.0):
            assert policy.decide(sig(time), rng) is None
        # The first window past the longest cooldown may.
        assert policy.decide(sig(80.0), rng) is not None

    def test_relax_needs_consecutive_healthy_windows(self):
        policy = self._primed()
        rng = random.Random(4)
        assert policy.decide(sig(30.0, partitions_active=1), rng) is not None
        assert policy.decide(sig(60.0), rng) is None   # healthy 1
        assert policy.decide(sig(90.0), rng) is None   # healthy 2
        relax = policy.decide(sig(120.0), rng)         # healthy 3
        assert relax is not None and relax.knobs == BASELINE
        assert not policy.tight

    def test_flapping_signal_cannot_flap_the_parameters(self):
        """A degraded window resets the healthy streak: no oscillation."""
        policy = self._primed()
        rng = random.Random(5)
        assert policy.decide(sig(30.0, partitions_active=1), rng) is not None
        actuations = 0
        for window in range(2, 40):
            # healthy, healthy, degraded, healthy, healthy, degraded, ...
            degraded = window % 3 == 0
            signals = sig(30.0 * window,
                          partitions_active=1 if degraded else 0)
            if policy.decide(signals, rng) is not None:
                actuations += 1
        assert actuations == 0  # streak never reaches 3: stays tight
        assert policy.tight

    def test_low_availability_alone_triggers_tighten(self):
        policy = self._primed()
        decision = policy.decide(sig(30.0, availability=0.5, queries=10,
                                     answers=5), random.Random(6))
        assert decision is not None
        assert "availability" in decision.reason

    def test_update_dominated_stress_flips_mode_to_pull(self):
        policy = self._primed()
        decision = policy.decide(
            sig(30.0, partitions_active=1, update_rate=2.0, query_rate=0.5),
            random.Random(7),
        )
        assert decision.mode_all == "pull"

    def test_query_dominated_stress_keeps_hybrid_mode(self):
        policy = self._primed()
        decision = policy.decide(
            sig(30.0, partitions_active=1, update_rate=0.1, query_rate=2.0),
            random.Random(8),
        )
        assert decision.mode_all is None

    def test_relax_restores_hybrid_mode(self):
        policy = self._primed()
        rng = random.Random(9)
        policy.decide(sig(30.0, partitions_active=1, update_rate=2.0,
                          query_rate=0.5), rng)
        for time in (60.0, 90.0):
            policy.decide(sig(time), rng)
        relax = policy.decide(sig(120.0), rng)
        assert relax.mode_all == "hybrid"


class TestDeltaTracker:
    def test_deltas_from_cumulative_totals(self):
        tracker = DeltaTracker()
        assert tracker.take("q", 10.0) == 10.0
        assert tracker.take("q", 25.0) == 15.0
        assert tracker.take("q", 25.0) == 0.0

    def test_counter_reset_yields_post_reset_total(self):
        tracker = DeltaTracker()
        tracker.take("q", 100.0)
        # Warm-up reset dropped the counter to 7: the window saw 7.
        assert tracker.take("q", 7.0) == 7.0
        assert tracker.take("q", 10.0) == 3.0

    def test_names_are_independent(self):
        tracker = DeltaTracker()
        tracker.take("a", 5.0)
        assert tracker.take("b", 2.0) == 2.0


class TestControlSignals:
    def test_degraded_composite(self):
        assert sig(0.0, partitions_active=1).degraded
        assert sig(0.0, crashes=1).degraded
        assert not sig(0.0).degraded


class TestCheckerActuationTimeline:
    """Knowledge-relative Δ contracts re-evaluated at actuation boundaries."""

    def _actuation(self, time, value, knob="ttp"):
        return ControllerActuated(time=time, policy="hysteresis",
                                  knob=knob, value=value, reason="test")

    def test_lowering_delta_never_retroactively_violates(self):
        # Knowledge delivered at t=10 under Δ=60; the controller lowers
        # Δ to 5 at t=50.  A stale serve at t=60 (lag 50 <= 60) opened
        # under the old bound and must stay legal.
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            InvalidationReceived(time=10.0, node=2, item=0, version=1),
            self._actuation(50.0, 5.0),
            ReadServed(time=60.0, node=2, item=0, version=0, level="delta"),
        ], delta=60.0)
        assert report.ok

    def test_new_knowledge_held_to_the_lowered_bound(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            self._actuation(50.0, 5.0),
            # Delivered well after the actuation drained the old windows:
            InvalidationReceived(time=200.0, node=2, item=0, version=1),
            ReadServed(time=230.0, node=2, item=0, version=0, level="delta"),
        ], delta=60.0)
        assert not report.ok
        assert report.by_invariant() == {"delta": 1}

    def test_raising_delta_applies_immediately(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            self._actuation(5.0, 500.0),
            InvalidationReceived(time=10.0, node=2, item=0, version=1),
            ReadServed(time=300.0, node=2, item=0, version=0, level="delta"),
        ], delta=60.0)
        assert report.ok

    def test_non_delta_knobs_do_not_move_the_timeline(self):
        report = check_events([
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            self._actuation(5.0, 500.0, knob="ttr"),
            InvalidationReceived(time=10.0, node=2, item=0, version=1),
            ReadServed(time=300.0, node=2, item=0, version=0, level="delta"),
        ], delta=60.0)
        assert not report.ok  # ttr actuations leave Δ at 60


#: Knowledge at t=5, a read served 495 s later: stale under Δ = 10.
_LATE_READ = (
    SourceUpdate(time=0.0, node=0, item=0, version=1),
    InvalidationReceived(time=5.0, node=2, item=0, version=1),
    ReadServed(time=500.0, node=2, item=0, version=0, level="delta"),
)
#: What a damaged trace may say Δ moved to, as JSON writes each one.
_BAD_BOUNDS = (
    ("Infinity", float("inf")), ("1e999", float("inf")),
    ("NaN", float("nan")), ("0.0", 0.0), ("-3.0", -3.0),
)


class TestCheckerRefusesUnusableDelta:
    """No live controller moves Δ to a value that is not finite and
    positive, and an infinite one would silence the Δ check, so a trace
    that holds one is refused instead of replayed."""

    @staticmethod
    def _actuation(value, time=1.0):
        return ControllerActuated(time=time, policy="hysteresis", knob="ttp",
                                  value=value, reason="test")

    def test_the_late_read_is_stale_without_an_actuation(self):
        assert check_events(_LATE_READ, delta=10.0).by_invariant() == {"delta": 1}

    @pytest.mark.parametrize("text,value", _BAD_BOUNDS, ids=[b[0] for b in _BAD_BOUNDS])
    def test_feed_event(self, text, value):
        checker = InvariantChecker(delta=10.0)
        with pytest.raises(ConfigurationError, match=r"t=1\.0 moves ttp"):
            checker.feed(self._actuation(value))

    @pytest.mark.parametrize("text,value", _BAD_BOUNDS, ids=[b[0] for b in _BAD_BOUNDS])
    def test_feed_dict(self, text, value):
        checker = InvariantChecker(delta=10.0)
        with pytest.raises(ConfigurationError, match="moves delta to"):
            checker.feed(self._actuation(value).to_dict() | {"knob": "delta"})

    @pytest.mark.parametrize("text,value", _BAD_BOUNDS, ids=[b[0] for b in _BAD_BOUNDS])
    def test_check_events_from_a_file(self, tmp_path, text, value):
        lines = [event.to_json() for event in _LATE_READ]
        lines.insert(1, self._actuation(0.0).to_json().replace('"value":0.0', f'"value":{text}'))
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=rf"moves ttp to {value!r}"):
            check_events(read_jsonl(path), delta=10.0)

    def test_a_finite_bound_still_moves_it(self, tmp_path):
        """Knowledge at t=100, a read 15 s later: stale under Δ = 10,
        fresh once Δ was moved to 20 before the knowledge arrived."""
        events = [
            SourceUpdate(time=0.0, node=0, item=0, version=1),
            self._actuation(20.0),
            InvalidationReceived(time=100.0, node=2, item=0, version=1),
            ReadServed(time=115.0, node=2, item=0, version=0, level="delta"),
        ]
        assert not check_events(events[:1] + events[2:], delta=10.0).ok
        assert check_events(events, delta=10.0).ok
        checker = InvariantChecker(delta=10.0)
        for event in events:
            checker.feed(event.to_dict())
        assert checker.finish().ok
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(event.to_json() + "\n" for event in events))
        assert check_events(read_jsonl(path), delta=10.0).ok


def _chaos_config(controller=None, seed=7, **overrides):
    from repro.experiments.config import SimulationConfig
    from repro.faults import FaultPlan
    from pathlib import Path

    plan = FaultPlan.load(
        Path(__file__).parent.parent / "examples" / "faults" / "partition.json"
    )
    return SimulationConfig(
        n_peers=20, terrain_width=1000.0, terrain_height=1000.0,
        sim_time=180.0, warmup=60.0, seed=seed, faults=plan,
        controller=controller, **overrides,
    )


def _traced_run(config, spec="rpcc-sc"):
    from repro.experiments.runner import build_simulation

    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    simulation = build_simulation(config, spec, "standard", trace=bus)
    result = simulation.run()
    bus.close()
    return simulation, result, sink.events


class TestOnlineControllerIntegration:
    def test_hysteresis_actuates_under_partition_chaos(self):
        simulation, result, events = _traced_run(_chaos_config("hysteresis"))
        controller = simulation.controller
        assert controller is not None
        assert controller.samples_taken > 0
        assert result.control_decisions  # the partition forced a tighten
        sampled = [e for e in events if isinstance(e, ControllerSampled)]
        actuated = [e for e in events if isinstance(e, ControllerActuated)]
        assert len(sampled) == controller.samples_taken
        assert actuated
        assert all(e.policy == "hysteresis" for e in actuated)
        # Every applied decision surfaced as one event per knob.
        knob_events = [e for e in actuated if e.knob != "dissemination_mode"]
        assert len(knob_events) == sum(
            len(d["applied"]) for d in result.control_decisions
        )

    def test_actuated_run_stays_violation_free(self):
        config = _chaos_config("hysteresis")
        _, _, events = _traced_run(config)
        report = InvariantChecker(delta=config.ttp).feed_all(events).finish()
        assert report.ok, report.format()

    def test_static_controller_samples_but_never_actuates(self):
        simulation, result, events = _traced_run(_chaos_config("static"))
        assert simulation.controller.samples_taken > 0
        assert result.control_decisions == []
        assert not [e for e in events if isinstance(e, ControllerActuated)]

    def test_controller_decisions_are_deterministic(self):
        _, first, _ = _traced_run(_chaos_config("hysteresis"))
        _, second, _ = _traced_run(_chaos_config("hysteresis"))
        assert first.control_decisions == second.control_decisions

    def test_no_controller_runs_have_no_decisions(self):
        _, result, _ = _traced_run(_chaos_config(None))
        assert result.control_decisions == []


class TestActuationSeams:
    """apply_control changes future behaviour only, and reports changes."""

    def _rpcc(self, controller="hysteresis"):
        from repro.experiments.runner import build_simulation

        return build_simulation(_chaos_config(controller), "rpcc-sc", "standard")

    def test_rpcc_knob_baseline_matches_config(self):
        simulation = self._rpcc()
        knobs = simulation.strategy.control_knobs()
        config = simulation.strategy.config
        assert knobs["ttr"] == config.ttr
        assert knobs["ttp"] == config.ttp
        assert knobs["poll_timeout"] == config.poll_timeout
        assert knobs["relay_boost"] == 1.0

    def test_apply_control_reports_only_real_changes(self):
        simulation = self._rpcc()
        strategy = simulation.strategy
        before = strategy.control_knobs()
        decision = ControlDecision(
            time=0.0, policy="test", reason="t",
            knobs={"ttr": before["ttr"], "poll_timeout": before["poll_timeout"] / 2,
                   "unknown_knob": 3.0},
        )
        applied = strategy.apply_control(decision)
        assert "ttr" not in applied          # unchanged -> not reported
        assert "unknown_knob" not in applied  # not a seam this strategy owns
        assert applied["poll_timeout"] == before["poll_timeout"] / 2
        assert strategy.control_knobs()["poll_timeout"] == before["poll_timeout"] / 2

    def test_ttp_actuation_moves_the_checker_delta_seam(self):
        simulation = self._rpcc()
        strategy = simulation.strategy
        target = strategy.config.ttp / 2
        strategy.apply_control(ControlDecision(
            time=0.0, policy="test", reason="t", knobs={"ttp": target},
        ))
        assert strategy.context.delta == target

    def test_relay_boost_widens_the_eligibility_gates(self):
        simulation = self._rpcc()
        strategy = simulation.strategy
        base = strategy._base_thresholds
        strategy.apply_control(ControlDecision(
            time=0.0, policy="test", reason="t", knobs={"relay_boost": 2.0},
        ))
        boosted = strategy.config.thresholds
        assert boosted.mu_car == min(1.0, base.mu_car * 2.0)
        assert boosted.mu_cs == pytest.approx(base.mu_cs / 2.0)
        assert boosted.mu_ce == pytest.approx(base.mu_ce / 2.0)
        # Relaxing back to 1.0 restores the exact base thresholds.
        strategy.apply_control(ControlDecision(
            time=0.0, policy="test", reason="t", knobs={"relay_boost": 1.0},
        ))
        assert strategy.config.thresholds == base

    @pytest.mark.parametrize("spec", ["rpcc-sc", "pull", "push", "push-uir"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_knob_values_are_not_applied(self, spec, value):
        """No timer may run on NaN, ∞ or a non-positive duration, and a
        backoff factor must stay >= 1: such a target leaves every knob."""
        from repro.experiments.runner import build_simulation

        simulation = build_simulation(
            _chaos_config("hysteresis"), spec, "standard"
        )
        strategy = simulation.strategy
        before = strategy.control_knobs()
        assert "backoff_factor" in before
        delta = strategy.context.delta
        applied = strategy.apply_control(ControlDecision(
            time=0.0, policy="test", reason="t",
            knobs={knob: value for knob in before},
        ))
        assert applied == {}
        assert strategy.control_knobs() == before
        assert strategy.context.delta == delta

    def test_ttr_actuation_leaves_the_construction_time_waits(self):
        """``grace_timeout`` and the client's remote-query wait are fixed
        when the world is built: a controller moving ``ttr`` must not
        stretch or shrink them (the controller goldens rest on that)."""
        simulation = self._rpcc()
        strategy = simulation.strategy
        grace = strategy.config.grace_timeout
        remote = strategy.remote_query_timeout()
        applied = strategy.apply_control(ControlDecision(
            time=0.0, policy="test", reason="t",
            knobs={"ttr": strategy.config.ttr / 4},
        ))
        assert applied == {"ttr": 22.5}
        assert strategy.config.grace_timeout == grace == 35.0
        assert strategy.remote_query_timeout() == remote

    def test_mode_actuation_counts_changes(self):
        simulation = self._rpcc()
        strategy = simulation.strategy
        items = list(simulation.catalog.item_ids)
        decision = ControlDecision(
            time=0.0, policy="test", reason="t",
            modes={items[0]: "pull", items[1]: "push", items[2]: "hybrid"},
        )
        applied = strategy.apply_control(decision)
        assert applied["_modes"] == 2  # hybrid was already the default
        assert strategy.dissemination_mode(items[0]) == "pull"
        assert strategy.dissemination_mode(items[1]) == "push"
        assert strategy.dissemination_mode(items[2]) == "hybrid"
