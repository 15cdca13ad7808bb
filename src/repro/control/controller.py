"""The online controller: sample -> decide -> actuate, once per tick.

One :class:`OnlineController` is attached to a simulation when
``config.controller`` names a registered policy.  Each tick it

1. **samples** the metrics layer into a :class:`ControlSignals` window
   (pull-based; nothing in the hot path knows the controller exists),
2. asks the policy to **decide**, and
3. **actuates** the decision through the strategy's explicit seam
   (:meth:`~repro.consistency.base.ConsistencyStrategy.apply_control`),
   emitting one ``controller_actuated`` trace event per knob actually
   changed — the record the invariant checker replays to move its
   knowledge-relative Δ contract to the new bound at the actuation
   boundary.

Determinism: the controller's only RNG is the named ``"controller"``
stream, so runs with ``controller=None`` draw the exact same random
sequences as before the subsystem existed, and two runs with the same
seed and policy actuate identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.control.policies import ControlDecision, ControlPolicy
from repro.control.signals import ControlSignals, DeltaTracker
from repro.obs.events import ControllerActuated, ControllerSampled
from repro.sim.timers import PeriodicTimer

__all__ = ["OnlineController"]


class OnlineController:
    """Periodic closed loop around one simulation's strategy."""

    def __init__(
        self,
        policy: ControlPolicy,
        strategy,
        metrics,
        streams,
        hosts=(),
        injector=None,
        interval: float = 30.0,
    ) -> None:
        self.policy = policy
        self.strategy = strategy
        self.metrics = metrics
        self.hosts = tuple(hosts)
        self.injector = injector
        self.interval = float(interval)
        self.rng = streams.stream("controller")
        self._deltas = DeltaTracker()
        self._last_sample_at: Optional[float] = None
        self._timer: Optional[PeriodicTimer] = None
        #: Applied decisions, in order: ``{"time", "policy", "reason",
        #: "applied": {knob: value}, "modes": count}`` — surfaced in the
        #: run footer and on :class:`SimulationResult`.
        self.decisions: List[Dict[str, object]] = []
        self.samples_taken = 0

    # ------------------------------------------------------------------
    @property
    def _sim(self):
        return self.strategy.context.sim

    def start(self) -> None:
        """Prime the policy with the strategy's knobs and arm the tick timer."""
        baseline = dict(self.strategy.control_knobs())
        self.policy.prime(baseline)
        self._timer = PeriodicTimer(self._sim, self.interval, self._tick)
        self._timer.start()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self) -> ControlSignals:
        """Snapshot the observable state into one window of signals."""
        now = self._sim.now
        window = (
            self.interval
            if self._last_sample_at is None
            else max(now - self._last_sample_at, 1e-9)
        )
        self._last_sample_at = now
        take = self._deltas.take
        metrics = self.metrics
        queries = int(take("issued", metrics.latency.issued))
        answers = int(take("answered", metrics.latency.answered))
        stale = int(take("stale", metrics.staleness.stale_reads()))
        audited = int(take("reads", metrics.staleness.reads))
        updates = int(take("updates", metrics.staleness.updates_recorded))
        forced = int(take("forced_stale", metrics.counter("rpcc_forced_stale")))
        started = int(take("p_start", metrics.counter("fault_partitions_started")))
        healed = int(take("p_heal", metrics.counter("fault_partitions_healed")))
        crashes = int(take("crashes", metrics.counter("fault_crashes")))
        active = (
            self.injector.active_partition_count if self.injector is not None else 0
        )
        car = cs = ce = 0.0
        online = [host for host in self.hosts if host.online]
        if online:
            car = sum(h.tracker.car for h in online) / len(online)
            cs = sum(h.tracker.cs for h in online) / len(online)
            ce = sum(h.tracker.ce for h in online) / len(online)
        relay_count = getattr(self.strategy, "relay_count", lambda: 0)()
        degradation = (
            metrics.degradation.snapshot() if metrics.degradation is not None else {}
        )
        self.samples_taken += 1
        return ControlSignals(
            time=now,
            window=window,
            queries=queries,
            answers=answers,
            availability=answers / queries if queries else 1.0,
            query_rate=queries / window,
            update_rate=updates / window,
            stale_reads=stale,
            stale_rate=stale / audited if audited else 0.0,
            forced_stale=forced,
            partitions_active=active,
            partitions_started=started,
            partitions_healed=healed,
            crashes=crashes,
            relay_count=relay_count,
            mean_car=car,
            mean_cs=cs,
            mean_ce=ce,
            degradation=degradation,
        )

    # ------------------------------------------------------------------
    # The control loop tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        signals = self.sample()
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                ControllerSampled(
                    time=signals.time,
                    policy=self.policy.name,
                    availability=signals.availability,
                    stale_rate=signals.stale_rate,
                    query_rate=signals.query_rate,
                    update_rate=signals.update_rate,
                    partitions=signals.partitions_active,
                    relays=signals.relay_count,
                )
            )
        decision = self.policy.decide(signals, self.rng)
        if decision is None:
            return
        self.actuate(decision)

    def actuate(self, decision: ControlDecision) -> Dict[str, float]:
        """Apply one decision through the strategy seam; returns what changed."""
        if decision.mode_all is not None and not decision.modes:
            catalog = self.strategy.context.catalog
            decision = replace(
                decision,
                modes={item: decision.mode_all for item in catalog.item_ids},
            )
        applied = self.strategy.apply_control(decision)
        modes_applied = applied.pop("_modes", 0)
        if not applied and not modes_applied:
            return applied
        trace = self._sim.trace
        if trace.enabled:
            for knob in sorted(applied):
                trace.emit(
                    ControllerActuated(
                        time=decision.time,
                        policy=decision.policy,
                        knob=knob,
                        value=float(applied[knob]),
                        reason=decision.reason,
                    )
                )
            if modes_applied:
                trace.emit(
                    ControllerActuated(
                        time=decision.time,
                        policy=decision.policy,
                        knob="dissemination_mode",
                        value=float(modes_applied),
                        reason=f"{decision.mode_all or 'mixed'}: {decision.reason}",
                    )
                )
        self.decisions.append(
            {
                "time": decision.time,
                "policy": decision.policy,
                "reason": decision.reason,
                "applied": dict(applied),
                "modes": int(modes_applied),
            }
        )
        return applied
