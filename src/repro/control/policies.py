"""Registered control policies: the static baseline and the hysteresis rule.

A :class:`ControlPolicy` turns one :class:`~repro.control.signals.ControlSignals`
window into at most one :class:`ControlDecision` — a *target* setting for
named knobs, applied by the strategy through its explicit actuation seam
(:meth:`~repro.consistency.base.ConsistencyStrategy.apply_control`).
Policies never touch protocol state themselves; they only name targets.

Anti-oscillation contract (the "graceful degradation guarantee" of the
hysteresis policy):

* **two-point actuation** — every knob only ever takes one of two values,
  its primed baseline or the tightened value ``baseline x TIGHTEN_SCALE``
  (respectively ``x RELAY_BOOST`` / ``x BACKOFF_BOOST`` for the boosted
  knobs), so repeated actuations cannot ratchet parameters away;
* **bounded actuation rate** — at most one actuation per ``COOLDOWN``
  simulated seconds (the cooldown is jittered from the controller's named
  RNG stream so co-scheduled controllers cannot phase-lock);
* **hysteresis** — tightening happens on the first degraded window, but
  relaxing requires ``HEALTHY_WINDOWS`` *consecutive* clean windows, so a
  flapping signal cannot flap the parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.control.signals import ControlSignals
from repro.scenarios.registry import register_controller

__all__ = [
    "ControlDecision",
    "ControlPolicy",
    "StaticPolicy",
    "HysteresisPolicy",
]

# The hysteresis policy's settings.
#: Share of its baseline a tightened freshness window or timeout keeps.
TIGHTEN_SCALE = 0.25
#: Factor on the relay-eligibility boost while tight.
RELAY_BOOST = 2.0
#: Factor on the retry-backoff base while tight.
BACKOFF_BOOST = 1.5
#: Availability below which a window counts as degraded.
ENTER_AVAILABILITY = 0.9
#: Simulated seconds between two actuations, before jitter.
COOLDOWN = 45.0
#: Consecutive clean windows before the policy relaxes.
HEALTHY_WINDOWS = 3
#: Largest relative stretch of one cooldown, drawn per actuation.
COOLDOWN_JITTER = 0.1


@dataclass(frozen=True)
class ControlDecision:
    """One actuation request: target values for named knobs.

    ``knobs`` maps knob name -> target value.  Knob names are the
    strategy-owned vocabulary (``ttr``, ``ttp``, ``poll_timeout``,
    ``ttn``, ``relay_boost``, ``backoff_factor``); a strategy applies
    the knobs it owns and ignores the rest, reporting what it actually
    changed.  ``mode_all`` (expanded by the controller into per-item
    ``modes``) selects the dissemination mode — ``"push"``, ``"pull"``
    or ``"hybrid"`` — per catalog item.
    """

    time: float
    policy: str
    reason: str
    knobs: Mapping[str, float] = field(default_factory=dict)
    modes: Mapping[int, str] = field(default_factory=dict)
    mode_all: Optional[str] = None


class ControlPolicy:
    """Interface every registered control policy implements."""

    #: Registry name; also stamped on every decision and trace event.
    name = "?"

    def prime(self, baseline: Mapping[str, float]) -> None:
        """Receive the strategy's initial knob values before the run starts.

        Policies must only actuate knobs present in ``baseline`` — the
        strategy advertised exactly the seams it owns.
        """

    def decide(
        self, signals: ControlSignals, rng: random.Random
    ) -> Optional[ControlDecision]:
        """Return an actuation for this window, or ``None`` to hold."""
        raise NotImplementedError


@register_controller("static")
class StaticPolicy(ControlPolicy):
    """The no-op baseline: observe every window, never actuate.

    This is the *static-parameter* arm of the adaptive-vs-static
    campaign: it pays the full controller sampling cost (so overhead is
    measured honestly) while leaving every protocol parameter at its
    configured value.
    """

    name = "static"

    def decide(
        self, signals: ControlSignals, rng: random.Random
    ) -> Optional[ControlDecision]:
        return None


@register_controller("hysteresis")
class HysteresisPolicy(ControlPolicy):
    """Rule-based two-state controller with bounded actuation and cooldowns.

    On the first *degraded* window (an open partition, forced-stale
    fallbacks, a crash, or availability below ``ENTER_AVAILABILITY``) it
    tightens: freshness windows shrink to ``TIGHTEN_SCALE`` of baseline
    (so stale copies are re-validated sooner and reconvergence after a
    heal is fast), relay eligibility is boosted by ``RELAY_BOOST`` (more
    relays -> polls keep finding an answerer), and the retry backoff
    base grows by ``BACKOFF_BOOST`` (fewer doomed retries while the
    network is down).  After ``HEALTHY_WINDOWS`` consecutive clean
    windows it relaxes every knob back to baseline in one step.
    """

    name = "hysteresis"

    def __init__(self) -> None:
        self._baseline: Dict[str, float] = {}
        self._tight = False
        self._healthy = 0
        self._next_allowed = float("-inf")

    # ------------------------------------------------------------------
    def prime(self, baseline: Mapping[str, float]) -> None:
        self._baseline = dict(baseline)

    @property
    def tight(self) -> bool:
        """``True`` while the tightened parameter set is in force."""
        return self._tight

    def _is_degraded(self, signals: ControlSignals) -> bool:
        return (
            signals.partitions_active > 0
            or signals.crashes > 0
            or signals.forced_stale > 0
            or signals.availability < ENTER_AVAILABILITY
        )

    def _tight_value(self, knob: str, base: float) -> float:
        if knob == "relay_boost":
            return base * RELAY_BOOST
        if knob == "backoff_factor":
            return base * BACKOFF_BOOST
        return base * TIGHTEN_SCALE

    def decide(
        self, signals: ControlSignals, rng: random.Random
    ) -> Optional[ControlDecision]:
        degraded = self._is_degraded(signals)
        if degraded:
            self._healthy = 0
        else:
            self._healthy += 1
        if signals.time < self._next_allowed or not self._baseline:
            return None
        if degraded and not self._tight:
            knobs = {
                knob: self._tight_value(knob, base)
                for knob, base in self._baseline.items()
            }
            # Update-dominated stress: pre-pushing every version to the
            # relays is wasted traffic while invalidations alone keep
            # them correct — flip the dissemination mode to pull.
            mode_all = (
                "pull"
                if signals.update_rate > signals.query_rate and signals.update_rate > 0
                else None
            )
            self._arm_cooldown(signals.time, rng)
            self._tight = True
            return ControlDecision(
                time=signals.time,
                policy=self.name,
                reason=self._reason(signals),
                knobs=knobs,
                mode_all=mode_all,
            )
        if not degraded and self._tight and self._healthy >= HEALTHY_WINDOWS:
            self._arm_cooldown(signals.time, rng)
            self._tight = False
            self._healthy = 0
            return ControlDecision(
                time=signals.time,
                policy=self.name,
                reason=f"relax after {HEALTHY_WINDOWS} healthy windows",
                knobs=dict(self._baseline),
                mode_all="hybrid",
            )
        return None

    def _arm_cooldown(self, now: float, rng: random.Random) -> None:
        jitter = 1.0 + COOLDOWN_JITTER * rng.random()
        self._next_allowed = now + COOLDOWN * jitter

    @staticmethod
    def _reason(signals: ControlSignals) -> str:
        if signals.partitions_active > 0:
            return f"tighten: {signals.partitions_active} open partition(s)"
        if signals.crashes > 0:
            return f"tighten: {signals.crashes} crash(es) in window"
        if signals.forced_stale > 0:
            return f"tighten: {signals.forced_stale} forced-stale fallback(s)"
        return f"tighten: availability {signals.availability:.3f}"
