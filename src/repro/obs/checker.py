"""Trace-driven consistency invariant checker.

Replays a trace (live events, or a JSONL file written by
:class:`repro.obs.sinks.JsonlSink`) and asserts the paper's per-level
consistency contracts (Section 3, eqs 3.2.1–3.2.3) against what each
node *provably knew*:

**strong** (eq 3.2.1)
    A validated strong read at node ``n`` must never return a version
    older than the newest invalidation *delivered to* ``n``: once an
    ``invalidation_received`` for version ``v`` landed at ``n`` more than
    ``slack`` seconds before a serve, serving ``v' < v`` is a violation.
    The knowledge-relative formulation is deliberate — an update the
    network has not yet told the node about cannot be held against it,
    which is exactly the paper's model where strong consistency is
    enforced *through* the invalidation/poll machinery rather than by a
    global oracle.

**delta** (eq 3.2.2)
    A validated Δ read may lag, but not beyond Δ: if the node learned of
    a newer version more than ``delta + slack`` seconds before the
    serve, the Δ contract is broken.  When the online controller actuates
    Δ mid-run (``controller_actuated`` events with ``knob == "ttp"``),
    the contract is re-evaluated at each actuation boundary: knowledge
    learned while an *older, longer* window could still legitimately be
    open keeps the old bound until those windows drain (a window opened
    just before the actuation at bound ``δ_old`` may serve until
    ``actuation_time + δ_old``), while a *raised* Δ takes effect
    immediately.  A controller that only ever lowers Δ therefore can
    never retroactively create violations.

**weak** (eq 3.2.3)
    A weak read returns "some previous correct value"; per (node, item)
    the versions served from the node's *own* copy must be monotone
    non-decreasing (a local copy never downgrades).

Two contracts apply to **every** read regardless of level:

* **validity** — a served version must exist: it can never exceed the
  ground-truth current version (fed by ``source_update`` events);
* **time order** — event timestamps must be non-decreasing (a malformed
  or spliced trace fails fast instead of producing nonsense verdicts).

Reads flagged ``fallback`` (push give-up, pull poll exhaustion, RPCC
forced-stale, offline self-serves) are *exempt* from the strong/Δ
contracts — the protocols deliberately serve them unvalidated and count
them — but still face the weak/validity checks.  ``slack`` (default 1 s)
absorbs in-flight answers: an acknowledgement already travelling when a
newer invalidation lands at the poller is not a protocol violation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs import events as trace_events
from repro.obs.events import event_from_dict

if TYPE_CHECKING:
    from repro.obs.events import (
        ControllerActuated,
        FaultNodeCrashed,
        InvalidationReceived,
        ReadServed,
        TraceEvent,
    )

__all__ = ["Violation", "CheckReport", "InvariantChecker"]

#: Tolerance for event times that json round-tripping might perturb.
_TIME_EPSILON = 1e-9


@dataclass
class Violation:
    """One broken invariant, anchored to the read (or event) that broke it."""

    invariant: str  # "strong" | "delta" | "weak-monotone" | "validity" | "time-order"
    time: float
    node: int
    item: int
    served_version: int
    detail: str

    def format(self) -> str:
        """One human-readable line."""
        return (
            f"[{self.invariant}] t={self.time:.3f} node={self.node} "
            f"item={self.item} served=v{self.served_version}: {self.detail}"
        )


@dataclass
class CheckReport:
    """Outcome of replaying one trace through the checker."""

    events: int = 0
    reads_checked: int = 0
    fallback_reads: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when every invariant held."""
        return not self.violations

    def by_invariant(self) -> Dict[str, int]:
        """Violation counts keyed by invariant name."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def format(self, max_violations: int = 20) -> str:
        """Multi-line summary suitable for CLI output."""
        lines = [
            f"trace events: {self.events}",
            f"reads checked: {self.reads_checked} "
            f"({self.fallback_reads} fallback-exempt)",
        ]
        if self.ok:
            lines.append("invariants: OK — no violations")
            return "\n".join(lines)
        lines.append(f"invariants: FAILED — {len(self.violations)} violation(s)")
        for name, count in sorted(self.by_invariant().items()):
            lines.append(f"  {name}: {count}")
        for violation in self.violations[:max_violations]:
            lines.append("  " + violation.format())
        if len(self.violations) > max_violations:
            lines.append(f"  ... {len(self.violations) - max_violations} more")
        return "\n".join(lines)


class InvariantChecker:
    """Streaming checker: feed events in order, then read the report.

    Parameters
    ----------
    delta:
        The Δ bound in seconds (for RPCC runs this is TTP, Section 4.4).
    slack:
        Grace window for answers already in flight when newer knowledge
        arrives; see the module docstring.

    Both must be finite and ``>= 0``: a NaN or infinite bound can never
    be exceeded, so the check it configures could never fail.
    """

    def __init__(self, delta: float = 240.0, slack: float = 1.0) -> None:
        self.delta = float(delta)
        self.slack = float(slack)
        for name, value in (("delta", self.delta), ("slack", self.slack)):
            if not 0.0 <= value < math.inf:  # NaN fails the chain too
                raise ConfigurationError(
                    f"checker {name} must be finite and >= 0, got {value!r}"
                )
        self.report = CheckReport()
        # item -> ground-truth current version (from source_update events)
        self._current: Dict[int, int] = {}
        # (node, item) -> parallel (versions, delivery times), both strictly
        # increasing: the node's delivered-invalidation knowledge.
        self._known: Dict[Tuple[int, int], Tuple[List[int], List[float]]] = {}
        # (node, item) -> last version served from the node's own copy
        self._last_local: Dict[Tuple[int, int], int] = {}
        self._last_time = float("-inf")
        # Δ actuation timeline: (effective_from, bound) pairs in time
        # order, seeded with the configured Δ from the dawn of time.
        # Grown by controller_actuated events with knob "ttp"/"delta".
        self._delta_schedule: List[Tuple[float, float]] = [(float("-inf"), self.delta)]

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, event: Union[TraceEvent, Dict]) -> None:
        """Process one event (typed, or its ``to_dict`` form)."""
        if isinstance(event, dict):
            event = event_from_dict(event)
        self.report.events += 1
        self._check_time_order(event)
        if isinstance(event, trace_events.ReadServed):
            self._on_read(event)
        elif isinstance(event, trace_events.InvalidationReceived):
            self._on_invalidation(event)
        elif isinstance(event, trace_events.SourceUpdate):
            current = self._current.get(event.item, 0)
            if event.version > current:
                self._current[event.item] = event.version
            # The source's own knowledge is trivially complete.
            self._learn(event.node, event.item, event.version, event.time)
        elif isinstance(event, trace_events.FaultNodeCrashed):
            self._on_crash(event)
        elif isinstance(event, trace_events.ControllerActuated):
            self._on_actuation(event)

    def feed_all(self, events: Iterable[Union[TraceEvent, Dict]]) -> "InvariantChecker":
        """Feed a whole trace; returns ``self`` for chaining."""
        for event in events:
            self.feed(event)
        return self

    def finish(self) -> CheckReport:
        """The accumulated report (the checker stays usable)."""
        return self.report

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _check_time_order(self, event: TraceEvent) -> None:
        if event.time < self._last_time - _TIME_EPSILON:
            self._violate(
                "time-order",
                event.time,
                getattr(event, "node", -1),
                getattr(event, "item", -1),
                getattr(event, "version", -1),
                f"timestamp went backwards ({self._last_time:.6f} -> "
                f"{event.time:.6f})",
            )
        self._last_time = max(self._last_time, event.time)

    def _on_invalidation(self, event: InvalidationReceived) -> None:
        self._learn(event.node, event.item, event.version, event.time)

    def _on_actuation(self, event: ControllerActuated) -> None:
        """Record a Δ change on the actuation timeline (other knobs are
        observability-only for the checker).

        A live controller only ever moves Δ to a finite positive value,
        so any other one is damaged input: an infinite bound would
        silence the Δ check from then on, so it is refused by name.
        """
        if event.knob not in ("ttp", "delta"):
            return
        bound = float(event.value)
        if not 0.0 < bound < math.inf:  # NaN fails the chain too
            raise ConfigurationError(
                f"controller_actuated at t={event.time!r} moves {event.knob} "
                f"to {event.value!r}: a Δ bound must be finite and > 0"
            )
        self._delta_schedule.append((event.time, bound))

    def _on_crash(self, event: FaultNodeCrashed) -> None:
        """A cache-wiped crash erases what the node can be held to.

        The copies are gone and so is whatever invalidation state was
        stored with them: the node after reboot is a blank cache peer,
        and any copy it later serves was re-fetched through the normal
        machinery, which the remaining contracts cover.  A retained
        crash keeps both the copies and the obligations — the node must
        still honour everything delivered to it before it went down.
        """
        if not event.wiped:
            return
        node = event.node
        for key in [k for k in self._known if k[0] == node]:
            del self._known[key]
        for key in [k for k in self._last_local if k[0] == node]:
            del self._last_local[key]

    def _learn(self, node: int, item: int, version: int, time: float) -> None:
        versions, times = self._known.setdefault((node, item), ([], []))
        if versions and version <= versions[-1]:
            return  # stale or duplicate delivery adds no knowledge
        versions.append(version)
        times.append(time)

    def _on_read(self, read: ReadServed) -> None:
        self.report.reads_checked += 1
        if read.fallback:
            self.report.fallback_reads += 1
        current = self._current.get(read.item, 0)
        if read.version > current:
            self._violate(
                "validity",
                read.time,
                read.node,
                read.item,
                read.version,
                f"served version exceeds ground truth v{current} "
                "(incomplete trace or corrupted versioning)",
            )
        if read.level == "weak" or not read.remote:
            self._check_weak_monotone(read)
        if read.fallback:
            return
        if read.level == "strong":
            self._check_floor(read, "strong", self.slack)
        elif read.level == "delta":
            # allowance=None: resolved per knowledge instant against the
            # Δ actuation timeline inside _check_floor.
            self._check_floor(read, "delta", None)

    def _check_weak_monotone(self, read: ReadServed) -> None:
        """Versions served from a node's own copy never go backwards."""
        if read.remote:
            return  # a remote holder's copy is a different version sequence
        key = (read.node, read.item)
        last = self._last_local.get(key)
        if last is not None and read.version < last and read.level == "weak":
            self._violate(
                "weak-monotone",
                read.time,
                read.node,
                read.item,
                read.version,
                f"older than previously served v{last} at the same node",
            )
        if last is None or read.version > last:
            self._last_local[key] = read.version

    def _check_floor(self, read: ReadServed, invariant: str, allowance) -> None:
        """Did the node *know* of a newer version ``allowance`` seconds ago?

        ``allowance=None`` selects the Δ contract: the bound is resolved
        against the actuation timeline for the instant the knowledge was
        delivered (plus ``slack``).
        """
        known = self._known.get((read.node, read.item))
        if known is None:
            return
        versions, times = known
        # First delivered version strictly newer than what was served:
        index = bisect.bisect_right(versions, read.version)
        if index >= len(versions):
            return  # nothing newer was ever delivered to this node
        knew_at = times[index]
        if allowance is None:
            allowance = self._delta_allowance(knew_at) + self.slack
        lag = read.time - knew_at
        if lag > allowance + _TIME_EPSILON:
            self._violate(
                invariant,
                read.time,
                read.node,
                read.item,
                read.version,
                f"node learned of v{versions[index]} at t={knew_at:.3f} "
                f"({lag:.3f}s before the serve; allowance {allowance:.3f}s)",
            )

    def _delta_allowance(self, knew_at: float) -> float:
        """The Δ bound applicable to knowledge delivered at ``knew_at``.

        A freshness window opened at ``t_w`` under bound ``δ_j`` may
        legitimately serve until ``t_w + δ_j``; knowledge delivered at
        ``knew_at`` can therefore lag by at most ``δ_j`` for *any*
        actuation interval ``[a_j, a_{j+1})`` whose windows could still
        be open at ``knew_at`` — i.e. ``a_j <= knew_at < a_{j+1} + δ_j``.
        The applicable bound is the maximum over those intervals: a
        lowered Δ takes over only once the pre-actuation windows have
        drained, a raised Δ applies immediately.  With no actuations this
        is exactly the configured Δ.
        """
        schedule = self._delta_schedule
        if len(schedule) == 1:
            return self.delta
        best = 0.0
        for j, (start, bound) in enumerate(schedule):
            if j + 1 < len(schedule):
                end = schedule[j + 1][0] + bound
            else:
                end = float("inf")
            if start <= knew_at < end and bound > best:
                best = bound
        return best

    def _violate(
        self,
        invariant: str,
        time: float,
        node: int,
        item: int,
        served_version: int,
        detail: str,
    ) -> None:
        self.report.violations.append(
            Violation(invariant, time, node, item, served_version, detail)
        )

