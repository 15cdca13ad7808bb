"""One-stop metrics bundle handed to the network and the protocols."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.metrics.counters import MessageCounters
from repro.metrics.latency import LatencyRecorder
from repro.metrics.staleness import StalenessTracker
from repro.net.message import Message
from repro.obs import events

__all__ = ["MetricsCollector", "MetricsSummary"]


@dataclass(frozen=True)
class MetricsSummary:
    """Flat snapshot of a finished run, ready for table formatting."""

    transmissions: int
    messages: int
    bytes_on_air: int
    queries_issued: int
    queries_answered: int
    queries_unanswered: int
    mean_latency: float
    mean_hit_latency: float
    p95_latency: float
    local_answer_ratio: float
    stale_ratio: float
    violation_ratio: float
    mean_staleness_age: float
    transmissions_by_type: Dict[str, int]
    counters: Dict[str, int]
    # Degradation numbers of fault-injected runs (availability, stale
    # serves during partition, time-to-reconverge); empty without faults.
    fault_stats: Dict[str, float] = field(default_factory=dict)


class MetricsCollector:
    """Aggregates traffic, latency and staleness for one simulation run.

    Also exposes free-form named counters (``bump``) so protocols can count
    protocol-specific events (relay promotions, poll fallbacks, ...).
    """

    def __init__(self, delta: float = 240.0) -> None:
        self.traffic = MessageCounters()
        self.latency = LatencyRecorder()
        self.staleness = StalenessTracker(delta=delta)
        self._counters: Dict[str, int] = {}
        self._trace = None
        self._clock: Optional[Callable[[], float]] = None
        # Attached by the runner only for fault-injected runs; None keeps
        # the read path free of degradation accounting.
        self.degradation = None

    # TrafficObserver protocol -----------------------------------------
    def record_transmissions(self, message: Message, transmissions: int) -> None:
        """Forward network-layer accounting into the traffic counters."""
        self.traffic.record_transmissions(message, transmissions)

    def attach_trace(self, trace, clock: Callable[[], float]) -> None:
        """Emit bookkeeping events (currently ``metrics_reset``) to ``trace``.

        ``clock`` supplies the simulation time, since the collector itself
        is clock-free.
        """
        self._trace = trace
        self._clock = clock

    def reset(self) -> None:
        """Forget everything measured so far (end-of-warm-up hook).

        The staleness tracker's ground-truth version history is preserved
        — only its read audits are dropped — so post-warm-up reads are
        still judged against the true update timeline.
        """
        self.traffic = MessageCounters()
        self.latency = LatencyRecorder()
        self.staleness._audits.clear()
        self._counters = {}
        if self.degradation is not None:
            self.degradation.reset()
        if self._trace is not None and self._trace.enabled and self._clock is not None:
            self._trace.emit(events.MetricsReset(time=self._clock()))

    # Free-form counters -------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the named counter by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Read a named counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    @property
    def counters(self) -> Dict[str, int]:
        """Copy of all named counters."""
        return dict(self._counters)

    # Snapshot -----------------------------------------------------------
    def summary(self) -> MetricsSummary:
        """Freeze the current state into a :class:`MetricsSummary`."""
        fault_stats: Dict[str, float] = {}
        if self.degradation is not None:
            fault_stats = self.degradation.snapshot()
            issued = self.latency.issued
            fault_stats["availability"] = (
                self.latency.answered / issued if issued else 1.0
            )
        return MetricsSummary(
            transmissions=self.traffic.transmissions(),
            messages=self.traffic.messages(),
            bytes_on_air=self.traffic.total_bytes(),
            queries_issued=self.latency.issued,
            queries_answered=self.latency.answered,
            queries_unanswered=self.latency.unanswered,
            mean_latency=self.latency.mean_latency(),
            mean_hit_latency=self.latency.mean_hit_latency(),
            p95_latency=self.latency.percentile_latency(0.95),
            local_answer_ratio=self.latency.local_answer_ratio(),
            stale_ratio=self.staleness.stale_ratio(),
            violation_ratio=self.staleness.violation_ratio(),
            mean_staleness_age=self.staleness.mean_staleness_age(),
            transmissions_by_type={
                name: count.transmissions
                for name, count in self.traffic.by_type().items()
            },
            counters=dict(self._counters),
            fault_stats=fault_stats,
        )
