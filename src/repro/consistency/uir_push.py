"""Push with Updated Invalidation Reports (UIR), after Cao (MOBICOM'00).

The paper's related-work section cites Cao's strategy that "can reduce
the query latency by inserting several updated invalidation reports (UIR)
between two successive IRs".  This variant reproduces that mechanism on
top of the simple push baseline: between full invalidation reports the
source floods ``UIR_COUNT`` lightweight UIRs, so a waiting query can
validate after at most ``TTN / (UIR_COUNT + 1)`` instead of a full TTN.

The trade-off this makes measurable: latency divides by roughly
``UIR_COUNT + 1`` while flood traffic multiplies by the same factor
(in the original the UIR is much smaller than a history-carrying IR; with
single-item reports both are control-sized, so the traffic cost shows at
full strength — ``tests/test_strategy_variants.py`` holds both shapes).
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict

from repro.consistency.messages import CONTROL_SIZE, PushInvalidation
from repro.consistency.push import PushAgent, PushStrategy
from repro.peers.host import MobileHost
from repro.sim.timers import PeriodicTimer, staggered_start

__all__ = ["UIRReport", "UIRPushStrategy", "UIRPushAgent"]

#: UIR floods inserted between two successive full reports.
UIR_COUNT = 4


@dataclasses.dataclass(frozen=True, slots=True)
class UIRReport(PushInvalidation):
    """A between-IR updated invalidation report (subtype for accounting)."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE


class UIRPushStrategy(PushStrategy):
    """Simple push plus ``UIR_COUNT`` UIRs per invalidation interval."""

    name = "push-uir"

    @property
    def sub_interval(self) -> float:
        """Gap between consecutive reports (IR or UIR)."""
        return self.ttn / (UIR_COUNT + 1)

    def apply_control(self, decision) -> Dict[str, float]:
        applied = super().apply_control(decision)
        if "ttn" in applied:
            # The armed timers tick sub-intervals, not whole TTNs.
            for timer in self._timers:
                timer.interval = self.sub_interval
        return applied

    def make_agent(self, host: MobileHost) -> "UIRPushAgent":
        return UIRPushAgent(self, host)

    def start(self) -> None:
        """Arm one staggered sub-interval timer per source host."""
        for agent in self.agents.values():
            host = agent.host
            if host.source_item is None:
                continue
            timer = PeriodicTimer(
                self.context.sim,
                self.sub_interval,
                agent.broadcast_sub_report,  # type: ignore[attr-defined]
                start_offset=staggered_start(self.sub_interval, host.node_id),
            )
            timer.start()
            self._timers.append(timer)


class UIRPushAgent(PushAgent):
    """Push agent whose source side alternates full IRs and UIRs."""

    def __init__(self, strategy: UIRPushStrategy, host: MobileHost) -> None:
        super().__init__(strategy, host)
        self._sub_tick = 0

    def broadcast_sub_report(self) -> None:
        """Every ``UIR_COUNT + 1``-th tick is a full IR, the rest are UIRs."""
        master = self.host.source_item
        if master is None or not self.host.online:
            return
        self._sub_tick += 1
        if self._sub_tick % (UIR_COUNT + 1) == 0:
            report: PushInvalidation = PushInvalidation(
                sender=self.node_id, item_id=master.item_id, version=master.version
            )
        else:
            report = UIRReport(
                sender=self.node_id, item_id=master.item_id, version=master.version
            )
        self.flood(report, self.push.ttl)
