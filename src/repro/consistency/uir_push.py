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

from typing import ClassVar

from repro.consistency.messages import CONTROL_SIZE, PushInvalidation
from repro.consistency.push import PushAgent, PushStrategy
from repro.net.message import message_class
from repro.peers.host import MobileHost

__all__ = ["UIRReport", "UIRPushStrategy", "UIRPushAgent"]

#: UIR floods inserted between two successive full reports.
UIR_COUNT = 4


@message_class
class UIRReport(PushInvalidation):
    """A between-IR updated invalidation report (subtype for accounting)."""

    DEFAULT_SIZE: ClassVar[int] = CONTROL_SIZE


class UIRPushStrategy(PushStrategy):
    """Simple push plus ``UIR_COUNT`` UIRs per invalidation interval."""

    name = "push-uir"

    #: Each tick is a full IR or a UIR (``UIRPushAgent.broadcast_sub_report``).
    REPORT = "broadcast_sub_report"

    @property
    def sub_interval(self) -> float:
        """Gap between consecutive reports (IR or UIR)."""
        return self.ttn / (UIR_COUNT + 1)

    # The clock ticks sub-intervals, not whole TTNs, an actuated ``ttn`` too.
    report_interval = sub_interval

    def make_agent(self, host: MobileHost) -> "UIRPushAgent":
        return UIRPushAgent(self, host)


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
