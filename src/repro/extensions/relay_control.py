"""Relay-population control (the paper's future-work direction 2).

Section 6: "the number of relay peers is important to the performance of
RPCC.  In the current strategy, the number of relay peers cannot be
controlled."  Here the source host caps its relay table: an ``APPLY`` that
would exceed ``MAX_RELAYS`` is silently dropped, leaving the candidate to
retry at a later switching period (and succeed once churn opens a slot).
"""

from __future__ import annotations

from repro.consistency.messages import Apply
from repro.consistency.rpcc.protocol import RPCCAgent, RPCCStrategy
from repro.consistency.rpcc.source import SourceSide
from repro.peers.host import MobileHost

__all__ = ["ControlledRPCCStrategy", "ControlledRPCCAgent"]

#: Relay peers a source host admits per item.
MAX_RELAYS = 3


class _CappedSourceSide(SourceSide):
    """Source side that refuses promotions beyond the cap."""

    def handle_apply(self, message: Apply) -> None:
        if (
            message.sender not in self.relay_table
            and len(self.relay_table) >= MAX_RELAYS
        ):
            self.agent.context.metrics.bump("rpcc_apply_rejected_cap")
            return
        super().handle_apply(message)


class ControlledRPCCAgent(RPCCAgent):
    """RPCC agent whose source side enforces the relay cap."""

    def __init__(self, strategy: "ControlledRPCCStrategy", host: MobileHost) -> None:
        super().__init__(strategy, host)
        self.source = _CappedSourceSide(self, self.config)


class ControlledRPCCStrategy(RPCCStrategy):
    """RPCC with a bounded relay population per item."""

    name = "rpcc-controlled"

    def make_agent(self, host: MobileHost) -> ControlledRPCCAgent:
        return ControlledRPCCAgent(self, host)
