"""Selection-criterion ablation: random promotion instead of eq 4.2.8.

DESIGN.md asks whether the CAR/CS/CE criterion actually earns its keep.
This strategy replaces the coefficient test with a biased coin: any holder
that hears an ``INVALIDATION`` applies with probability ``PROMOTE_PROB``,
regardless of stability or energy.  Compared against stock RPCC it shows
how much staleness/availability degrades when unstable nodes get promoted.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.consistency.base import StrategyContext
from repro.consistency.messages import Apply, Invalidation
from repro.consistency.rpcc.config import RPCCConfig
from repro.consistency.rpcc.protocol import RPCCAgent, RPCCStrategy
from repro.consistency.rpcc.roles import Role
from repro.peers.host import MobileHost

__all__ = ["RandomSelectionRPCCStrategy"]

#: Chance that a holder hearing an ``INVALIDATION`` applies for the role.
PROMOTE_PROB = 0.4


class _RandomSelectionAgent(RPCCAgent):
    """Agent whose candidacy gate ignores the coefficients."""

    def __init__(self, strategy: "RandomSelectionRPCCStrategy", host: MobileHost) -> None:
        super().__init__(strategy, host)
        self._coin = random.Random(strategy.seed * 100_003 + host.node_id)

    def _handle_invalidation(self, message: Invalidation) -> None:
        item_id = message.item_id
        role = self.roles.role(item_id)
        if role is not Role.CACHE_NODE:
            super()._handle_invalidation(message)
            return
        if item_id in self.host.store and self._coin.random() < PROMOTE_PROB:
            self.roles.become_candidate(item_id)
            self.send(message.sender, Apply(sender=self.node_id, item_id=item_id))
            self.context.metrics.bump("rpcc_apply_sent")

    def on_period_closed(self) -> None:
        # No coefficient-driven demotion: only eviction resigns a role.
        for item_id in self.roles.tracked_items():
            if item_id not in self.host.store:
                self._resign(item_id)
            elif self.roles.is_candidate(item_id) and self.host.online:
                self.send(
                    self.context.catalog.source_of(item_id),
                    Apply(sender=self.node_id, item_id=item_id),
                )
                self.context.metrics.bump("rpcc_apply_retry")


class RandomSelectionRPCCStrategy(RPCCStrategy):
    """RPCC with eq 4.2.8 replaced by a random gate (ablation).

    ``seed`` seeds every host's coin, so each seed of a matrix promotes
    differently.
    """

    name = "rpcc-random-selection"

    def __init__(
        self,
        context: StrategyContext,
        config: Optional[RPCCConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(context, config)
        self.seed = int(seed)

    def make_agent(self, host: MobileHost) -> _RandomSelectionAgent:
        return _RandomSelectionAgent(self, host)
