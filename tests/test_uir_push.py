"""Tests for the UIR push variant (Cao'00-style reports between IRs)."""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.push import PushStrategy
from repro.consistency.uir_push import UIR_COUNT, UIRPushStrategy, UIRReport

from tests.conftest import line_positions, make_world


def uir_world(ttn=120.0, count=4):
    return make_world(
        line_positions(count),
        lambda ctx: UIRPushStrategy(ctx, ttn=ttn, ttl=8),
    )


class TestUIRPush:
    def test_sub_interval(self):
        world = uir_world(ttn=120.0)
        assert UIR_COUNT == 4
        assert world.strategy.sub_interval == pytest.approx(24.0)

    def test_reports_alternate_uir_and_ir(self):
        world = uir_world(ttn=120.0, count=2)
        world.strategy.start()
        world.run(250.0)
        uirs = world.metrics.traffic.messages("UIRReport")
        full = world.metrics.traffic.messages("PushInvalidation")
        # Per source over two TTN cycles: 8 UIRs and 2 full IRs.
        assert uirs > full > 0
        assert uirs == pytest.approx(4 * full, abs=2 * 4)

    def test_latency_shrinks_with_uirs(self):
        world = uir_world(ttn=120.0)
        world.strategy.start()
        world.give_copy(0, 1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(40.0)
        # Answered by the first sub-report (<= 24 s) instead of a full TTN.
        assert record.answered
        assert record.latency <= 25.0

    def test_uir_validates_stale_copy(self):
        world = uir_world(ttn=120.0)
        world.strategy.start()
        world.give_copy(0, 1, version=0)
        world.update_item(1)
        record = world.agent(0).local_query(1, ConsistencyLevel.STRONG)
        world.run(60.0)
        assert record.answered
        assert record.served_version == 1

    def test_uir_is_push_invalidation_subtype(self):
        report = UIRReport(sender=1, item_id=2, version=3)
        from repro.consistency.messages import PushInvalidation

        assert isinstance(report, PushInvalidation)
        assert report.type_name == "UIRReport"

    def test_traffic_multiplies_by_reports_per_ttn(self):
        """``UIR_COUNT + 1`` reports per TTN where plain push floods one."""
        plain = make_world(
            line_positions(2), lambda ctx: PushStrategy(ctx, ttn=120.0, ttl=8)
        )
        plain.strategy.start()
        plain.run(500.0)
        uir = uir_world(ttn=120.0, count=2)
        uir.strategy.start()
        uir.run(500.0)
        plain_tx = plain.metrics.traffic.transmissions("PushInvalidation")
        uir_tx = uir.metrics.traffic.transmissions(
            "PushInvalidation", "UIRReport"
        )
        assert uir_tx == pytest.approx((UIR_COUNT + 1) * plain_tx, rel=0.25)

    def test_actuated_ttn_rearms_at_the_sub_interval(self):
        """A controller's ``ttn`` knob moves the report timers to the new
        *sub*-interval (``push-uir`` is reachable under ``--controller``)."""
        from repro.control.policies import ControlDecision

        world = uir_world(ttn=120.0)
        world.strategy.start()
        applied = world.strategy.apply_control(
            ControlDecision(time=0.0, policy="test", reason="test", knobs={"ttn": 60.0})
        )
        assert applied == {"ttn": 60.0}
        assert world.strategy.sub_interval == 12.0
        assert world.strategy._clock.interval == 12.0
