"""Unit tests for the RPCC configuration and Fig 5 role state machine."""

import pytest

from repro.consistency.rpcc.config import RPCCConfig
from repro.consistency.rpcc.roles import Role, RoleTable
from repro.errors import ConfigurationError


class TestRPCCConfig:
    def test_table1_defaults(self):
        config = RPCCConfig()
        assert config.ttl_invalidation == 3
        assert config.ttn == 120.0
        assert config.ttr == 90.0
        assert config.ttp == 240.0

    def test_poll_ttl_is_invalidation_ttl(self):
        assert RPCCConfig(ttl_invalidation=5).poll_ttl == 5

    def test_grace_timeout_computed_from_dead_window(self):
        config = RPCCConfig(ttn=120.0, ttr=90.0)
        assert config.grace_timeout == pytest.approx(35.0)

    def test_grace_timeout_floor(self):
        config = RPCCConfig(ttn=100.0, ttr=100.0)
        assert config.grace_timeout == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ttl_invalidation": 0},
            {"ttn": 0.0},
            {"ttr": -1.0},
            {"ttp": 0.0},
            {"poll_timeout": 0.0},
            {"broadcast_ttl": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            RPCCConfig(**kwargs)

    @pytest.mark.parametrize(
        "name",
        ["ttn", "ttr", "ttp", "poll_timeout"],
    )
    def test_nan_timer_rejected(self, name):
        with pytest.raises(ConfigurationError, match=name):
            RPCCConfig(**{name: float("nan")})


class TestRoleTable:
    def test_default_role_is_cache_node(self):
        assert RoleTable().role(1) is Role.CACHE_NODE

    def test_candidate_transition(self):
        table = RoleTable()
        table.become_candidate(1)
        assert table.is_candidate(1)
        assert not table.is_relay(1)

    def test_promotion(self):
        table = RoleTable()
        table.become_candidate(1)
        table.promote(1)
        assert table.is_relay(1)
        assert table.promotions == 1

    def test_promote_idempotent_counting(self):
        table = RoleTable()
        table.promote(1)
        table.promote(1)
        assert table.promotions == 1

    def test_demotion(self):
        table = RoleTable()
        table.promote(1)
        table.demote(1)
        assert table.role(1) is Role.CACHE_NODE
        assert table.demotions == 1

    def test_demoting_candidate_not_counted_as_relay_demotion(self):
        table = RoleTable()
        table.become_candidate(1)
        table.demote(1)
        assert table.demotions == 0

    def test_item_listings(self):
        table = RoleTable()
        table.promote(1)
        table.promote(2)
        table.become_candidate(3)
        assert sorted(table.relay_items()) == [1, 2]
        assert table.candidate_items() == [3]
        assert sorted(table.tracked_items()) == [1, 2, 3]
        assert table.relay_count == 2

    def test_roles_independent_per_item(self):
        table = RoleTable()
        table.promote(1)
        assert table.role(2) is Role.CACHE_NODE
