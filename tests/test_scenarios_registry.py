"""Registry and scenario-spec behaviour: discovery, errors, expansion.

The listing tests are deliberate *snapshots*: adding (or losing) a
registered scenario, policy or strategy must show up as a diff here, not
silently widen or shrink the sweep surface.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import PLACEMENT_SCENARIOS, STRATEGY_SPECS, build_simulation
from repro.experiments.sweep import Sweep
from repro.scenarios.registry import (
    LEVEL_SUFFIXES,
    POLICIES,
    SCENARIOS,
    STRATEGIES,
    Registry,
    parse_spec,
    register_scenario,
    strategy_specs,
)
from repro.scenarios.spec import ScenarioSpec


class TestRegistrySnapshots:
    """The discovery surface, pinned exactly."""

    def test_policy_listing(self):
        assert POLICIES.names() == [
            "fifo", "lfu", "lru", "lru-k", "size-utility", "ttl-value",
        ]

    def test_scenario_listing(self):
        assert SCENARIOS.names() == [
            "campus-partition", "flash-crowd", "highway-strip",
            "multi-source", "trace-replay", "urban-grid",
        ]

    def test_strategy_listing(self):
        assert STRATEGIES.names() == [
            "pull", "push", "push-uir",
            "rpcc", "rpcc-controlled", "rpcc-random-selection",
        ]

    def test_strategy_spec_listing(self, capsys):
        """The level suffix rule, and ``repro list`` printing exactly that."""
        levelled = ("rpcc", "rpcc-controlled", "rpcc-random-selection")
        specs = ["pull", "push", "push-uir"] + [
            f"{name}-{level}" for name in levelled for level in LEVEL_SUFFIXES
        ]
        assert list(strategy_specs()) == specs
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split("strategy specs:\n")[1].split()
        assert listed == specs

    def test_the_paper_columns_are_specs(self):
        """``STRATEGY_SPECS`` is a sweep of the catalogue, not a second one."""
        assert {parse_spec(spec)[1] for spec in STRATEGY_SPECS} == {
            None, *LEVEL_SUFFIXES
        }

    def test_every_scenario_has_a_description(self):
        for name in SCENARIOS:
            assert SCENARIOS.get(name).description, name

    def test_len_and_contains(self):
        assert len(SCENARIOS) == 6
        assert "urban-grid" in SCENARIOS
        assert "URBAN-GRID" in SCENARIOS  # case-insensitive lookup
        assert "atlantis" not in SCENARIOS
        assert 42 not in SCENARIOS


#: Aliases that used to run under ``build_simulation`` alone, a level on a
#: strategy without levels, a levelled strategy without one, stray case.
BAD_SPECS = (
    "rpcc", "rpcc-", "rpcc-xx", "rpcc-strong", "rpcc-delta", "rpcc-weak",
    "push-dc", "push-uir-sc", "rpcc-controlled", "RPCC-SC", "gossip",
)


@pytest.mark.parametrize("spec", BAD_SPECS)
@pytest.mark.parametrize("surface", ("build_simulation", "sweep", "build_parser"))
def test_one_spelling_per_spec(surface, spec, capsys):
    """Every surface asks ``parse_spec``: same rejections, same listing."""
    if surface == "build_parser":
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", spec])
        message = capsys.readouterr().err
    else:
        with pytest.raises(ConfigurationError) as caught:
            if surface == "build_simulation":
                build_simulation(SimulationConfig(), spec)
            else:
                Sweep(SimulationConfig(), {"scenario": ("urban-grid",), "spec": (spec,)}).cells()
        message = str(caught.value)
    assert repr(spec) in message
    assert all(valid in message for valid in strategy_specs())


class TestRegistryBehaviour:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="urban-grid"):
            SCENARIOS.get("no-such-scenario")

    def test_duplicate_name_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.register("a", 2)

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            register_scenario(ScenarioSpec(name="urban-grid"))

    def test_blank_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ConfigurationError):
            registry.register("   ", 1)
        with pytest.raises(ConfigurationError):
            registry.register(None, 1)

    def test_non_string_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            POLICIES.get(3)

    def test_decorator_form(self):
        registry = Registry("thing")

        @registry.register("dec")
        def entry():
            return "hi"

        assert registry.get("dec") is entry
        assert registry.items() == [("dec", entry)]

    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12
            ).filter(lambda s: s.strip()),
            st.integers(),
            min_size=1,
            max_size=8,
        )
    )
    def test_register_then_get_round_trips(self, entries):
        registry = Registry("thing")
        for name, value in entries.items():
            registry.register(name, value)
        for name, value in entries.items():
            assert registry.get(name) == value
            assert registry.get(name.upper()) == value
        assert registry.names() == sorted(n.lower() for n in entries)


class TestScenarioSpec:
    def test_configure_applies_overrides(self):
        spec = ScenarioSpec(name="t", overrides={"n_peers": 12, "cache_num": 3})
        config = spec.configure(SimulationConfig())
        assert (config.n_peers, config.cache_num) == (12, 3)

    def test_configure_rejects_unknown_field(self):
        spec = ScenarioSpec(name="t", overrides={"n_prs": 12})
        with pytest.raises(ConfigurationError, match="n_prs"):
            spec.configure(SimulationConfig())

    def test_base_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="t", base="sideways")
        for base in PLACEMENT_SCENARIOS:
            assert ScenarioSpec(name="t", base=base).base == base

    def test_expand_returns_placement(self):
        spec = SCENARIOS.get("multi-source")
        config, placement = spec.expand(SimulationConfig())
        assert placement == "hot_set"
        assert config.hot_set_size == 4
