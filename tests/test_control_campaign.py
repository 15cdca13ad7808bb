"""Regression gate over the committed adaptive-vs-static campaign artifact.

``benchmarks/CONTROL_campaign.json`` is the committed record of the
80-run controller comparison (4 fault plans x 5 strategy specs x
2 seeds x {static, hysteresis}).  This module asserts the
graceful-degradation guarantees *from that artifact* — so a regression
in the numbers cannot land without visibly re-taking the file through
``python tools/adopt.py --adopt control_campaign`` — and re-runs one
live cell bit-exactly so the artifact cannot drift away from the code
it claims to describe.
"""

from __future__ import annotations

import pytest

from benchmarks.control_campaign import (
    CAMPAIGN,
    PLANS,
    POLICIES,
    SEEDS,
    SPECS,
    dominance_failures,
    plan_name,
    records,
)
from tests.expectations import committed

pytestmark = pytest.mark.expectation


@pytest.fixture(scope="module")
def campaign():
    return committed("control_campaign")


class TestArtifactShape:
    def test_full_matrix_present(self, campaign):
        assert campaign["matrix"] == {
            "plans": list(PLANS),
            "specs": list(SPECS),
            "seeds": list(SEEDS),
            "policies": list(POLICIES),
        }
        cells = campaign["cells"]
        assert len(cells) == len(PLANS) * len(SPECS) * len(SEEDS) * len(POLICIES)
        keys = {
            (c["plan"], c["spec"], c["seed"], c["policy"]) for c in cells
        }
        assert len(keys) == len(cells)  # no duplicated cells

    def test_aggregates_cover_both_policies(self, campaign):
        for policy in POLICIES:
            agg = campaign["aggregates"][policy]
            assert agg["cells"] == len(PLANS) * len(SPECS) * len(SEEDS)


class TestGracefulDegradationGuarantees:
    def test_every_cell_is_violation_free(self, campaign):
        dirty = [
            (c["plan"], c["spec"], c["seed"], c["policy"])
            for c in campaign["cells"]
            if c["violations"]
        ]
        assert dirty == []

    def test_adaptive_dominates_or_matches_static(self, campaign):
        assert dominance_failures(campaign["aggregates"]) == []

    def test_static_arm_never_actuates(self, campaign):
        assert campaign["aggregates"]["static"]["decisions"] == 0

    def test_adaptive_arm_actuates_in_every_plan(self, campaign):
        # The comparison is only meaningful if the controller actually
        # reacts to each fault family, not just the partition plan.
        for plan in PLANS:
            decisions = sum(
                c["decisions"]
                for c in campaign["cells"]
                if c["plan"] == plan and c["policy"] == "hysteresis"
            )
            assert decisions > 0, f"no actuation under plan {plan!r}"


class TestArtifactMatchesCode:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_recorded_cell_reproduces_bit_exactly(self, campaign, policy):
        """One live rerun per policy must equal the committed record."""
        coordinates = ("partition", "rpcc-sc", 7, policy)
        want = next(
            c
            for c in campaign["cells"]
            if (c["plan"], c["spec"], c["seed"], c["policy"]) == coordinates
        )
        cell = next(
            c
            for c in CAMPAIGN.cells()
            if (plan_name(c), c.spec, c.values["seed"], c.values["controller"]) == coordinates
        )
        assert records([cell]) == [want]
