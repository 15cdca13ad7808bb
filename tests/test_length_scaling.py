"""Lengths carry no hidden unit: scaling every length field scales nothing else.

Multiplying every length of a configuration (terrain, radio range,
subnet cell, speeds) by a power of two is exact in IEEE floats, so a run
whose code holds no absolute length of its own must reproduce the
unscaled ``MetricsSummary`` bit for bit.  A metre constant hidden in a
strategy, the mobility models or the topology breaks the equality.
"""

import dataclasses
import functools

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.scenarios.registry import strategy_specs

LENGTH_FIELDS = (
    "terrain_width", "terrain_height", "radio_range",
    "subnet_cell", "speed_min", "speed_max",
)
BASE = SimulationConfig(sim_time=300.0, warmup=60.0, seed=21)


@functools.lru_cache(maxsize=None)
def summary(spec, factor=1.0):
    config = dataclasses.replace(
        BASE, **{name: getattr(BASE, name) * factor for name in LENGTH_FIELDS}
    )
    return build_simulation(config, spec).run().summary


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("spec", list(strategy_specs()))
def test_scaled_lengths_give_the_same_summary(spec, factor):
    assert summary(spec, factor) == summary(spec)
