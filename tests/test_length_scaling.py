"""Lengths carry no hidden unit: scaling every length field scales nothing else.

Multiplying every length of a configuration (terrain, radio range,
subnet cell, speeds) by a power of two is exact in IEEE floats, so a run
whose code holds no absolute length of its own must reproduce the
unscaled ``MetricsSummary`` bit for bit.  A metre constant hidden in a
strategy, the mobility models or the topology breaks the equality.  The
same holds under one plan of every ``examples/faults`` fault (loss
bursts, jitter, crashes, a spatial partition, relay kills), whose
``fault_stats`` must match too; one spec per strategy family keeps that
half to a few seconds.
"""

import dataclasses
import functools
import pathlib

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.faults.plan import FaultPlan
from repro.scenarios.registry import strategy_specs

LENGTH_FIELDS = (
    "terrain_width", "terrain_height", "radio_range",
    "subnet_cell", "speed_min", "speed_max",
)
BASE = SimulationConfig(sim_time=300.0, warmup=60.0, seed=21)
PLANS = sorted((pathlib.Path(__file__).resolve().parent.parent / "examples/faults").glob("*.json"))
EVERY_FAULT = FaultPlan(
    faults=tuple(fault for path in PLANS for fault in FaultPlan.load(path).faults),
    name="every-example-fault",
)


@functools.lru_cache(maxsize=None)
def run(spec, factor=1.0, faulted=False):
    config = dataclasses.replace(
        BASE,
        faults=EVERY_FAULT if faulted else None,
        **{name: getattr(BASE, name) * factor for name in LENGTH_FIELDS},
    )
    result = build_simulation(config, spec).run()
    return result.summary


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("spec", list(strategy_specs()))
def test_scaled_lengths_give_the_same_summary(spec, factor):
    assert run(spec, factor) == run(spec)


def test_every_example_fault_is_in_the_plan():
    assert len(PLANS) == 4 and len(EVERY_FAULT.faults) == 8


#: One spec per registered strategy (its last level, ``-hy``, where it has levels).
ONE_PER_FAMILY = sorted({entry: spec for spec, (entry, _) in strategy_specs().items()}.values())


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("spec", ONE_PER_FAMILY)
def test_scaled_lengths_give_the_same_summary_under_faults(spec, factor):
    scaled = run(spec, factor, faulted=True)
    assert scaled == run(spec, faulted=True)
    assert scaled.fault_stats["partition_seconds"] == 60.0  # the plan ran
