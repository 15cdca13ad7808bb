"""Golden conformance matrix for the scenario catalog.

Every preset of :mod:`repro.scenarios.catalog` x {push, pull, rpcc-sc}
x two seeds runs short and traced, is replayed through the invariant
checker (no violations allowed), and is reduced to the same digest shape
as ``tests/test_golden_e2e.py``.  Digests live in
``tests/golden/scenarios.json``; any drift in a preset's expansion — a
changed override, a different fault plan, a reshuffled RNG stream — is
caught here before it can silently invalidate a published sweep.

:func:`scenarios` computes the file.  After an intentional behaviour
change, ``python tools/adopt.py scenarios`` shows what moved and
``python tools/adopt.py --adopt scenarios`` re-takes it.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.obs import InvariantChecker, ListSink, TraceBus
from repro.scenarios.registry import SCENARIOS
from tests.expectations import committed
from tests.test_golden_e2e import _digest

#: The conformance strategies: both baselines plus RPCC's strong level.
SPECS = ("push", "pull", "rpcc-sc")
SEEDS = (7, 11)

#: Golden cells run short; presets deliberately leave sim_time/warmup/seed
#: to the caller.  The warmup covers the relay bootstrap, and the 120 s
#: window straddles every preset's scripted faults and popularity shift.
BASE = dict(sim_time=120.0, warmup=60.0)


def _matrix():
    return [
        (scenario, spec, seed)
        for scenario in SCENARIOS.names()
        for spec in SPECS
        for seed in SEEDS
    ]


def _run_cell(scenario: str, spec: str, seed: int):
    preset = SCENARIOS.get(scenario)
    config, placement = preset.expand(SimulationConfig(seed=seed, **BASE))
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(config, spec, placement, trace=bus).run()
    bus.close()
    return result, sink.events


def scenarios() -> dict:
    """The content of ``tests/golden/scenarios.json``."""
    return {
        f"{scenario}-{spec}-seed{seed}": _digest(*_run_cell(scenario, spec, seed))
        for scenario, spec, seed in _matrix()
    }


@pytest.mark.expectation
@pytest.mark.parametrize(
    "scenario,spec,seed",
    _matrix(),
    ids=[f"{sc}-{sp}-s{sd}" for sc, sp, sd in _matrix()],
)
def test_golden_scenario_digest(scenario, spec, seed):
    result, events = _run_cell(scenario, spec, seed)
    digest = _digest(result, events)

    # Conformance gate: every catalog cell must replay violation-free
    # through the invariant checker, and not vacuously so.
    report = InvariantChecker(delta=result.config.ttp).feed_all(events).finish()
    assert report.ok, f"{scenario}/{spec} seed={seed}:\n{report.format()}"
    assert report.reads_checked > 0

    key = f"{scenario}-{spec}-seed{seed}"
    assert digest == committed("scenarios").get(key), (
        f"behaviour drift in {key}: digest no longer matches "
        f"tests/golden/scenarios.json (python tools/adopt.py shows what moved)"
    )


def test_scenario_expansion_is_pure():
    """Expanding a preset twice yields equal configs (no hidden state)."""
    base = SimulationConfig(seed=3, **BASE)
    for name in SCENARIOS.names():
        preset = SCENARIOS.get(name)
        first, first_placement = preset.expand(base)
        second, second_placement = preset.expand(base)
        assert (first, first_placement) == (second, second_placement), name


@pytest.mark.expectation
def test_golden_file_covers_the_whole_matrix():
    expected = {f"{sc}-{sp}-seed{sd}" for sc, sp, sd in _matrix()}
    assert set(committed("scenarios")) == expected
