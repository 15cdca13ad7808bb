"""Declarative scenarios: registries, presets, and experiment matrices.

The public surface of the subsystem docs/SCENARIOS.md describes:

* :mod:`repro.scenarios.registry` — name-keyed registries for
  consistency strategies, cache replacement policies and scenario
  presets, with decorator registration and loud unknown/duplicate
  errors;
* :mod:`repro.scenarios.spec` — the serializable
  :class:`ScenarioSpec` that expands to a ``SimulationConfig`` plus a
  placement scenario (one of the runner's ``PLACEMENT_SCENARIOS``) and
  optional fault plan;
* :mod:`repro.scenarios.catalog` — the built-in presets (urban grid,
  highway strip, trace replay, campus partition, flash crowd,
  multi-source hot set);
* :mod:`repro.scenarios.matrix` — TOML/JSON experiment matrices read
  into a :class:`~repro.experiments.sweep.Sweep` (``repro matrix FILE``)
  and the CSV of their aggregate.
"""

from repro.scenarios.registry import (
    POLICIES,
    Registry,
    SCENARIOS,
    STRATEGIES,
    register_policy,
    register_scenario,
    register_strategy,
)
from repro import _lazy_exports

# The registries are what every run consults; specs and matrices (and the
# fault plans a spec may carry) load when a campaign first names them.
_EXPORTS = {
    "ScenarioSpec": "repro.scenarios.spec",
    "load_matrix": "repro.scenarios.matrix",
    "matrix_csv": "repro.scenarios.matrix",
}

__all__ = [
    "POLICIES",
    "Registry",
    "SCENARIOS",
    "STRATEGIES",
    "ScenarioSpec",
    "load_matrix",
    "matrix_csv",
    "register_policy",
    "register_scenario",
    "register_strategy",
]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
