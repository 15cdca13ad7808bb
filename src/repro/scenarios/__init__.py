"""Declarative scenarios: registries, presets, and experiment matrices.

The public surface of the subsystem docs/SCENARIOS.md describes:

* :mod:`repro.scenarios.registry` — name-keyed registries for
  consistency strategies, cache replacement policies and scenario
  presets, with decorator registration and loud unknown/duplicate
  errors;
* :mod:`repro.scenarios.spec` — the serializable
  :class:`ScenarioSpec` that expands to a ``SimulationConfig`` plus a
  placement scenario and optional fault plan;
* :mod:`repro.scenarios.catalog` — the built-in presets (urban grid,
  highway strip, trace replay, campus partition, flash crowd,
  multi-source hot set);
* :mod:`repro.scenarios.matrix` — TOML/JSON experiment matrices
  expanded into campaign tasks (``repro matrix FILE``).
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
    "BASE_SCENARIOS": "repro.scenarios.spec",
    "ScenarioSpec": "repro.scenarios.spec",
    "MatrixPoint": "repro.scenarios.matrix",
    "MatrixSpec": "repro.scenarios.matrix",
    "aggregate_matrix": "repro.scenarios.matrix",
    "expand_matrix": "repro.scenarios.matrix",
    "load_matrix": "repro.scenarios.matrix",
    "matrix_csv": "repro.scenarios.matrix",
}

__all__ = [
    "BASE_SCENARIOS",
    "MatrixPoint",
    "MatrixSpec",
    "POLICIES",
    "Registry",
    "SCENARIOS",
    "STRATEGIES",
    "ScenarioSpec",
    "aggregate_matrix",
    "expand_matrix",
    "load_matrix",
    "matrix_csv",
    "register_policy",
    "register_scenario",
    "register_strategy",
]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
