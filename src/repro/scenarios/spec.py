"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the serializable description of one named
world: a *base* placement scenario (one of the runner's
``PLACEMENT_SCENARIOS``), a set of :class:`~repro.experiments.config.SimulationConfig`
field overrides, and an optional deterministic
:class:`~repro.faults.plan.FaultPlan`.  Specs are data, not code: they
hash into the run key via the config they expand to, and compose with
any strategy spec and replacement policy in a sweep (see
:mod:`repro.experiments.sweep` and docs/SCENARIOS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.runner import PLACEMENT_SCENARIOS
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.config import SimulationConfig

__all__ = ["ScenarioSpec"]

#: Scalar types an override value may take (a mutable value would let a
#: caller change a registered preset after the fact).
_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario preset.

    Parameters
    ----------
    name:
        Registry key (kebab-case by convention).
    description:
        One-line summary shown by ``repro list`` and docs tables.
    base:
        Placement scenario passed to ``build_simulation`` (one of
        :data:`~repro.experiments.runner.PLACEMENT_SCENARIOS`).
    overrides:
        ``SimulationConfig`` field overrides applied on top of the base
        config at expansion time.  Values must be scalars.
    faults:
        Optional deterministic fault plan injected into the config.
    """

    name: str
    description: str = ""
    base: str = "standard"
    overrides: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        if self.base not in PLACEMENT_SCENARIOS:
            raise ConfigurationError(
                f"scenario base must be one of {PLACEMENT_SCENARIOS}, got {self.base!r}"
            )
        if not isinstance(self.overrides, Mapping):
            raise ConfigurationError(
                f"scenario overrides must be a mapping, got "
                f"{type(self.overrides).__name__}"
            )
        for key, value in self.overrides.items():
            if not isinstance(key, str) or not key.isidentifier():
                raise ConfigurationError(
                    f"override key must be a config field name, got {key!r}"
                )
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"override {key!r} must be a scalar, got "
                    f"{type(value).__name__}"
                )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"scenario faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__}"
            )
        # Own an immutable snapshot so a caller mutating their dict later
        # cannot silently change a registered preset.
        object.__setattr__(self, "overrides", dict(self.overrides))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def configure(self, base_config: "SimulationConfig") -> "SimulationConfig":
        """Apply this scenario's overrides (and fault plan) to a config."""
        kwargs: Dict[str, Any] = dict(self.overrides)
        if self.faults is not None:
            kwargs["faults"] = self.faults
        try:
            return base_config.with_overrides(**kwargs)
        except TypeError:
            from dataclasses import fields as dc_fields

            known = {f.name for f in dc_fields(type(base_config))}
            bad = sorted(set(kwargs) - known)
            raise ConfigurationError(
                f"scenario {self.name!r} overrides unknown config "
                f"field(s) {bad}"
            ) from None

    def expand(
        self, base_config: "SimulationConfig"
    ) -> Tuple["SimulationConfig", str]:
        """The ``(config, placement_scenario)`` pair one run needs."""
        return self.configure(base_config), self.base
