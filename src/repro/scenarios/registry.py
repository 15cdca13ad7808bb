"""Name-keyed registries for strategies, replacement policies and scenarios.

The Icarus-style shape the ROADMAP names: everything a study sweeps —
consistency strategy, cache replacement policy, scenario preset — is
registered under a short stable name and looked up by that name from
config files, CLI arguments and experiment matrices.  Adding a variant
is one decorated definition; misspelling one is a loud
:class:`~repro.errors.ConfigurationError` listing what exists.

Each registry lazily imports the module that populates it (its
*loader*), so ``SCENARIOS.get("urban-grid")`` works without the caller
having to know which module defines the preset.  The loader indirection
also keeps this module import-cycle-free: it depends only on
:mod:`repro.errors`.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Registry",
    "STRATEGIES",
    "POLICIES",
    "SCENARIOS",
    "CONTROLLERS",
    "LEVEL_SUFFIXES",
    "StrategyEntry",
    "strategy_specs",
    "parse_spec",
    "register_strategy",
    "register_policy",
    "register_scenario",
    "register_controller",
]


class Registry:
    """A name -> object mapping with loud duplicate/unknown handling.

    Parameters
    ----------
    kind:
        Human label used in error messages (``"strategy"`` …).
    loader:
        Optional dotted module path imported on first lookup; the import
        is what populates the registry (its definitions call
        :meth:`register` at module scope).
    """

    def __init__(self, kind: str, loader: Optional[str] = None) -> None:
        self.kind = kind
        self._loader = loader
        self._loaded = loader is None
        self._entries: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, obj: Any = None) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        ``register("x")`` returns a decorator; ``register("x", obj)``
        registers directly and returns ``obj``.  Names must be non-empty
        strings and unique within the registry.
        """
        if not isinstance(name, str) or not name.strip():
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        key = name.strip().lower()
        if obj is None:
            def decorator(target: Any) -> Any:
                return self.register(key, target)
            return decorator
        if key in self._entries:
            raise ConfigurationError(
                f"duplicate {self.kind} name {key!r}: already registered"
            )
        self._entries[key] = obj
        return obj

    def get(self, name: str) -> Any:
        """Look up ``name``; unknown names raise with the known listing."""
        if not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} name must be a string, got {type(name).__name__}"
            )
        self._ensure_loaded()
        key = name.strip().lower()
        try:
            return self._entries[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Sorted registered names (the discovery/listing surface)."""
        self._ensure_loaded()
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, Any]]:
        """``(name, object)`` pairs in name order."""
        self._ensure_loaded()
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return isinstance(name, str) and name.strip().lower() in self._entries

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        # Mark first: the loader module's own register() calls re-enter
        # the registry, and a loader error should not retry forever.
        self._loaded = True
        assert self._loader is not None
        importlib.import_module(self._loader)


class StrategyEntry(NamedTuple):
    """A factory ``build(context, config) -> ConsistencyStrategy`` and whether
    the strategy serves reads per consistency level (its specs carry a level)."""

    build: Callable[[Any, Any], Any]
    levels: bool


#: The workload a levelled spec names: pure SC/DC/WC reads or the hybrid mix.
LEVEL_SUFFIXES = ("sc", "dc", "wc", "hy")

#: Every consistency strategy there is, by name; entries are
#: :class:`StrategyEntry`.  This is the only list: a *spec* string is
#: ``<name>`` for a strategy without levels (``pull``, ``push``,
#: ``push-uir``) and ``<name>-<level>`` for one with (``rpcc-sc``,
#: ``rpcc-controlled-hy``), and :func:`parse_spec` is what every surface
#: (runner, matrix, CLI) resolves one with.
STRATEGIES = Registry("strategy", loader="repro.experiments.runner")

#: Cache replacement policies; entries are policy classes/factories.
POLICIES = Registry("replacement policy", loader="repro.cache.replacement")

#: Scenario presets; entries are :class:`~repro.scenarios.spec.ScenarioSpec`.
SCENARIOS = Registry("scenario", loader="repro.scenarios.catalog")

#: Online control policies for the adaptive controller; entries are
#: ``factory() -> ControlPolicy`` (fresh instance per simulation).
CONTROLLERS = Registry("control policy", loader="repro.control.policies")


def register_strategy(name: str, *, levels: bool = False) -> Callable[[Any], Any]:
    """Decorator: register a strategy factory ``(context, config) -> strategy``.

    ``levels=True`` says the strategy serves reads per consistency level,
    so its specs are spelled ``<name>-sc|dc|wc|hy``.
    """
    def decorator(build: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
        STRATEGIES.register(name, StrategyEntry(build, levels))
        return build
    return decorator


def strategy_specs() -> Dict[str, Tuple[StrategyEntry, Optional[str]]]:
    """Every valid spec string -> ``(entry, level suffix or None)``."""
    specs: Dict[str, Tuple[StrategyEntry, Optional[str]]] = {}
    for name, entry in STRATEGIES.items():
        if entry.levels:
            for level in LEVEL_SUFFIXES:
                specs[f"{name}-{level}"] = (entry, level)
        else:
            specs[name] = (entry, None)
    return specs


def parse_spec(spec: str) -> Tuple[StrategyEntry, Optional[str]]:
    """Resolve a strategy spec to its entry and level suffix.

    One spelling per spec: exactly the keys of :func:`strategy_specs`
    parse (no aliases, no case folding — the string is part of a run's
    content address), anything else raises naming them.
    """
    specs = strategy_specs()
    try:
        return specs[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown strategy spec {spec!r}; choose from {list(specs)}"
        ) from None


def register_policy(name: str) -> Callable[[Any], Any]:
    """Decorator: register a replacement-policy class under ``name``."""
    return POLICIES.register(name)


def register_scenario(spec: Any) -> Any:
    """Register a :class:`ScenarioSpec` under its own ``name`` field."""
    return SCENARIOS.register(spec.name, spec)


def register_controller(name: str) -> Callable[[Any], Any]:
    """Decorator: register a control-policy factory ``() -> ControlPolicy``."""
    return CONTROLLERS.register(name)
