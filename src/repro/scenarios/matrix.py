"""Declarative experiment matrices: scenario x strategy x policy x seeds.

A matrix file is a TOML (or JSON) document naming registry entries along
four orthogonal axes plus optional base-config overrides::

    [matrix]
    scenarios  = ["urban-grid", "flash-crowd"]
    strategies = ["push", "rpcc-sc"]
    policies   = ["lru"]
    seeds      = [3]

    [base]
    sim_time = 120.0
    warmup   = 60.0

``repro matrix FILE`` expands the cross product into campaign tasks,
hands them to :class:`~repro.experiments.executor.CampaignExecutor`
(so ``--jobs``/``--store``/``--no-store`` all apply), and
aggregates the per-seed results into one row per
``(scenario, strategy, policy)`` cell.  Expansion is deterministic and
deduplicates repeated points by content address, which is what makes
parallel and resumed matrix runs byte-identical to serial ones.

Precedence, innermost last: built-in config defaults < ``[base]`` table
< scenario preset overrides < the cell's policy and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.errors import ConfigurationError
from repro.scenarios.registry import POLICIES, SCENARIOS, parse_spec
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import SimulationResult

__all__ = [
    "MatrixPoint",
    "MatrixSpec",
    "aggregate_matrix",
    "expand_matrix",
    "load_matrix",
    "matrix_csv",
]

#: Columns of the aggregate table/CSV, in emission order.
AGGREGATE_COLUMNS = (
    "scenario", "strategy", "policy", "seeds",
    "transmissions", "mean_latency", "answered_ratio",
    "stale_ratio", "violation_ratio",
)


@dataclass(frozen=True)
class MatrixSpec:
    """The parsed axes of one matrix file."""

    scenarios: Tuple[str, ...]
    strategies: Tuple[str, ...]
    policies: Tuple[str, ...] = ("lru",)
    seeds: Tuple[int, ...] = (1,)
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in ("scenarios", "strategies", "policies", "seeds"):
            values = getattr(self, axis)
            if not values:
                raise ConfigurationError(f"matrix {axis} must be non-empty")
            object.__setattr__(self, axis, tuple(values))
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigurationError(
                    f"matrix seeds must be integers, got {seed!r}"
                )
        object.__setattr__(self, "base", dict(self.base))

    @property
    def cells(self) -> int:
        """Size of the full cross product (before deduplication)."""
        return (len(self.scenarios) * len(self.strategies)
                * len(self.policies) * len(self.seeds))


@dataclass(frozen=True)
class MatrixPoint:
    """One expanded cell: its axes plus the fully resolved run task."""

    scenario: str
    strategy: str
    policy: str
    seed: int
    config: "SimulationConfig"
    placement: str

    @property
    def task(self) -> Tuple["SimulationConfig", str, str]:
        """The ``(config, spec, scenario)`` triple the executor runs."""
        return (self.config, self.strategy, self.placement)


def load_matrix(path: Union[str, Path]) -> MatrixSpec:
    """Parse a matrix file (``.toml`` or ``.json``) into a :class:`MatrixSpec`.

    Every :class:`~repro.errors.ConfigurationError` it raises begins with
    the file's path: ``"bad.toml: unknown matrix axis/axes ['polices']"``.
    """
    path = Path(path)
    try:
        return _matrix_from_data(_read_matrix_file(path))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _read_matrix_file(path: Path) -> Any:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read matrix file: {exc.strerror}") from None
    if path.suffix.lower() == ".json":
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
    import tomllib

    try:
        return tomllib.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigurationError(f"invalid TOML: {exc}") from None


def _matrix_from_data(data: Mapping[str, Any]) -> MatrixSpec:
    if not isinstance(data, Mapping):
        raise ConfigurationError("matrix document must be a table")
    unknown = sorted(set(data) - {"matrix", "base"})
    if unknown:
        raise ConfigurationError(
            f"unknown top-level table(s) {unknown}; "
            f"expected [matrix] and optional [base]"
        )
    axes = data.get("matrix")
    if not isinstance(axes, Mapping):
        raise ConfigurationError("missing [matrix] table")
    bad_axes = sorted(set(axes) - {"scenarios", "strategies", "policies", "seeds"})
    if bad_axes:
        raise ConfigurationError(f"unknown matrix axis/axes {bad_axes}")
    for required in ("scenarios", "strategies"):
        if required not in axes:
            raise ConfigurationError(f"[matrix] needs a {required!r} list")
    base = data.get("base", {})
    if not isinstance(base, Mapping):
        raise ConfigurationError("[base] must be a table")
    return MatrixSpec(
        scenarios=tuple(axes["scenarios"]),
        strategies=tuple(axes["strategies"]),
        policies=tuple(axes.get("policies", ("lru",))),
        seeds=tuple(axes.get("seeds", (1,))),
        base=base,
    )


def expand_matrix(
    matrix: MatrixSpec,
    base_config: Optional["SimulationConfig"] = None,
) -> List[MatrixPoint]:
    """Expand the cross product into resolved, deduplicated points.

    Every axis name is validated against its registry (scenario presets,
    strategy specs, replacement policies) before any simulation runs, so
    a typo fails the whole matrix immediately.  Points whose resolved
    content address coincides (e.g. a repeated seed) are kept once, in
    first-appearance order.
    """
    from repro.experiments.config import SimulationConfig
    from repro.experiments.executor import run_key

    for strategy in matrix.strategies:
        parse_spec(strategy)
    for policy in matrix.policies:
        POLICIES.get(policy)
    scenario_specs: Dict[str, ScenarioSpec] = {
        name: SCENARIOS.get(name) for name in matrix.scenarios
    }

    base = base_config if base_config is not None else SimulationConfig()
    if matrix.base:
        try:
            base = base.with_overrides(**dict(matrix.base))
        except TypeError:
            from dataclasses import fields as dc_fields

            known = {f.name for f in dc_fields(SimulationConfig)}
            bad = sorted(set(matrix.base) - known)
            raise ConfigurationError(
                f"matrix [base] has unknown config field(s) {bad}"
            ) from None

    points: List[MatrixPoint] = []
    seen: set = set()
    for scenario_name in matrix.scenarios:
        spec = scenario_specs[scenario_name]
        scenario_config, placement = spec.expand(base)
        for strategy in matrix.strategies:
            for policy in matrix.policies:
                for seed in matrix.seeds:
                    config = scenario_config.with_overrides(
                        replacement_policy=policy, seed=seed
                    )
                    key = run_key(config, strategy, placement)
                    if key in seen:
                        continue
                    seen.add(key)
                    points.append(MatrixPoint(
                        scenario=scenario_name,
                        strategy=strategy,
                        policy=policy,
                        seed=seed,
                        config=config,
                        placement=placement,
                    ))
    return points


def aggregate_matrix(
    points: Sequence[MatrixPoint],
    results: Sequence["SimulationResult"],
) -> List[Tuple]:
    """One row per ``(scenario, strategy, policy)`` cell, seeds averaged.

    Row order follows first appearance in ``points`` (which expansion
    makes deterministic), so two runs of the same matrix — serial,
    sharded, or resumed — emit byte-identical tables.
    """
    if len(points) != len(results):
        raise ConfigurationError(
            f"matrix aggregate needs one result per point "
            f"({len(points)} points, {len(results)} results)"
        )
    groups: Dict[Tuple[str, str, str], List["SimulationResult"]] = {}
    order: List[Tuple[str, str, str]] = []
    for point, result in zip(points, results):
        cell = (point.scenario, point.strategy, point.policy)
        if cell not in groups:
            groups[cell] = []
            order.append(cell)
        groups[cell].append(result)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    rows: List[Tuple] = []
    for cell in order:
        cell_results = groups[cell]
        summaries = [r.summary for r in cell_results]
        answered = [
            (s.queries_answered / s.queries_issued) if s.queries_issued else 0.0
            for s in summaries
        ]
        rows.append(cell + (
            len(cell_results),
            mean([float(s.transmissions) for s in summaries]),
            mean([s.mean_latency for s in summaries]),
            mean(answered),
            mean([s.stale_ratio for s in summaries]),
            mean([s.violation_ratio for s in summaries]),
        ))
    return rows


def matrix_csv(rows: Sequence[Tuple]) -> str:
    """Serialize aggregate rows as CSV (``repr`` floats: byte-stable)."""
    lines = [",".join(AGGREGATE_COLUMNS)]
    for row in rows:
        rendered = [
            repr(value) if isinstance(value, float) else str(value)
            for value in row
        ]
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"
