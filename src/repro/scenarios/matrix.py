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

:func:`load_matrix` reads it into a :class:`~repro.experiments.sweep.Sweep`
over the axes ``scenario``, ``spec``, ``replacement_policy`` and ``seed``;
``repro matrix FILE`` runs it and :func:`matrix_csv` renders its aggregate,
one row per ``(scenario, strategy, policy)``.  Precedence, innermost last:
the caller's base config < ``[base]`` < scenario preset overrides < the
cell's policy and seed.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.experiments.config import SimulationConfig
    from repro.experiments.sweep import Sweep

__all__ = ["AGGREGATE_COLUMNS", "load_matrix", "matrix_csv"]

#: Columns of the aggregate table/CSV, in emission order.
AGGREGATE_COLUMNS = (
    "scenario", "strategy", "policy", "seeds",
    "transmissions", "mean_latency", "answered_ratio",
    "stale_ratio", "violation_ratio",
)

#: Matrix-file axis -> sweep axis, in expansion order, and its default.
_AXES = {
    "scenarios": ("scenario", None),
    "strategies": ("spec", None),
    "policies": ("replacement_policy", ("lru",)),
    "seeds": ("seed", (1,)),
}


def load_matrix(
    path: Union[str, Path], base: Optional["SimulationConfig"] = None
) -> "Sweep":
    """Parse a matrix file (``.toml`` or ``.json``) into a sweep over ``base``.

    ``base`` (default: Table 1) takes the file's ``[base]`` table.  Every
    :class:`~repro.errors.ConfigurationError` raised here begins with the
    file's path: ``"bad.toml: unknown matrix axis/axes ['polices']"``.
    The axis values resolve when the sweep expands (:meth:`Sweep.cells`).
    """
    path = Path(path)
    try:
        return _matrix_from_data(_read_matrix_file(path), base)
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


def _matrix_from_data(
    data: Mapping[str, Any], base: Optional["SimulationConfig"]
) -> "Sweep":
    from repro.experiments.config import SimulationConfig
    from repro.experiments.sweep import Sweep

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
    bad_axes = sorted(set(axes) - set(_AXES))
    if bad_axes:
        raise ConfigurationError(f"unknown matrix axis/axes {bad_axes}")
    for required in ("scenarios", "strategies"):
        if required not in axes:
            raise ConfigurationError(f"[matrix] needs a {required!r} list")
    table = data.get("base", {})
    if not isinstance(table, Mapping):
        raise ConfigurationError("[base] must be a table")
    bad = sorted(set(table) - {f.name for f in fields(SimulationConfig)})
    if bad:
        raise ConfigurationError(f"matrix [base] has unknown config field(s) {bad}")
    base = (base if base is not None else SimulationConfig()).with_overrides(**table)
    return Sweep(base, {axis: axes.get(key, default) for key, (axis, default) in _AXES.items()})


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
