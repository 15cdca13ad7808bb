"""Serializable fault plans: the scripted half of the fault subsystem.

A :class:`FaultPlan` is a declarative timeline of adverse conditions —
bursty link loss, network partitions, node crashes, relay kills, delay
jitter — that a :class:`~repro.faults.injector.FaultInjector` replays
against a running simulation.  Plans are plain frozen dataclasses with a
kind-tagged JSON round-trip, so they can be committed next to the
experiments that use them (``examples/faults/``), diffed in review, and
hashed into the result-cache key: two sweeps that differ only in their
fault plan never share cache entries.

Determinism contract: the plan contributes *no* randomness of its own.
Scripted times fire through the simulator's event queue; the stochastic
faults (Gilbert–Elliott loss, jitter, duplication) draw from named
streams derived from the run seed inside the injector.  An empty plan —
or ``faults=None`` on the config — schedules nothing and creates no
streams, which keeps fault-free runs bit-identical to the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "BurstyLoss",
    "Crash",
    "DelayJitter",
    "FaultPlan",
    "FaultSpec",
    "Partition",
    "RelayKill",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class BurstyLoss:
    """Gilbert–Elliott two-state bursty loss on every unicast hop.

    While active (``start <= t < end``, open-ended when ``end`` is None)
    each undirected link carries an independent two-state Markov chain:
    ``good`` drops packets with probability ``loss_good``, ``bad`` with
    ``loss_bad``; the chain flips good->bad with ``p_good_bad`` and
    bad->good with ``p_bad_good`` after every transmission.  This is the
    classic burst-loss model for fading radio channels — short windows
    where a link is near-dead, not a uniform coin flip per packet.
    """

    start: float = 0.0
    end: Optional[float] = None
    p_good_bad: float = 0.05
    p_bad_good: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        _require(self.start >= 0, f"bursty_loss start must be >= 0, got {self.start!r}")
        _require(
            self.end is None or self.end > self.start,
            f"bursty_loss end must exceed start, got {self.end!r}",
        )
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            _require(
                0.0 <= value <= 1.0,
                f"bursty_loss {name} must be in [0, 1], got {value!r}",
            )


@dataclass(frozen=True)
class Partition:
    """A network partition applied through the topology service.

    ``mode="spatial"`` cuts the terrain with a line orthogonal to
    ``axis`` at ``frac`` of the terrain extent: edges crossing the cut
    are suppressed, splitting the MANET into two geographic halves.
    ``mode="nodes"`` isolates the named node set: edges between a listed
    node and any unlisted node are suppressed (the island keeps its own
    internal links).  The cut heals after ``duration`` seconds.
    """

    start: float = 0.0
    duration: float = 60.0
    mode: str = "spatial"
    axis: str = "x"
    frac: float = 0.5
    nodes: Tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        _require(self.start >= 0, f"partition start must be >= 0, got {self.start!r}")
        _require(
            self.duration > 0,
            f"partition duration must be positive, got {self.duration!r}",
        )
        _require(
            self.mode in ("spatial", "nodes"),
            f"partition mode must be 'spatial' or 'nodes', got {self.mode!r}",
        )
        if self.mode == "spatial":
            _require(
                self.axis in ("x", "y"),
                f"partition axis must be 'x' or 'y', got {self.axis!r}",
            )
            _require(
                0.0 < self.frac < 1.0,
                f"partition frac must be in (0, 1), got {self.frac!r}",
            )
        else:
            _require(
                len(self.nodes) > 0,
                "partition mode 'nodes' requires a non-empty node list",
            )
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Crash:
    """Abrupt crash of one node at ``at``, optionally rebooting later.

    ``wipe_cache=False`` models a power-cycle whose storage survives
    (the copy is still there on reboot, possibly stale); ``True`` models
    a node whose cache did not survive — every cached copy is dropped
    through the normal eviction hooks.  ``down_for=None`` means the node
    never reboots.  The master copy at a source host always survives.
    """

    node: int = 0
    at: float = 0.0
    down_for: Optional[float] = None
    wipe_cache: bool = False

    def __post_init__(self) -> None:
        _require(self.node >= 0, f"crash node must be >= 0, got {self.node!r}")
        _require(self.at >= 0, f"crash at must be >= 0, got {self.at!r}")
        _require(
            self.down_for is None or self.down_for > 0,
            f"crash down_for must be positive or None, got {self.down_for!r}",
        )


@dataclass(frozen=True)
class RelayKill:
    """Crash up to ``count`` live relay peers at ``at`` (RPCC-targeted).

    Victims are the first ``count`` online agents (in node-id order)
    currently holding a relay role — for ``item`` when given, for any
    item otherwise.  Caches are retained (a relay kill is a crash, not a
    wipe); each victim reboots ``down_for`` seconds later when set.
    Under push/pull no node has a relay role, so the fault is a counted
    no-op — the same plan can drive every strategy.
    """

    at: float = 0.0
    count: int = 1
    down_for: Optional[float] = None
    item: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"relay_kill at must be >= 0, got {self.at!r}")
        _require(self.count >= 1, f"relay_kill count must be >= 1, got {self.count!r}")
        _require(
            self.down_for is None or self.down_for > 0,
            f"relay_kill down_for must be positive or None, got {self.down_for!r}",
        )


@dataclass(frozen=True)
class DelayJitter:
    """Extra per-message delay and duplication on unicast deliveries.

    While active every unicast delivery is delayed by an extra uniform
    draw from ``[0, max_delay]``; with probability ``duplicate_rate``
    the message is additionally delivered twice (the duplicate one hop
    delay later), exercising the protocols' idempotency.
    """

    start: float = 0.0
    end: Optional[float] = None
    max_delay: float = 0.05
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        _require(self.start >= 0, f"delay_jitter start must be >= 0, got {self.start!r}")
        _require(
            self.end is None or self.end > self.start,
            f"delay_jitter end must exceed start, got {self.end!r}",
        )
        _require(
            self.max_delay >= 0,
            f"delay_jitter max_delay must be >= 0, got {self.max_delay!r}",
        )
        _require(
            0.0 <= self.duplicate_rate < 1.0,
            f"delay_jitter duplicate_rate must be in [0, 1), got {self.duplicate_rate!r}",
        )


FaultSpec = Union[BurstyLoss, Partition, Crash, RelayKill, DelayJitter]

#: JSON ``kind`` tag -> spec class (mirrors ``EVENT_TYPES`` in obs.events).
FAULT_KINDS: Dict[str, type] = {
    "bursty_loss": BurstyLoss,
    "partition": Partition,
    "crash": Crash,
    "relay_kill": RelayKill,
    "delay_jitter": DelayJitter,
}
_KIND_OF = {cls: kind for kind, cls in FAULT_KINDS.items()}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, serializable timeline of fault specs.

    Hashing note: the plan participates in the result-cache key, which
    hashes the ``dataclasses.asdict`` JSON of the owning
    :class:`SimulationConfig`, so every field of every spec is
    content-addressed automatically.
    """

    faults: Tuple[FaultSpec, ...] = ()
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            _require(
                type(spec) in _KIND_OF,
                f"unknown fault spec type {type(spec).__name__!r}",
            )

    # -- typed views ---------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.faults

    def of_kind(self, cls: type) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.faults if isinstance(spec, cls))

    @property
    def bursty_loss(self) -> Tuple[BurstyLoss, ...]:
        return self.of_kind(BurstyLoss)  # type: ignore[return-value]

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return self.of_kind(Partition)  # type: ignore[return-value]

    @property
    def crashes(self) -> Tuple[Crash, ...]:
        return self.of_kind(Crash)  # type: ignore[return-value]

    @property
    def relay_kills(self) -> Tuple[RelayKill, ...]:
        return self.of_kind(RelayKill)  # type: ignore[return-value]

    @property
    def jitters(self) -> Tuple[DelayJitter, ...]:
        return self.of_kind(DelayJitter)  # type: ignore[return-value]

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Kind-tagged plain-dict form (stable across sessions)."""
        return {
            "name": self.name,
            "description": self.description,
            "faults": [
                {"kind": _KIND_OF[type(spec)], **asdict(spec)}
                for spec in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; rejects unknown kinds and fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, Iterable) or isinstance(raw_faults, (str, bytes)):
            raise ConfigurationError("fault plan 'faults' must be a list")
        specs = []
        for index, entry in enumerate(raw_faults):
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"fault #{index} must be a JSON object, got {entry!r}"
                )
            fields = dict(entry)
            kind = fields.pop("kind", None)
            spec_cls = FAULT_KINDS.get(kind)
            if spec_cls is None:
                raise ConfigurationError(
                    f"fault #{index} has unknown kind {kind!r}; "
                    f"expected one of {sorted(FAULT_KINDS)}"
                )
            if kind == "partition" and "nodes" in fields:
                fields["nodes"] = tuple(fields["nodes"])
            try:
                specs.append(spec_cls(**fields))
            except TypeError as exc:
                raise ConfigurationError(
                    f"fault #{index} ({kind}): {exc}"
                ) from exc
        return cls(
            faults=tuple(specs),
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan {path!s}: {exc}") from exc
        return cls.from_json(text)
