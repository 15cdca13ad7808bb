"""Simulation configuration — Table 1 of the paper plus documented extras.

Every Table 1 row maps to a field with the paper's default value.  Fields
the paper leaves unspecified (node speed, disconnection durations, the
stable-node fraction that makes the CS coefficient discriminating) are
grouped separately and documented in DESIGN.md.  A field stays only if
Table 1 lists it, a figure, scenario, matrix file, CLI flag, example or
benchmark workload sets it, or the controller actuates it
(``docs/decisions/06-earned-settings.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.peers.coefficients import SelectionThresholds

if TYPE_CHECKING:  # pragma: no cover - loaded only when a config carries a plan
    from repro.faults.plan import FaultPlan

__all__ = ["SimulationConfig", "TABLE1_ROWS"]


@dataclass
class SimulationConfig:
    """Full parameter set of one simulation run.

    Table 1 parameters
    ------------------
    n_peers:
        Number of peers (``N_Peers`` = 50).
    terrain_width / terrain_height:
        Physical terrain (``T_Area`` = 1.5 km x 1.5 km).
    cache_num:
        Cache slots per host (``C_Num`` = 10).
    radio_range:
        Communication range (``C_Range`` = 250 m).
    sim_time:
        Simulated duration (``T_Sim`` = 5 hours).
    update_interval:
        Mean master-copy update gap (``I_Update`` = 2 min).
    query_interval:
        Mean query gap per host (``I_Query`` = 20 s).
    ttl_broadcast:
        Flood TTL of simple push/pull messages (``TTL_BR`` = 8 hops).
    ttl_rpcc:
        Flood TTL of RPCC invalidations (3 hops; swept in Fig 9).
    ttn / ttr / ttp:
        The RPCC timers (``TTN_OP`` = 2 min, ``TTR_RP`` = 1.5 min,
        ``TTP_CP`` = 4 min).
    switch_interval:
        The switching/coefficient period ``phi`` (``I_Switch`` = 5 min).
    thresholds:
        The selection thresholds (``mu_CAR``/``mu_CS``/``mu_CE``).
    omega:
        Recent-vs-history weighting of the coefficient EWMAs.
    """

    # --- Table 1 ------------------------------------------------------
    n_peers: int = 50
    terrain_width: float = 1500.0
    terrain_height: float = 1500.0
    cache_num: int = 10
    # Table 1 says 250 m nominal; a 250 m unit disc over this terrain is a
    # fragmented network in which no published curve is reproducible (see
    # DESIGN.md).  GloMoSim's default 802.11 effective range was ~376 m;
    # 350 m yields the connected regime the paper's results imply.
    radio_range: float = 350.0
    sim_time: float = 5 * 3600.0
    update_interval: float = 120.0
    query_interval: float = 20.0
    ttl_broadcast: int = 8
    ttl_rpcc: int = 3
    ttn: float = 120.0
    ttr: float = 90.0
    ttp: float = 240.0
    switch_interval: float = 300.0
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)
    omega: float = 0.2

    # --- Not specified by the paper (see DESIGN.md) ---------------------
    seed: int = 1
    speed_min: float = 1.0
    speed_max: float = 5.0
    pause_time: float = 60.0
    stable_fraction: float = 0.4
    mean_online: float = 600.0
    mean_offline: float = 60.0
    subnet_cell: float = 500.0
    poll_timeout: float = 4.0
    cache_on_read: bool = False
    # Per-hop packet loss probability of the wireless links; 0 keeps the
    # lossless default (and the bit-identical lossless event stream).
    loss_rate: float = 0.0
    # Zipf skew of the "zipf" and "flash-crowd" access patterns.
    zipf_theta: float = 0.0
    # Item-access pattern: "uniform" (zipf_theta must stay 0), "zipf"
    # (needs zipf_theta > 0), or "flash-crowd" (Zipf whose ranking
    # reshuffles at flash_crowd_at).
    access_pattern: str = "uniform"
    # Sim-clock instant of the flash-crowd popularity shift.
    flash_crowd_at: float = 0.0
    # Number of hot items in the "hot_set" placement scenario.
    hot_set_size: int = 4
    # Replacement policy name (see repro.cache.replacement POLICIES).
    replacement_policy: str = "lru"
    # Mobility model for the non-stable peers: "waypoint", "walk", or
    # "trace" (a recorded waypoint trace replayed as piecewise-linear).
    mobility: str = "waypoint"
    # Measurement starts after this many seconds: covers the coefficient
    # bootstrap (no relay exists before the first period closes) plus one
    # promotion round, so steady-state behaviour is what gets measured.
    warmup: float = 600.0

    # --- Fault injection & retry hardening (docs/ROBUSTNESS.md) ---------
    # Deterministic fault timeline; None (default) keeps the fault layer
    # entirely out of the run — bit-identical with pre-fault builds.
    faults: Optional[FaultPlan] = None
    # Growth factor of the exponential backoff on remote-query retries.
    # The backoff is on exactly when a fault plan is active, so
    # fault-free runs keep the historical fixed retry wait (and their
    # golden digests); the controller actuates this factor.
    backoff_factor: float = 2.0
    # Online control policy name (see repro.control CONTROLLERS); None
    # (default) constructs no controller at all — bit-identical with
    # pre-controller builds.
    controller: Optional[str] = None
    # Seconds between controller sampling/decision ticks.
    controller_interval: float = 30.0

    def __post_init__(self) -> None:
        # Counts and TTLs index ranges and hop loops: a float, a bool or
        # NaN that passed the range checks below would crash the run.  A
        # seed of 1.0 or True would run seed 1 under another run key.
        integers = ("seed", "n_peers", "cache_num", "ttl_broadcast", "ttl_rpcc", "hot_set_size")
        for name in integers:
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        positives = (
            "n_peers", "terrain_width", "terrain_height", "cache_num", "radio_range",
            "sim_time", "update_interval", "query_interval", "ttn", "ttr", "ttp",
            "switch_interval", "subnet_cell", "mean_online", "mean_offline",
            "poll_timeout", "controller_interval",
        )
        for name in positives:
            value = getattr(self, name)
            if not value > 0:  # not ``value <= 0``: NaN must fail too
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        # A terrain or run length of inf overflows the mobility draws or
        # never ends; an infinite period or timeout cannot be scheduled and
        # an infinite mean gap is a rate of 0 (mean_online = inf is the
        # stable-host marker).
        finite = (
            "terrain_width", "terrain_height", "sim_time", "controller_interval",
            "update_interval", "query_interval", "mean_offline", "ttn",
            "switch_interval", "poll_timeout",
        )
        for name in finite:
            value = getattr(self, name)
            if not value < math.inf:
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        for name in ("ttl_broadcast", "ttl_rpcc"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ConfigurationError(
                f"stable_fraction must be in [0, 1], got {self.stable_fraction!r}"
            )
        if not 0.0 <= self.warmup < math.inf:
            raise ConfigurationError(f"warmup must be finite and >= 0, got {self.warmup!r}")
        if not self.pause_time >= 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {self.pause_time!r}")
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigurationError(f"omega must be in [0, 1], got {self.omega!r}")
        if not self.zipf_theta >= 0:
            raise ConfigurationError(f"zipf_theta must be >= 0, got {self.zipf_theta!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate!r}"
            )
        if self.mobility not in ("waypoint", "walk", "trace"):
            raise ConfigurationError(
                f"mobility must be 'waypoint', 'walk' or 'trace', "
                f"got {self.mobility!r}"
            )
        if self.access_pattern not in ("uniform", "zipf", "flash-crowd"):
            raise ConfigurationError(
                f"access_pattern must be 'uniform', 'zipf' or 'flash-crowd', "
                f"got {self.access_pattern!r}"
            )
        if self.access_pattern == "zipf" and self.zipf_theta <= 0:
            raise ConfigurationError(
                "access_pattern 'zipf' needs zipf_theta > 0"
            )
        if self.access_pattern == "uniform" and self.zipf_theta > 0:
            raise ConfigurationError(
                "zipf_theta > 0 needs access_pattern 'zipf' or 'flash-crowd', "
                "got 'uniform'"
            )
        if self.access_pattern == "flash-crowd":
            if self.zipf_theta <= 0:
                raise ConfigurationError(
                    "access_pattern 'flash-crowd' needs zipf_theta > 0"
                )
            if self.flash_crowd_at <= 0:
                raise ConfigurationError(
                    "access_pattern 'flash-crowd' needs flash_crowd_at > 0"
                )
        if not self.flash_crowd_at >= 0:
            raise ConfigurationError(
                f"flash_crowd_at must be >= 0, got {self.flash_crowd_at!r}"
            )
        if self.hot_set_size < 1:
            raise ConfigurationError(
                f"hot_set_size must be >= 1, got {self.hot_set_size!r}"
            )
        # Validate the policy name eagerly so a typo fails at config time,
        # not mid-campaign.  Lazy import: the cache layer pulls in the
        # scenarios registry, which must not re-enter this module.
        from repro.cache.replacement import POLICIES

        if self.replacement_policy not in POLICIES:
            raise ConfigurationError(
                f"unknown replacement_policy {self.replacement_policy!r}; "
                f"choose from {POLICIES.names()}"
            )
        if not 0 < self.speed_min <= self.speed_max:
            raise ConfigurationError(
                f"need 0 < speed_min <= speed_max, got "
                f"[{self.speed_min!r}, {self.speed_max!r}]"
            )
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise ConfigurationError(
                    f"faults must be a FaultPlan or None, "
                    f"got {type(self.faults).__name__}"
                )
        if not self.backoff_factor >= 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.controller is not None:
            # Same eager validation (and the same lazy-import reason) as
            # replacement_policy above.
            from repro.scenarios.registry import CONTROLLERS

            if self.controller not in CONTROLLERS:
                raise ConfigurationError(
                    f"unknown controller {self.controller!r}; "
                    f"choose from {CONTROLLERS.names()}"
                )

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def table1_rows(self) -> List[Tuple[str, str, str]]:
        """(parameter, description, value) rows mirroring Table 1."""
        return [
            ("N_Peers", "Number of peers in the network", str(self.n_peers)),
            (
                "T_Area",
                "Physical terrain dimension of the network",
                f"{self.terrain_width / 1000:.1f}km*{self.terrain_height / 1000:.1f}km",
            ),
            ("C_Num", "Cache number of each mobile host", str(self.cache_num)),
            (
                "C_Range",
                "Communication range of mobile hosts (paper: 250m nominal)",
                f"{self.radio_range:.0f}m",
            ),
            ("T_Sim", "Simulation time", f"{self.sim_time / 3600:.1f} hours"),
            (
                "I_Update",
                "Average interval of data item update",
                f"{self.update_interval / 60:.1f} minutes",
            ),
            (
                "I_Query",
                "Average interval of query requests",
                f"{self.query_interval:.0f} seconds",
            ),
            (
                "TTL_BR",
                "TTL of broadcast message in simple push/pull",
                f"{self.ttl_broadcast} hops",
            ),
            (
                "TTL_RPCC",
                "TTL of invalidation message in RPCC",
                f"{self.ttl_rpcc} hops",
            ),
            ("TTN_OP", "TTN of data item at owner peer", f"{self.ttn / 60:.1f} minutes"),
            ("TTR_RP", "TTR of data item at relay peer", f"{self.ttr / 60:.1f} minutes"),
            ("TTP_CP", "TTP of data item at cache peer", f"{self.ttp / 60:.1f} minutes"),
            (
                "I_Switch",
                "Switching interval of each peer",
                f"{self.switch_interval / 60:.1f} minutes",
            ),
            ("mu_CAR", "Threshold of CAR (eq 4.2.3)", str(self.thresholds.mu_car)),
            ("mu_CS", "Threshold of CS (eq 4.2.6)", str(self.thresholds.mu_cs)),
            ("mu_CE", "Threshold of CE (eq 4.2.7)", str(self.thresholds.mu_ce)),
            ("omega", "Weighting of recent/history values", str(self.omega)),
        ]


#: Parameter names of Table 1, for table-shape assertions in tests.
TABLE1_ROWS = [
    "N_Peers",
    "T_Area",
    "C_Num",
    "C_Range",
    "T_Sim",
    "I_Update",
    "I_Query",
    "TTL_BR",
    "TTL_RPCC",
    "TTN_OP",
    "TTR_RP",
    "TTP_CP",
    "I_Switch",
    "mu_CAR",
    "mu_CS",
    "mu_CE",
    "omega",
]
