"""Relay-peer selection coefficients (Section 4.2 of the paper).

Every coefficient period ``phi`` each node refreshes three rates from its
recent history and maps them to coefficients in ``(0, 1]``:

* **PAR** — peer access rate, from the number of cache accesses ``N_a``
  (eq 4.2.1), smoothed over three time windows (eq 4.2.2), mapped to
  ``CAR = 1 / (1 + PAR_t)`` (eq 4.2.3);
* **PSR / PMR** — peer switching / moving rates, EWMA-smoothed
  (eqs 4.2.4-4.2.5), mapped to ``CS = 1 / (1 + PSR_t + PMR_t)`` (eq 4.2.6);
* **CE** — energy level fraction ``PER_t / E_MAX`` (eq 4.2.7).

A node qualifies as a relay-peer candidate when (eq 4.2.8)::

    CAR < mu_CAR  and  CS > mu_CS  and  CE > mu_CE

i.e. it is frequently accessed, stable, and has battery to spare.

Unit note: the paper writes rates as ``N/phi`` without fixing the unit of
``phi``.  We measure rates in events per period ``phi`` (per-period
counts).  With the Table-1 thresholds and workload this cleanly separates
stable from mobile nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SelectionThresholds", "CoefficientTracker"]


@dataclass(frozen=True)
class SelectionThresholds:
    """The ``mu`` thresholds of eq 4.2.8 (Table 1 defaults)."""

    mu_car: float = 0.15
    mu_cs: float = 0.6
    mu_ce: float = 0.6

    def __post_init__(self) -> None:
        for name, value in (
            ("mu_car", self.mu_car),
            ("mu_cs", self.mu_cs),
            ("mu_ce", self.mu_ce),
        ):
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value!r}")


class CoefficientTracker:
    """Per-node accumulator and smoother for CAR / CS / CE.

    Event counters are incremented as things happen; :meth:`close_period`
    is called once per coefficient period ``phi`` to fold them into the
    smoothed rates.

    Parameters
    ----------
    phi:
        Coefficient period in seconds (the paper's ``phi``; we tie it to
        ``I_Switch`` — the "switching period" of Section 4.5).
    omega:
        History weight ``omega`` of eqs 4.2.2/4.2.4/4.2.5 (Table 1: 0.2).
    """

    __slots__ = (
        "phi",
        "omega",
        "_accesses",
        "_switches",
        "_moves",
        "_par_t",
        "_par_prev",
        "_psr_t",
        "_pmr_t",
        "_energy_fraction",
        "periods_closed",
    )

    def __init__(
        self,
        phi: float = 300.0,
        omega: float = 0.2,
    ) -> None:
        if not 0 < phi < math.inf:  # NaN fails too
            raise ConfigurationError(f"phi must be finite and > 0, got {phi!r}")
        if not 0.0 <= omega < 1.0:
            raise ConfigurationError(f"omega must be in [0, 1), got {omega!r}")
        self.phi = float(phi)
        self.omega = float(omega)
        # Counters for the current (open) period.
        self._accesses = 0
        self._switches = 0
        self._moves = 0
        # Smoothed rates.  PAR keeps one extra history window for eq 4.2.2:
        # at each roll-over, _par_t is PAR_{t-1} and _par_prev is PAR_{t-2}.
        self._par_t = 0.0
        self._par_prev = 0.0
        self._psr_t = 0.0
        self._pmr_t = 0.0
        self._energy_fraction = 1.0
        self.periods_closed = 0

    # ------------------------------------------------------------------
    # Event recording (called as things happen)
    # ------------------------------------------------------------------
    def record_access(self, count: int = 1) -> None:
        """Count ``count`` cache accesses (``N_a``) in the open period."""
        self._accesses += count

    def record_switch(self) -> None:
        """Count one reconnect/disconnect status flip (``N_s``)."""
        self._switches += 1

    def record_moves(self, count: int) -> None:
        """Count ``count`` subnet crossings (``N_m``) in the open period."""
        self._moves += count

    def set_energy_fraction(self, fraction: float) -> None:
        """Update the latest battery fraction (``PER_t / E_MAX``)."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"energy fraction must be in [0,1], got {fraction!r}")
        self._energy_fraction = float(fraction)

    # ------------------------------------------------------------------
    # Period roll-over
    # ------------------------------------------------------------------
    def close_period(self) -> None:
        """Fold the open period's counters into the smoothed rates."""
        # N_a / phi and the like, in events per period.
        access_rate = self._accesses
        switch_rate = self._switches
        move_rate = self._moves
        omega = self.omega
        # Eq 4.2.2: three-window smoothing of PAR, where the current
        # _par_t plays PAR_{t-1} and _par_prev plays PAR_{t-2}.
        new_par = (
            self._par_prev * (omega / 4.0)
            + self._par_t * (omega / 2.0)
            + access_rate * (1.0 - omega / 4.0 - omega / 2.0)
        )
        self._par_prev = self._par_t
        self._par_t = new_par
        # Eqs 4.2.4 / 4.2.5: EWMA of PSR and PMR.
        self._psr_t = self._psr_t * omega + switch_rate * (1.0 - omega)
        self._pmr_t = self._pmr_t * omega + move_rate * (1.0 - omega)
        self._accesses = 0
        self._switches = 0
        self._moves = 0
        self.periods_closed += 1

    # ------------------------------------------------------------------
    # Derived coefficients
    # ------------------------------------------------------------------
    @property
    def par(self) -> float:
        """Smoothed peer access rate ``PAR_t``."""
        return self._par_t

    @property
    def psr(self) -> float:
        """Smoothed peer switching rate ``PSR_t``."""
        return self._psr_t

    @property
    def pmr(self) -> float:
        """Smoothed peer moving rate ``PMR_t``."""
        return self._pmr_t

    @property
    def car(self) -> float:
        """Eq 4.2.3: ``CAR = 1 / (1 + PAR_t)`` — low when heavily accessed."""
        return 1.0 / (1.0 + self._par_t)

    @property
    def cs(self) -> float:
        """Eq 4.2.6: ``CS = 1 / (1 + PSR_t + PMR_t)`` — high when stable."""
        return 1.0 / (1.0 + self._psr_t + self._pmr_t)

    @property
    def ce(self) -> float:
        """Eq 4.2.7: latest energy fraction ``PER_t / E_MAX``."""
        return self._energy_fraction

    def eligible(self, thresholds: SelectionThresholds) -> bool:
        """Eq 4.2.8: the relay-peer candidacy test."""
        return (
            self.car < thresholds.mu_car
            and self.cs > thresholds.mu_cs
            and self.ce > thresholds.mu_ce
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoefficientTracker(CAR={self.car:.3f}, CS={self.cs:.3f}, "
            f"CE={self.ce:.3f})"
        )
