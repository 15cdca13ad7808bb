"""Battery model backing the paper's CE (coefficient of energy) input.

Eq. 4.2.7 defines ``CE = PER_t / E_MAX`` — the current energy level as a
fraction of maximum.  The battery drains on every transmission, reception
and with idle time; relay-peer selection then prefers nodes with
``CE > mu_CE``.

Costs default to values in the spirit of early-2000s 802.11 measurement
studies (transmit more expensive than receive, both dominated by per-packet
fixed cost at these message sizes).  Absolute joules are irrelevant to the
reproduction — only the *relative ordering* of node energy levels feeds the
selection criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

__all__ = ["EnergyCosts", "Battery"]


def _require_amount(what: str, value: float) -> None:
    """Reject a negative, infinite or NaN quantity (``nan < 0`` is false, and
    one ``nan`` in a battery level switches depletion off for the whole run)."""
    if not 0.0 <= value < math.inf:
        raise ConfigurationError(f"{what} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class EnergyCosts:
    """Per-operation energy prices in joules.

    Read-only once validated: every battery built without its own price
    list shares one instance, and a shared object must not be a place
    where one host's experiment leaks into the others.

    Parameters
    ----------
    tx_fixed / rx_fixed:
        Fixed cost per transmitted / received packet.
    tx_per_byte / rx_per_byte:
        Incremental cost per payload byte.
    idle_per_second:
        Baseline drain while powered on.
    """

    tx_fixed: float = 0.002
    tx_per_byte: float = 0.000002
    rx_fixed: float = 0.001
    rx_per_byte: float = 0.000001
    idle_per_second: float = 0.0001

    def __post_init__(self) -> None:
        for field in fields(self):
            _require_amount(field.name, getattr(self, field.name))

    def transmit_cost(self, size_bytes: int) -> float:
        """Energy to transmit one packet of ``size_bytes``."""
        return self.tx_fixed + self.tx_per_byte * size_bytes

    def receive_cost(self, size_bytes: int) -> float:
        """Energy to receive one packet of ``size_bytes``."""
        return self.rx_fixed + self.rx_per_byte * size_bytes


_DEFAULT_COSTS = EnergyCosts()


class Battery:
    """Finite energy store of one mobile host.

    Parameters
    ----------
    capacity:
        ``E_MAX`` in joules; also the initial charge unless ``initial`` is
        given.
    costs:
        Per-operation prices; shared between hosts by default.
    """

    __slots__ = ("capacity", "costs", "_level", "total_consumed", "tx_count", "rx_count")

    def __init__(
        self,
        capacity: float = 100.0,
        costs: EnergyCosts | None = None,
        initial: float | None = None,
    ) -> None:
        if not 0.0 < capacity < math.inf:
            raise ConfigurationError(f"capacity must be finite and > 0, got {capacity!r}")
        self.capacity = float(capacity)
        self.costs = costs if costs is not None else _DEFAULT_COSTS
        level = capacity if initial is None else float(initial)
        if not 0.0 <= level <= capacity:
            raise ConfigurationError(
                f"initial charge {level!r} outside [0, {capacity!r}]"
            )
        self._level = level
        self.total_consumed = 0.0
        self.tx_count = 0
        self.rx_count = 0

    @property
    def level(self) -> float:
        """Remaining energy (``PER_t``) in joules."""
        return self._level

    @property
    def fraction(self) -> float:
        """``CE = PER_t / E_MAX`` — the paper's coefficient of energy."""
        return self._level / self.capacity

    @property
    def depleted(self) -> bool:
        """``True`` once the battery is empty."""
        return self._level <= 0.0

    def consume(self, joules: float) -> None:
        """Drain ``joules`` (clamped at empty)."""
        _require_amount("consumed energy", joules)
        drained = min(joules, self._level)
        self._level -= drained
        self.total_consumed += drained

    def on_transmit(self, size_bytes: int) -> None:
        """Charge a packet transmission to the battery.

        The radio hooks run once per hop of every message, so they do
        :meth:`consume`'s arithmetic themselves, in its order.  Its sign check
        is discharged, not dropped: prices are finite and >= 0 (``EnergyCosts``)
        and ``size_bytes`` is >= 0 (``Message.__post_init__``).
        """
        self.tx_count += 1
        costs = self.costs
        joules = costs.tx_fixed + costs.tx_per_byte * size_bytes
        level = self._level
        drained = level if level < joules else joules
        self._level = level - drained
        self.total_consumed += drained

    def on_receive(self, size_bytes: int) -> None:
        """Charge a packet reception to the battery."""
        self.rx_count += 1
        costs = self.costs
        joules = costs.rx_fixed + costs.rx_per_byte * size_bytes
        level = self._level
        drained = level if level < joules else joules
        self._level = level - drained
        self.total_consumed += drained

    def on_relay(self, size_bytes: int) -> None:
        """A flood relay's packet: :meth:`on_receive` then :meth:`on_transmit`,
        in that order (an emptied battery pays nothing to rebroadcast)."""
        self.rx_count += 1
        self.tx_count += 1
        costs = self.costs
        level = self._level
        joules = costs.rx_fixed + costs.rx_per_byte * size_bytes
        received = level if level < joules else joules
        level -= received
        joules = costs.tx_fixed + costs.tx_per_byte * size_bytes
        sent = level if level < joules else joules
        self._level = level - sent
        self.total_consumed = self.total_consumed + received + sent

    def idle(self, seconds: float) -> None:
        """Charge ``seconds`` of idle drain to the battery."""
        _require_amount("idle time", seconds)
        self.consume(self.costs.idle_per_second * seconds)

    def recharge(self, joules: float | None = None) -> None:
        """Recharge by ``joules`` (full recharge when omitted)."""
        if joules is None:
            self._level = self.capacity
        else:
            _require_amount("recharge", joules)
            self._level = min(self.capacity, self._level + joules)
