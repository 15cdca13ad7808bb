"""Interface that every network participant implements.

The network layer is deliberately ignorant of caching and consistency: it
only needs each node's identity, position, online status, and an inbox.
:class:`~repro.peers.host.MobileHost` implements this interface; tests use
small stand-ins.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.mobility.terrain import Point
from repro.net.message import Message

__all__ = ["NetworkNode"]


class NetworkNode(abc.ABC):
    """A node addressable by the simulated network."""

    # No per-instance storage here, so a subclass that declares its own
    # ``__slots__`` (MobileHost) carries no instance ``__dict__``.
    __slots__ = ()

    # Set by Network.register; the class-level default keeps dict-backed
    # stand-ins simple.  A slotted subclass names ``_state_listener`` in
    # its own ``__slots__`` and initialises it.
    _state_listener: Optional[Callable[["NetworkNode"], None]] = None

    @property
    @abc.abstractmethod
    def node_id(self) -> int:
        """Unique node identifier."""

    @property
    @abc.abstractmethod
    def online(self) -> bool:
        """``True`` while the node can send, receive and forward."""

    @abc.abstractmethod
    def current_position(self) -> Point:
        """The node's position at the current simulation time."""

    @abc.abstractmethod
    def position_valid_until(self) -> float:
        """Absolute simulation time until which :meth:`current_position` is
        guaranteed to return an equal position.

        The network layer caches positions inside this window instead of
        re-sampling the mobility model every topology refresh; ``-inf``
        gives no guarantee.  Hosts backed by a mobility model delegate to
        :meth:`repro.mobility.MobilityModel.position_valid_until`.
        """

    @abc.abstractmethod
    def deliver(self, message: Message) -> None:
        """Handle a message that arrived at this node."""

    def on_transmit(self, message: Message) -> None:
        """Hook fired when this node (re)transmits a message (energy cost)."""

    def on_receive(self, message: Message) -> None:
        """Hook fired when this node receives a transmission (energy cost)."""

    @abc.abstractmethod
    def on_relay(self, message: Message) -> None:
        """Hook fired when this node receives a flood copy and rebroadcasts it:
        it costs what :meth:`on_receive` then :meth:`on_transmit` cost."""

    def bind_state_listener(
        self, listener: Optional[Callable[["NetworkNode"], None]]
    ) -> None:
        """Install the network's online/offline observer (set at registration)."""
        self._state_listener = listener

    def notify_state_change(self) -> None:
        """Tell the bound network that this node just flipped online/offline.

        Concrete nodes must call this from their online-state transition
        path so cached topology snapshots never route through a node that
        has already gone offline (or miss one that just came back).
        """
        listener = self._state_listener
        if listener is not None:
            listener(self)
