"""Multi-writer replica consistency (the paper's future-work direction 3).

Section 6: "unlike cache, where the master copy can only be updated by its
source peer, as to replicas, any peer that has the replica can modify the
data, which makes the consistency maintenance more complicated."

This module implements that harder setting as a self-contained protocol on
the same network substrate:

* every replica carries a **last-writer-wins tag** ``(lamport, writer)``;
  a write anywhere bumps the local Lamport clock and installs the tag;
* replicas converge through periodic **anti-entropy gossip**: each holder
  exchanges its tag with a random online holder and the smaller tag pulls
  the newer value (one round trip per gossip tick);
* because tags are totally ordered and merging takes the max, the register
  is a state-based CRDT: any gossip schedule converges once writes stop.
"""

from __future__ import annotations

import dataclasses
import random
from typing import ClassVar, Dict, List, Tuple

from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

__all__ = ["WriteTag", "ReplicatedRegister", "GossipReplication", "GossipDigest", "GossipValue"]


@dataclasses.dataclass(frozen=True, order=True)
class WriteTag:
    """Total order over writes: Lamport clock, ties broken by writer id."""

    lamport: int
    writer: int


@dataclasses.dataclass(frozen=True, slots=True)
class GossipDigest(Message):
    """'Here is my newest tag' — opener of one anti-entropy round."""

    DEFAULT_SIZE: ClassVar[int] = 48
    item_id: int = 0
    lamport: int = 0
    writer: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class GossipValue(Message):
    """'Your tag was older; here is my value' — the pull half of a round."""

    DEFAULT_SIZE: ClassVar[int] = 48
    item_id: int = 0
    lamport: int = 0
    writer: int = 0
    payload: int = 0
    content_size: int = 1024

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", 48 + self.content_size)


class ReplicatedRegister:
    """One node's replica of a multi-writer register."""

    def __init__(self, node_id: int, item_id: int) -> None:
        self.node_id = node_id
        self.item_id = item_id
        self.tag = WriteTag(0, node_id)
        self.value = 0
        self.lamport = 0
        self.writes = 0
        self.merges = 0

    def write(self, value: int) -> WriteTag:
        """Local write: bump the Lamport clock and install the tag."""
        self.lamport += 1
        self.tag = WriteTag(self.lamport, self.node_id)
        self.value = value
        self.writes += 1
        return self.tag

    def read(self) -> Tuple[int, WriteTag]:
        """Local read: value plus its provenance tag."""
        return self.value, self.tag

    def merge(self, tag: WriteTag, value: int) -> bool:
        """Fold a remote state in; returns whether it won."""
        self.lamport = max(self.lamport, tag.lamport)
        if tag > self.tag:
            self.tag = tag
            self.value = value
            self.merges += 1
            return True
        return False


class GossipReplication:
    """Anti-entropy gossip among the holders of one replicated item.

    Parameters
    ----------
    sim / network:
        Simulation substrate.
    item_id:
        The replicated item.
    holders:
        Node ids holding a replica.
    rng:
        Stream used to pick gossip partners.
    gossip_interval:
        Seconds between gossip rounds per holder.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        item_id: int,
        holders: List[int],
        rng: random.Random,
        gossip_interval: float = 30.0,
    ) -> None:
        if len(holders) < 2:
            raise ProtocolError("replication needs at least two holders")
        self.sim = sim
        self.network = network
        self.item_id = item_id
        self.rng = rng
        self.gossip_interval = float(gossip_interval)
        self.registers: Dict[int, ReplicatedRegister] = {
            node: ReplicatedRegister(node, item_id) for node in holders
        }
        self._timers: List[PeriodicTimer] = []
        self.rounds = 0
        # Nodes deliver replication messages through their agent; here we
        # register a tiny adapter per holder instead.
        for node in holders:
            host = network.node(node)
            original = getattr(host, "agent", None)
            host.agent = _ReplicaAdapter(self, node, original)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm a staggered gossip timer per holder."""
        for index, node in enumerate(sorted(self.registers)):
            offset = self.gossip_interval * (index + 1) / (len(self.registers) + 1)
            timer = PeriodicTimer(
                self.sim,
                self.gossip_interval,
                lambda node=node: self._gossip_once(node),
                start_offset=offset,
            )
            timer.start()
            self._timers.append(timer)

    def write(self, node: int, value: int) -> WriteTag:
        """Perform a write at ``node``'s replica."""
        return self.registers[node].write(value)

    def read(self, node: int) -> Tuple[int, WriteTag]:
        """Read ``node``'s replica."""
        return self.registers[node].read()

    def converged(self) -> bool:
        """``True`` when every replica holds the same tag."""
        tags = {register.tag for register in self.registers.values()}
        return len(tags) == 1

    def distinct_values(self) -> int:
        """Number of distinct values currently held."""
        return len({register.value for register in self.registers.values()})

    # ------------------------------------------------------------------
    # Gossip mechanics
    # ------------------------------------------------------------------
    def _gossip_once(self, node: int) -> None:
        host = self.network.node(node)
        if not host.online:
            return
        partners = [n for n in self.registers if n != node]
        partner = partners[self.rng.randrange(len(partners))]
        register = self.registers[node]
        digest = GossipDigest(
            sender=node,
            item_id=self.item_id,
            lamport=register.tag.lamport,
            writer=register.tag.writer,
        )
        if self.network.unicast(node, partner, digest):
            self.rounds += 1

    def handle(self, node: int, message: Message) -> bool:
        """Process a replication message at ``node``; returns handled?"""
        register = self.registers.get(node)
        if register is None:
            return False
        if isinstance(message, GossipDigest) and message.item_id == self.item_id:
            remote_tag = WriteTag(message.lamport, message.writer)
            if register.tag > remote_tag:
                # We are newer: push our value back to the opener.
                reply = GossipValue(
                    sender=node,
                    item_id=self.item_id,
                    lamport=register.tag.lamport,
                    writer=register.tag.writer,
                    payload=register.value,
                )
                self.network.unicast(node, message.sender, reply)
            elif remote_tag > register.tag:
                # They are newer: ask for the value by sending our digest.
                reply = GossipDigest(
                    sender=node,
                    item_id=self.item_id,
                    lamport=register.tag.lamport,
                    writer=register.tag.writer,
                )
                self.network.unicast(node, message.sender, reply)
            return True
        if isinstance(message, GossipValue) and message.item_id == self.item_id:
            register.merge(WriteTag(message.lamport, message.writer), message.payload)
            return True
        return False


class _ReplicaAdapter:
    """Routes replication messages to the protocol, the rest onward."""

    def __init__(self, replication: GossipReplication, node: int, inner) -> None:
        self._replication = replication
        self._node = node
        self._inner = inner

    def handle_message(self, message: Message) -> None:
        if self._replication.handle(self._node, message):
            return
        if self._inner is not None:
            self._inner.handle_message(message)

    # Host lifecycle hooks: forward when wrapped, no-op otherwise.
    def on_reconnect(self) -> None:
        if self._inner is not None:
            self._inner.on_reconnect()

    def on_disconnect(self) -> None:
        if self._inner is not None:
            self._inner.on_disconnect()

    def __getattr__(self, name: str):
        if self._inner is None:
            raise AttributeError(name)
        return getattr(self._inner, name)
