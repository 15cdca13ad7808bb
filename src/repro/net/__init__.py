"""Wireless network substrate: topology, routing, links, flooding."""

from repro.net.link import LinkModel
from repro.net.message import Message, next_message_id
from repro.net.network import Network, TrafficObserver
from repro.net.node import NetworkNode
from repro.net.routing import Router, ShortestPathRouter
from repro.net.topology import TopologyService, TopologySnapshot

__all__ = [
    "Message",
    "next_message_id",
    "LinkModel",
    "Network",
    "TrafficObserver",
    "NetworkNode",
    "Router",
    "ShortestPathRouter",
    "TopologySnapshot",
    "TopologyService",
]
