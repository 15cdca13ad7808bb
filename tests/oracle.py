"""Brute-force reference for the per-quantum core, and a stub world to drive it.

The shipped core (:mod:`repro.net.soa` + :mod:`repro.net.topology`) has
grids, pair lists, CSR traversals, delta patches and bulk mobility
kernels.  What they must all compute fits on one screen, and is written
here with none of that machinery: sample every online node's
``current_position()``, test every pair with ``dx*dx + dy*dy <= r*r`` in
registration order, traverse with a FIFO queue.  The property tests
compare every path of the core against this, to the bit and to the
iteration order.
"""

from __future__ import annotations

from collections import deque

from repro.net import soa
from repro.net.topology import TopologyService


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def sample_positions(nodes) -> dict:
    """``{node_id: current_position()}`` of the online ``nodes``, in order."""
    return {node.node_id: node.current_position() for node in nodes if node.online}


class BruteForceSnapshot:
    """All-pairs unit-disc graph over ``positions`` (optionally cut by a
    symmetric ``edge_filter(node_a, node_b, pos_a, pos_b)``)."""

    def __init__(self, positions, radio_range, edge_filter=None):
        self.positions = dict(positions)
        limit_sq = radio_range * radio_range
        self.adjacency = {}
        for node_a, pos_a in self.positions.items():
            row = self.adjacency[node_a] = []
            for node_b, pos_b in self.positions.items():
                dx = pos_a.x - pos_b.x
                dy = pos_a.y - pos_b.y
                if node_a != node_b and dx * dx + dy * dy <= limit_sq and (
                    edge_filter is None or edge_filter(node_a, node_b, pos_a, pos_b)
                ):
                    row.append(node_b)

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency.values()) // 2

    def bfs(self, source):
        """``(levels, parents)`` of a FIFO traversal, in discovery order."""
        levels = {source: 0}
        parents = {source: source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.adjacency[current]:
                if neighbor not in levels:
                    levels[neighbor] = levels[current] + 1
                    parents[neighbor] = current
                    queue.append(neighbor)
        return levels, parents

    def bfs_levels(self, source, max_depth=None) -> dict:
        levels, _ = self.bfs(source)
        if max_depth is None:
            return levels
        return {node: depth for node, depth in levels.items() if depth <= max_depth}

    def connected_components(self) -> list:
        """Components in the order seeding from ``set(positions)`` finds them."""
        remaining = set(self.positions)
        components = []
        while remaining:
            component = set(self.bfs(next(iter(remaining)))[0])
            components.append(component)
            remaining -= component
        return components


def assert_matches_oracle(snapshot, oracle, depths=(0, 1, 3, None)) -> None:
    """Everything routing and flooding observe, equal and in the same order."""
    assert list(snapshot.positions) == list(oracle.positions)
    assert dict(snapshot.positions) == oracle.positions
    for node, row in oracle.adjacency.items():
        assert snapshot.neighbors(node) == row, node
        assert snapshot.degree(node) == len(row), node
    assert snapshot._neighbor_sets == {
        node: frozenset(row) for node, row in oracle.adjacency.items()
    }
    assert snapshot.edge_count() == oracle.edge_count()
    for source in oracle.positions:
        levels, parents = oracle.bfs(source)
        tree = snapshot._bfs_from(source)
        assert (tree[0], tree[1], tree[2]) == (levels, parents, list(levels.items()))
        assert list(tree[0]) == list(levels) and list(tree[1]) == list(parents)
        for depth in depths:
            found = snapshot.bfs_levels(source, max_depth=depth)
            expected = oracle.bfs_levels(source, depth)
            assert found == expected, (source, depth)
            assert list(found) == list(expected), (source, depth)
    assert snapshot.connected_components() == oracle.connected_components()


# ----------------------------------------------------------------------
# Table-driven stub world
# ----------------------------------------------------------------------
class StubNode:
    """The ``FallbackKernel`` contract and nothing else, read from a table."""

    def __init__(self, node_id, table) -> None:
        self.node_id = node_id
        self._table = table

    @property
    def online(self) -> bool:
        return self._table[self.node_id][1]

    def current_position(self):
        return self._table[self.node_id][0]

    def position_valid_until(self) -> float:
        return float("-inf")  # no guarantee: every refresh re-reads the table


class StubWorld:
    """A real position ledger and topology service over a mutable table.

    ``table`` maps node id to ``[position, online]`` in registration
    order.  Tests move a node by replacing its position, flip it with
    :meth:`set_online` (the churn notice the network layer would send)
    and advance ``now`` by hand.
    """

    def __init__(self, table, radio_range, quantum=1.0) -> None:
        self.table = table
        self.now = 0.0
        self.nodes = {node_id: StubNode(node_id, table) for node_id in table}
        self.ledger = soa.SoAPositionLedger()
        for node in self.nodes.values():
            self.ledger.add(node)
        self.service = TopologyService(
            lambda: self.now, self.ledger, radio_range, quantum
        )

    def set_online(self, node_id, online: bool) -> None:
        self.table[node_id][1] = online
        self.ledger.note_state(self.nodes[node_id])
        self.service.note_churn(node_id)

    def oracle(self) -> BruteForceSnapshot:
        return BruteForceSnapshot(
            sample_positions(self.nodes.values()), self.service.radio_range
        )
