"""Brute-force reference for the per-quantum core, and a stub world to drive it.

The shipped core (:mod:`repro.net.soa` + :mod:`repro.net.topology`) has
grids, pair lists, CSR traversals, snapshot reuse and bulk mobility
kernels.  What they must all compute fits on one screen, and is written
here with none of that machinery: sample every online node's
``current_position()``, test every pair with ``dx*dx + dy*dy <= r*r`` in
registration order, traverse with a FIFO queue.  The property tests
compare every path of the core against this, to the bit and to the
iteration order.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate

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
        bound = max(max_depth, 0)  # a negative bound means the source alone
        return {node: depth for node, depth in levels.items() if depth <= bound}

    def hop_distance(self, source, target):
        return self.bfs(source)[0].get(target)

    def shortest_path(self, source, target):
        """First-discoverer parents walked back; ``None`` when unreachable."""
        levels, parents = self.bfs(source)
        if target not in levels:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])
        return path[::-1]

    def nearest(self, source, candidates, max_depth=None):
        """``min((depth, node))`` over the candidates within the bound."""
        levels = self.bfs_levels(source, max_depth)
        found = [(levels[node], node) for node in candidates if node in levels]
        return min(found)[1] if found else None

    def connected_components(self) -> list:
        """Components in the order seeding from ``set(positions)`` finds them."""
        remaining = set(self.positions)
        components = []
        while remaining:
            component = set(self.bfs(next(iter(remaining)))[0])
            components.append(component)
            remaining -= component
        return components


def assert_full_tree(snapshot, oracle, source) -> None:
    """``_bfs_from(source)`` with no bound is the oracle's whole tree:
    same levels and parents in the same order, counted per depth, and
    nothing left to expand."""
    levels, parents = oracle.bfs(source)
    tree = snapshot._bfs_from(source)
    per_depth = Counter(levels.values())  # depths are 0..max, no gaps
    prefix = list(accumulate(per_depth[d] for d in range(len(per_depth))))
    assert tree == [levels, parents, prefix, []]
    assert list(tree[0]) == list(levels) and list(tree[1]) == list(parents)


class CountingRows(dict):
    """An adjacency that lists, in order, the rows a traversal reads."""

    def __init__(self, rows) -> None:
        super().__init__(rows)
        self.read = []

    def __getitem__(self, node):
        self.read.append(node)
        return super().__getitem__(node)


def count_row_reads(snapshot) -> list:
    """Swap ``snapshot``'s adjacency for a counting one; the list of rows
    read from now on (one entry per read, so re-reads show)."""
    rows = snapshot._adjacency_store = CountingRows(snapshot._adjacency)
    return rows.read


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
        assert_full_tree(snapshot, oracle, source)
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
