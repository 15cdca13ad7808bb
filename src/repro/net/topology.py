"""Dynamic connectivity graph under the unit-disc radio model.

Two online nodes are neighbours when their Euclidean distance is at most
the communication range (250 m in Table 1).  Because nodes move, the
topology is a function of time; :class:`TopologyService` samples node
positions on demand and caches the resulting :class:`TopologySnapshot` for
a short quantum so that bursts of sends at (nearly) the same instant reuse
one graph.

Fast paths
----------
Snapshots sit in the inner loop of every experiment, so three optimisations
keep them cheap without changing any observable result:

* **Array adjacency build.**  Every snapshot of every size is built by
  :func:`repro.net.soa.build_csr` into a compressed sparse-row view.
  The ordered neighbour lists (BFS and flood iteration order must stay
  deterministic), the frozen sets behind an O(1)
  :meth:`TopologySnapshot.has_edge` and the spatial grid the patch path
  re-buckets materialise from those arrays only when something reads
  them.
* **Per-source BFS memoisation.**  A snapshot is immutable, so each
  source keeps one resumable, level-synchronous traversal record that
  grows whole levels only as far as the query at hand needs — to the
  target's level for ``shortest_path`` / ``hop_distance``, to the TTL for
  ``bfs_levels``, to the first level holding a candidate for
  ``nearest`` — and picks up where it stopped for the next one.  Levels
  up to ``d`` of a level-synchronous BFS do not depend on where it later
  stops, so every answer equals the full traversal's whatever order the
  queries arrive in; a unicast two hops long never walks its component.
* **Incremental snapshot pipeline.**  Long runs alternate movement with
  pauses (random waypoint, Table 1), so most quanta change nothing.
  Each refresh :class:`TopologyService` takes the position ledger's diff
  against the previous snapshot: an *empty* delta returns the previous
  snapshot object — warm BFS cache and all; a *small* delta on a small
  population applies :meth:`TopologySnapshot.from_delta`, a copy-on-write
  patch that keeps every traversal record no edge change touched;
  anything else rebuilds from the ledger's arrays, sharing candidate
  pairs from one refresh to the next
  (:func:`repro.net.soa.refresh_patches` has the rule,
  :class:`repro.net.soa.PairList` the reuse).
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.mobility.terrain import Point
from repro.net import soa

__all__ = ["TopologySnapshot", "TopologyService"]

# Population below which a *full* (unbounded) BFS runs on the dict
# adjacency even when a CSR view exists.  The dict traversal is faster
# per source at any scale; the CSR traversal only pays off when it saves
# materialising the adjacency from the CSR on a large snapshot that will
# likely see a single routing query before the next rebuild.
_FULL_BFS_CSR_MIN = 4096

# ``has_edge`` on a snapshot that still has its CSR answers from it for one
# query per this many nodes before it builds the frozen neighbour sets.
# A CSR query (~5 us) costs what materialising 4-6 nodes' lists and sets
# does (measured at 1k and 10k nodes), so when the allowance runs out the
# searches have cost about one materialisation — never more than twice
# the better choice, whichever the snapshot's traffic turns out to be.
_CSR_EDGE_QUERY_SHARE = 4


class TopologySnapshot:
    """Immutable connectivity graph at one instant.

    Parameters
    ----------
    positions:
        Mapping of *online* node id to position.  Offline nodes simply do
        not appear: they can neither send, receive, nor forward.
    radio_range:
        Disc-model communication range in metres.
    edge_filter:
        Optional symmetric predicate ``(node_a, node_b, pos_a, pos_b) ->
        bool``; edges it rejects are removed *after* the normal build
        (fault-injected partitions).  ``None`` — the default — leaves the
        hot build path untouched.
    """

    def __init__(
        self,
        positions: Dict[int, Point],
        radio_range: float,
        edge_filter: Optional[
            Callable[[int, int, Point, Point], bool]
        ] = None,
        position_arrays=None,
        pair_list: Optional["soa.PairList"] = None,
    ) -> None:
        # ArrayPositions (the ledger's rebuild-bound output) is already an
        # immutable snapshot-safe mapping: copying it into a dict would
        # materialise one Point per node, the very cost it exists to skip.
        if isinstance(positions, soa.ArrayPositions):
            self.positions = positions
            # What ``in`` is asked of: a hash set of the ids on a small
            # population, the binary-searching mapping itself on a big one.
            self._members = positions.members()
        else:
            self.positions = self._members = dict(positions)
        self.radio_range = float(radio_range)
        self._edge_filter = edge_filter
        self._cell = self.radio_range if self.radio_range > 0 else 1.0
        # node -> hash of its ordered neighbour list, filled lazily by
        # component_fingerprint / from_delta verification.  Never inherited
        # across snapshots: each snapshot fingerprints its own actual lists.
        self._edge_fp: Dict[int, int] = {}
        # source -> [levels, parents, prefix, frontier] of one resumable
        # level-synchronous BFS: prefix[d] counts nodes at depth <= d, so a
        # depth-limited query reads a prefix of levels; frontier holds the
        # deepest level while it is unexpanded and is empty once the
        # component is exhausted (see _bfs_from).
        self._bfs_cache: Dict[int, list] = {}
        # source -> ((levels, parents, items, prefix), complete) of a
        # depth-bounded vectorized BFS; levels <= the bound are identical
        # to the full traversal's, so TTL floods reuse them without ever
        # walking the whole graph.
        self._bfs_partial: Dict[int, Tuple[tuple, bool]] = {}
        # Compressed sparse-row view of the adjacency; BFS traverses it in
        # array ops instead of the dict lists.
        self._csr = soa.build_csr(
            self.positions, self.radio_range, position_arrays, pair_list
        )
        # has_edge calls the CSR may still answer before the frozen
        # neighbour sets are worth building (see has_edge).
        self._csr_edge_queries = len(self.positions) // _CSR_EDGE_QUERY_SHARE
        # Dict-of-lists adjacency, grid and frozen neighbour sets
        # materialise lazily: a regime that rebuilds every refresh never
        # needs them; from_delta, neighbour lists and sustained has_edge
        # traffic build them on demand.
        self._adjacency_store = self._grid_store = self._sets_store = None
        if edge_filter is not None:
            self._apply_edge_filter()
            self._csr = None  # filtered lists no longer match the CSR view

    # ------------------------------------------------------------------
    # Lazy companions of the adjacency
    # ------------------------------------------------------------------
    @property
    def _adjacency(self) -> Dict[int, List[int]]:
        adjacency = self._adjacency_store
        if adjacency is None:
            adjacency = self._adjacency_store = soa.adjacency_from_csr(self._csr)
        return adjacency

    @property
    def _grid(self) -> Dict[Tuple[int, int], List[Tuple[int, Point]]]:
        grid = self._grid_store
        if grid is None:
            cell = self._cell
            grid = self._grid_store = {}
            for node, pos in self.positions.items():
                key = (math.floor(pos.x / cell), math.floor(pos.y / cell))
                grid.setdefault(key, []).append((node, pos))
        return grid

    @property
    def _neighbor_sets(self) -> Dict[int, frozenset]:
        sets = self._sets_store
        if sets is None:
            sets = self._sets_store = {
                node: frozenset(neighbors)
                for node, neighbors in self._adjacency.items()
            }
        return sets

    def _apply_edge_filter(self) -> None:
        """Drop edges the filter rejects (fault-injected partitions).

        Runs as a separate post-pass so the unfiltered build — the hot
        path every normal refresh takes — pays nothing.  In-place
        filtering preserves the registration-rank neighbour order, so
        BFS traversal on the surviving graph matches what a from-scratch
        build of the cut topology would produce.  The filter must be
        symmetric in its endpoints or the adjacency becomes directed.
        """
        allowed = self._edge_filter
        positions = self.positions
        adjacency = self._adjacency
        neighbor_sets = self._neighbor_sets
        for node, neighbors in adjacency.items():
            pos = positions[node]
            kept = [
                other
                for other in neighbors
                if allowed(node, other, pos, positions[other])
            ]
            if len(kept) != len(neighbors):
                adjacency[node] = kept
                neighbor_sets[node] = frozenset(kept)

    # ------------------------------------------------------------------
    # Incremental construction
    # ------------------------------------------------------------------
    @classmethod
    def from_delta(
        cls,
        prev: "TopologySnapshot",
        positions: Dict[int, Point],
        changed: Sequence[int],
        verify_retention: bool = False,
        order: Optional[Dict[int, int]] = None,
    ) -> "TopologySnapshot":
        """Build the snapshot for ``positions`` by patching ``prev``.

        ``changed`` lists every node whose state differs from ``prev``:
        moved (position changed), appeared (came online) or departed (went
        offline).  All other nodes must be bit-identical in both snapshots.
        ``positions`` must iterate in the same registration order a
        from-scratch build would use.

        The update is copy-on-write: ``prev`` is never mutated, and every
        grid cell, adjacency list and frozen neighbour set the delta does
        not touch is shared between the two snapshots.  Traversal records
        of ``prev`` that discovered no node an edge change touched are
        carried over (an incomplete one as a copy, so resuming it here
        leaves ``prev`` as it was); with ``verify_retention`` each carried
        record is re-checked against an edge fingerprint computed from the
        actual neighbour lists of its discovered nodes in both snapshots
        (used by the property tests; a mismatch raises
        :class:`TopologyError`).

        ``order`` may supply the registration-rank map (``{node: rank}``
        for ``enumerate(positions)``); callers that refresh repeatedly over
        a stable population pass a cached one to skip the O(N) rebuild.
        """
        snap = cls.__new__(cls)
        snap.positions = snap._members = positions
        snap.radio_range = prev.radio_range
        cell = snap._cell = prev._cell
        snap._edge_filter = None  # delta path is only taken unfiltered
        snap._edge_fp = {}
        snap._bfs_cache = {}
        snap._bfs_partial = {}
        snap._csr = None  # patched lists live in the dicts, not the arrays
        snap._csr_edge_queries = 0

        grid = dict(prev._grid)
        adjacency = dict(prev._adjacency)
        neighbor_sets = dict(prev._neighbor_sets)
        owned_cells: Set[Tuple[int, int]] = set()
        owned_lists: Set[int] = set()
        changed_set = set(changed)
        touched = set(changed_set)

        def own_cell(key: Tuple[int, int]) -> List[Tuple[int, Point]]:
            members = grid.get(key)
            if members is None:
                members = grid[key] = []
                owned_cells.add(key)
            elif key not in owned_cells:
                members = grid[key] = list(members)
                owned_cells.add(key)
            return members

        def own_list(node: int) -> List[int]:
            neighbors = adjacency[node]
            if node not in owned_lists:
                neighbors = adjacency[node] = list(neighbors)
                owned_lists.add(node)
            return neighbors

        # Phase 1: detach every changed node that was online in prev — pull
        # it out of its old grid cell and out of its neighbours' lists.  A
        # node that merely *moved* keeps its dict keys in place (the stale
        # values are overwritten below), so key order is disturbed only
        # when a node appears — the one case that needs a re-key pass.
        rekey = False
        for node in changed:
            old_pos = prev.positions.get(node)
            if old_pos is None:
                rekey = rekey or node in positions  # newly online
                continue
            own_cell(
                (math.floor(old_pos.x / cell), math.floor(old_pos.y / cell))
            ).remove((node, old_pos))
            for neighbor in prev._adjacency[node]:
                if neighbor in changed_set:
                    continue  # rebuilt (or dropped) wholesale below
                own_list(neighbor).remove(node)
                touched.add(neighbor)
            if node not in positions:  # departed: deletion keeps the
                del adjacency[node]    # remaining keys' relative order
                del neighbor_sets[node]

        # Phase 2: attach every changed node that is online now.  The grid
        # holds all unchanged nodes plus previously attached changed ones,
        # so each changed-changed pair is discovered exactly once (by the
        # later of the two attachments).  Neighbour lists stay sorted by
        # registration rank, which keeps BFS traversal bit-identical to a
        # from-scratch build.
        if order is None:
            order = {node: rank for rank, node in enumerate(positions)}
        rank_of = order.__getitem__
        limit_sq = snap.radio_range * snap.radio_range
        for node in changed:
            pos = positions.get(node)
            if pos is None:
                continue  # went offline
            cell_x = math.floor(pos.x / cell)
            cell_y = math.floor(pos.y / cell)
            found: List[int] = []
            for offset_x in (-1, 0, 1):
                for offset_y in (-1, 0, 1):
                    members = grid.get((cell_x + offset_x, cell_y + offset_y))
                    if not members:
                        continue
                    for other, other_pos in members:
                        dx = pos.x - other_pos.x
                        dy = pos.y - other_pos.y
                        if dx * dx + dy * dy <= limit_sq:
                            found.append(other)
            found.sort(key=rank_of)
            adjacency[node] = found
            owned_lists.add(node)
            for other in found:
                insort(own_list(other), node, key=rank_of)
                touched.add(other)
            own_cell((cell_x, cell_y)).append((node, pos))

        for key in owned_cells:
            if not grid[key]:
                del grid[key]
        for node in touched:
            if node in adjacency:
                neighbor_sets[node] = frozenset(adjacency[node])

        snap._grid_store = grid
        if rekey:
            # A from-scratch build inserts keys in ``positions`` order, and
            # downstream set/dict iteration (seed picking in
            # connected_components, for one) is sensitive to insertion
            # order under hash collisions.  Moves and departures preserve
            # key order in place, but an appeared node lands at the end of
            # both dicts, so rebuild them in registration order.  O(N)
            # dict rebuilds; the values (lists/frozensets) stay shared.
            snap._adjacency_store = {node: adjacency[node] for node in positions}
            snap._sets_store = {
                node: neighbor_sets[node] for node in positions
            }
        else:
            snap._adjacency_store = adjacency
            snap._sets_store = neighbor_sets

        # Phase 3: carry over traversal records no edge change touched.
        # ``touched`` is exactly the set of nodes whose neighbour list
        # changed, so what a record has discovered is still a prefix of
        # the traversal iff it is disjoint from it (every expanded node
        # keeps its list; new nodes attach only to touched neighbours).
        for source, record in prev._bfs_cache.items():
            levels, parents, prefix, frontier = record
            if len(touched) <= len(levels):
                dirty = any(node in levels for node in touched)
            else:
                dirty = any(node in touched for node in levels)
            if dirty:
                continue
            if verify_retention and prev._fingerprint_over(
                levels
            ) != snap._fingerprint_over(levels):
                raise TopologyError(
                    f"retained BFS tree from {source} fails the component "
                    "edge-fingerprint check (copy-on-write aliasing bug?)"
                )
            if frontier:
                # Resuming against the new adjacency must never extend
                # what ``prev`` answers: an incomplete record is copied,
                # a complete one never grows again and stays shared.
                record = [dict(levels), dict(parents), list(prefix), list(frontier)]
            snap._bfs_cache[source] = record
        return snap

    def _fingerprint_over(self, nodes: Iterable[int]) -> int:
        """XOR of per-node edge fingerprints over ``nodes``.

        Each per-node fingerprint hashes the node id plus its ordered
        neighbour list, computed from this snapshot's actual adjacency (and
        memoised per node), so equal component fingerprints mean every
        listed node has an identical neighbourhood in both snapshots.
        """
        fingerprint = 0
        edge_fp = self._edge_fp
        adjacency = self._adjacency
        for node in nodes:
            node_fp = edge_fp.get(node)
            if node_fp is None:
                node_fp = edge_fp[node] = hash((node, tuple(adjacency[node])))
            fingerprint ^= node_fp
        return fingerprint

    def component_fingerprint(self, node: int) -> int:
        """Edge fingerprint of the connected component containing ``node``.

        Two snapshots agree on a component's fingerprint iff every member
        has an identical ordered neighbour list in both (modulo hash
        collisions), which is the retention condition for carrying a
        memoised BFS tree across an incremental update.
        """
        return self._fingerprint_over(self._bfs_from(node)[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _key_set(self) -> Set[int]:
        # CPython presizes a set built from a dict differently from one
        # built from a generic iterable, and the internal table layout
        # leaks through iteration order once elements are discarded
        # (connected_components' seed picking, for one).  Route every
        # positions mapping through a dict so array-backed and plain-dict
        # snapshots produce byte-identical set behaviour.
        positions = self.positions
        if type(positions) is not dict:
            positions = dict.fromkeys(positions)
        return set(positions)

    @property
    def nodes(self) -> Set[int]:
        """Identifiers of the online nodes in this snapshot."""
        return self._key_set()

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def neighbors(self, node: int) -> List[int]:
        """Online one-hop neighbours of ``node``."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"node {node!r} is not online in this snapshot") from None

    def has_edge(self, node_a: int, node_b: int) -> bool:
        """Check whether a radio link ``node_a -- node_b`` exists.

        Returns ``False`` (rather than raising) when either endpoint is
        not online in this snapshot, so route-liveness scans need no
        separate membership pass.  O(1) on the frozen neighbour sets; a
        from-scratch snapshot that has not built them answers its first
        queries by binary search in the CSR row instead.
        """
        sets = self._sets_store
        if sets is None:
            if self._csr is not None and self._csr_edge_queries > 0:
                # Rent before buying: a snapshot that lives one quantum
                # sees a handful of route-liveness checks, far cheaper
                # than one frozenset per node; one that keeps being
                # asked has paid about a materialisation in searches by
                # the time the allowance runs out, so it builds the sets.
                self._csr_edge_queries -= 1
                return self._csr.has_edge(node_a, node_b)
            sets = self._neighbor_sets  # materialise once, then hit the store
        members = sets.get(node_a)
        return members is not None and node_b in members

    def degree(self, node: int) -> int:
        """Number of one-hop neighbours of ``node``."""
        if self._adjacency_store is None and self._csr is not None:
            try:
                return self._csr.degree(node)
            except KeyError:
                raise TopologyError(
                    f"node {node!r} is not online in this snapshot"
                ) from None
        return len(self.neighbors(node))

    def _bfs_from(
        self,
        source: int,
        targets: Sequence[int] = (),
        max_depth: Optional[int] = None,
    ) -> list:
        """Traversal record ``[levels, parents, prefix, frontier]`` of ``source``.

        One record per source per snapshot, grown by whole levels until it
        holds one of ``targets``, depth ``max_depth`` is complete or the
        component is exhausted (the default: a full BFS), and resumed from
        its unexpanded ``frontier`` by the next query that needs more.
        Whole levels are the unit because levels ``<= d`` of a
        level-synchronous BFS — discovery order and first-discoverer
        parents included — do not depend on where it later stops.
        """
        record = self._bfs_cache.get(source)
        if record is None:
            # Both traversals produce the same tree bit-for-bit (the CSR
            # preserves registration-rank neighbour order), so the choice is
            # purely a speed call: the dict BFS is faster per source, but on a
            # big from-scratch snapshot whose adjacency was never materialised
            # the array traversal avoids paying adjacency_from_csr for what is
            # typically a single routing query.
            if (
                self._csr is not None
                and self._adjacency_store is None
                and len(self.positions) >= _FULL_BFS_CSR_MIN
            ):
                levels, parents, _, prefix = soa.bfs_from_csr(self._csr, source)
                record = [levels, parents, prefix, []]
            else:
                record = [{source: 0}, {source: source}, [1], [source]]
            self._bfs_cache[source] = record
        levels, parents, prefix, frontier = record
        if not frontier:
            return record  # complete: no adjacency to materialise for it
        adjacency = self._adjacency
        discovered = levels.keys()
        depth = len(prefix) - 1
        # Level-synchronous BFS: same discovery order as a FIFO queue, but
        # without per-node deque and depth-lookup overhead.
        while (
            frontier
            and (max_depth is None or depth < max_depth)
            and discovered.isdisjoint(targets)
        ):
            depth += 1
            next_frontier: List[int] = []
            for current in frontier:
                for neighbor in adjacency[current]:
                    if neighbor not in levels:
                        levels[neighbor] = depth
                        parents[neighbor] = current
                        next_frontier.append(neighbor)
            frontier = next_frontier
            if frontier:
                prefix.append(len(levels))
        record[3] = frontier
        return record

    @property
    def bfs_cache_size(self) -> int:
        """Number of sources with a (possibly incomplete) traversal record."""
        return len(self._bfs_cache)

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Hop-minimal path from ``source`` to ``target`` (inclusive).

        Returns ``None`` when the nodes are partitioned, ``[source]`` when
        ``source == target``.
        """
        if source not in self._members:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in self._members:
            return None
        if source == target:
            return [source]
        levels, parents, _, _ = self._bfs_from(source, (target,))
        if target not in levels:
            return None
        return self._walk_back(parents, source, target)

    @staticmethod
    def _walk_back(parents: Dict[int, int], source: int, target: int) -> List[int]:
        path = [target]
        node = target
        while node != source:
            node = parents[node]
            path.append(node)
        path.reverse()
        return path

    def hop_distance(self, source: int, target: int) -> Optional[int]:
        """Number of hops on a shortest path, or ``None`` if unreachable."""
        if source not in self._members:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in self._members:
            return None
        return self._bfs_from(source, (target,))[0].get(target)

    def bfs_levels(self, source: int, max_depth: Optional[int] = None) -> Dict[int, int]:
        """Hop distance from ``source`` for every node within ``max_depth``.

        The source itself appears with depth 0.  This drives TTL-limited
        flooding: nodes at depth ``d <= TTL`` hear the flood.  The returned
        dict preserves BFS discovery order and is a fresh copy the caller
        may mutate.
        """
        if source not in self._members:
            raise TopologyError(f"source node {source!r} is not online")
        if max_depth is not None and max_depth < 0:
            max_depth = 0  # the source alone, whichever traversal serves it
        if (
            self._csr is not None
            and max_depth is not None
            and len(self.positions) >= soa.ARRAY_REFRESH_MIN_NODES
            and source not in self._bfs_cache
        ):
            # Depth-bounded vectorized BFS: a TTL flood only needs the
            # first few levels, so skip the far side of the graph — on a
            # population that stays in arrays; under that crossover the
            # dict adjacency is the cheaper one to traverse
            # (BFS table in DESIGN.md, "Data-oriented core").  The
            # bounded run is reused while it covers the requested depth;
            # ``complete`` marks traversals that exhausted the component
            # before the bound and therefore cover any depth.
            entry = self._bfs_partial.get(source)
            if entry is None or not (entry[1] or len(entry[0][3]) - 1 >= max_depth):
                quad = soa.bfs_from_csr(self._csr, source, max_depth)
                entry = (quad, len(quad[3]) - 1 < max_depth)
                self._bfs_partial[source] = entry
            levels, _, items, prefix = entry[0]
            if max_depth >= len(prefix) - 1:
                return dict(levels)
            return dict(items[: prefix[max_depth]])
        levels, _, prefix, _ = self._bfs_from(source, max_depth=max_depth)
        # levels is in BFS discovery order, i.e. nondecreasing depth, so the
        # depth limit selects a counted prefix of the traversal.
        if max_depth is None or max_depth >= len(prefix) - 1:
            return dict(levels)
        return dict(islice(levels.items(), prefix[max_depth]))

    def nearest(
        self,
        source: int,
        candidates: Iterable[int],
        max_depth: Optional[int] = None,
    ) -> Optional[int]:
        """The online candidate fewest hops from ``source``, ties to the smallest id.

        ``None`` when no candidate is reachable (within ``max_depth`` hops,
        when given); ``source`` itself when it is a candidate.  The
        traversal stops at the first level that holds a candidate.
        """
        members = self._members
        if source not in members:
            raise TopologyError(f"source node {source!r} is not online")
        candidates = [node for node in candidates if node in members]
        if not candidates:
            return None  # nothing to stop at: no traversal either
        if max_depth is not None and max_depth < 0:
            max_depth = 0
        levels = self._bfs_from(source, candidates, max_depth)[0]
        best = min(
            ((levels[node], node) for node in candidates if node in levels),
            default=None,
        )
        if best is None or (max_depth is not None and best[0] > max_depth):
            return None
        return best[1]

    def connected_components(self) -> List[Set[int]]:
        """Partition of the online nodes into connected components."""
        remaining = self._key_set()
        components: List[Set[int]] = []
        while remaining:
            seed = next(iter(remaining))
            component = set(self.bfs_levels(seed))
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """``True`` when all online nodes form a single component."""
        if not self.positions:
            return True
        return len(self.connected_components()) == 1

    def edge_count(self) -> int:
        """Number of undirected radio links in the snapshot."""
        if self._adjacency_store is None and self._csr is not None:
            return self._csr.neighbors.shape[0] // 2
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2


class TopologyService:
    """Samples node state into cached :class:`TopologySnapshot` objects.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time.
    delta_source:
        The position ledger (:class:`repro.net.soa.SoAPositionLedger`) the
        network layer registers its nodes with.
    radio_range:
        Disc-model communication range in metres.
    quantum:
        Snapshots are reused for this many seconds.  With 20 m/s peak node
        speed, a 1 s quantum bounds position error by 20 m — well under the
        250 m radio range.

    Refreshes (new bucket, or churn inside the current one) take the
    ledger's diff against the previous snapshot: reuse, patch or rebuild
    as the module docstring lays out, the service and the ledger both
    asking :func:`repro.net.soa.refresh_patches`.  Array rebuilds take
    their candidate pairs from the service's :class:`soa.PairList`, which
    survives churn, :meth:`invalidate` and partitions and rebuilds itself
    for a new ``radio_range`` or a grown registry.

    ``incremental = False`` disables both fast paths (every refresh
    rebuilds), which the benchmarks use as the baseline.

    Counters: ``snapshots_built`` counts from-scratch builds,
    ``incremental_updates`` delta patches, ``snapshots_reused`` unchanged
    reuses, ``bfs_trees_retained`` traversal records (complete or not)
    carried across patches, and ``invalidations`` explicit
    churn/invalidate notices;
    ``pair_list_builds`` / ``pair_list_reuses`` / ``pair_list_reanchored``
    (in :meth:`stats`) say how the array rebuilds came by their
    candidate pairs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        delta_source: "soa.SoAPositionLedger",
        radio_range: float,
        quantum: float = 1.0,
    ) -> None:
        if radio_range <= 0:
            raise TopologyError(f"radio_range must be positive, got {radio_range!r}")
        if quantum <= 0:
            raise TopologyError(f"quantum must be positive, got {quantum!r}")
        self._clock = clock
        self._delta_source = delta_source
        self.radio_range = float(radio_range)
        self.quantum = float(quantum)
        self._cached: Optional[TopologySnapshot] = None
        self._cached_bucket: Optional[int] = None
        self._dirty = False
        # Registration-rank map reused across delta patches while the
        # online membership is stable (invariant: non-None only when its
        # keys equal the cached snapshot's).  Ranks depend solely on
        # registry order, so consecutive pause-heavy refreshes skip the
        # O(N) rebuild.
        self._order: Optional[Dict[int, int]] = None
        # Candidate pairs carried from one array refresh to the next.
        # Outlives the cached snapshot: invalidate() and partitions change
        # which edges a snapshot keeps, never which nodes are near.
        self._pair_list = soa.PairList()
        self.incremental = True
        self.verify_retention = False
        # Fault-injected edge suppression (network partitions).  Callers
        # that change this must call invalidate() in the same instant —
        # the fast reuse path only checks filter *identity*, so assign a
        # stable callable (the injector keeps one bound method around).
        self.edge_filter: Optional[
            Callable[[int, int, Point, Point], bool]
        ] = None
        self.snapshots_built = 0
        self.invalidations = 0
        self.snapshots_reused = 0
        self.incremental_updates = 0
        self.bfs_trees_retained = 0

    def current(self) -> TopologySnapshot:
        """Return the snapshot for the current time bucket."""
        now = self._clock()
        bucket = int(math.floor(now / self.quantum))
        cached = self._cached
        if cached is not None and bucket == self._cached_bucket and not self._dirty:
            return cached
        positions, changed = self._delta_source.refresh(now)
        self._cached_bucket = bucket
        self._dirty = False
        if (
            cached is not None
            and self.incremental
            and cached._edge_filter is self.edge_filter
        ):
            if not changed:
                self.snapshots_reused += 1
                return cached
            # Delta patching is unfiltered-only: a filtered base snapshot
            # has edges physically missing that the patch math would need.
            if self.edge_filter is None and soa.refresh_patches(
                len(positions), len(changed)
            ):
                order = self._order
                if order is None or cached.positions.keys() != positions.keys():
                    order = self._order = {
                        node: rank for rank, node in enumerate(positions)
                    }
                # The ledger never mutates a handed-out dict (it copies on
                # change), so the snapshot may hold ``positions`` directly.
                snap = TopologySnapshot.from_delta(
                    cached, positions, changed, self.verify_retention, order
                )
                self.incremental_updates += 1
                self.bfs_trees_retained += len(snap._bfs_cache)
                self._cached = snap
                return snap
        position_arrays = pair_list = None
        if not isinstance(positions, soa.ArrayPositions):
            position_arrays = self._delta_source.online_arrays()
        elif len(positions) >= soa.ARRAY_REFRESH_MIN_NODES:
            pair_list = self._pair_list
        self._cached = TopologySnapshot(
            positions,
            self.radio_range,
            edge_filter=self.edge_filter,
            position_arrays=position_arrays,
            pair_list=pair_list,
        )
        self.snapshots_built += 1
        self._order = None
        return self._cached

    def note_churn(self, node_id: int) -> None:
        """Record that ``node_id`` flipped online/offline.

        Marks the cached snapshot stale so the next :meth:`current` call
        re-diffs node state even inside the current quantum, but keeps the
        snapshot itself as the base for a delta patch — unlike
        :meth:`invalidate`, which forces a from-scratch rebuild.
        """
        self._dirty = True
        self.invalidations += 1

    def invalidate(self) -> None:
        """Drop the cached snapshot entirely (next refresh rebuilds)."""
        self._cached = None
        self._cached_bucket = None
        self._dirty = False
        self._order = None
        self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for result reporting (CLI footer, benchmarks)."""
        pairs = self._pair_list
        return {
            "snapshots_built": self.snapshots_built,
            "snapshots_reused": self.snapshots_reused,
            "incremental_updates": self.incremental_updates,
            "bfs_trees_retained": self.bfs_trees_retained,
            "invalidations": self.invalidations,
            "pair_list_builds": pairs.builds,
            "pair_list_reuses": pairs.reuses,
            "pair_list_reanchored": pairs.reanchored,
        }
