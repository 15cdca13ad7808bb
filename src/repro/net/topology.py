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

* **Array adjacency build, on demand at scale.**  A snapshot's edges are
  built by :func:`repro.net.soa.build_csr` into a compressed sparse-row
  view: at once under :data:`repro.net.soa.ARRAY_REFRESH_MIN_NODES`
  peers or with an edge filter, otherwise only when something needs
  every edge — a TTL flood reads just its neighbourhood, off the
  candidate pairs the snapshot was synced with
  (:meth:`repro.net.soa.CandidatePairs.bfs`).  The ordered neighbour
  lists (BFS and flood iteration order must stay deterministic) and the
  frozen sets behind an O(1) :meth:`TopologySnapshot.has_edge`
  materialise from the CSR only when something reads them.
* **Per-source BFS memoisation.**  A snapshot is immutable, so each
  source keeps one resumable, level-synchronous traversal record that
  grows whole levels only as far as the query at hand needs — to the
  target's level for ``shortest_path`` / ``hop_distance``, to the TTL for
  ``bfs_levels`` / ``flood_levels``, to the first level holding a
  candidate for ``nearest`` — and picks up where it stopped for the next
  one.  Levels up to ``d`` of a level-synchronous BFS do not depend on
  where it later stops, so every answer equals the full traversal's
  whatever order the queries arrive in; a unicast two hops long never
  walks its component.
* **One refresh path.**  Each refresh :class:`TopologyService` asks the
  position ledger whether any node moved, appeared or departed since the
  previous snapshot.  If none did, the previous snapshot object comes
  back — warm BFS cache and all; otherwise the ledger's arrays make the
  new one: one ``build_csr`` under
  :data:`repro.net.soa.ARRAY_REFRESH_MIN_NODES` peers, and from there on
  one sync of the candidate pairs kept from one refresh to the next
  (:class:`repro.net.soa.PairList`).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.mobility.terrain import Point
from repro.net import soa

__all__ = ["TopologySnapshot", "TopologyService"]


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
    pairs:
        The :class:`soa.PairList` version synced with ``positions`` (an
        :class:`soa.ArrayPositions` with ledger slots), which the CSR
        build takes its candidate pairs from.
    """

    #: The :class:`soa.PairList` version a :class:`_PairsSnapshot` is
    #: served from; ``None`` for a snapshot whose CSR was built at once.
    _pairs: Optional["soa.CandidatePairs"] = None

    def __init__(
        self,
        positions: Dict[int, Point],
        radio_range: float,
        edge_filter: Optional[
            Callable[[int, int, Point, Point], bool]
        ] = None,
        pairs: Optional["soa.CandidatePairs"] = None,
    ) -> None:
        # ArrayPositions (what the ledger hands out) is already an
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
        # source -> [levels, parents, prefix, frontier] of one resumable
        # level-synchronous BFS: prefix[d] counts nodes at depth <= d, so a
        # depth-limited query reads a prefix of levels; frontier holds the
        # deepest level while it is unexpanded and is empty once the
        # component is exhausted (see _bfs_from).
        self._bfs_cache: Dict[int, list] = {}
        # source -> ((levels, parents, prefix), complete) of a
        # depth-bounded vectorized BFS; levels <= the bound are identical
        # to the full traversal's, so TTL floods reuse them without ever
        # walking the whole graph.
        self._bfs_partial: Dict[int, Tuple[tuple, bool]] = {}
        # Dict-of-lists adjacency and frozen neighbour sets materialise
        # lazily: dict traversals, neighbour lists and has_edge build
        # them on demand.
        self._adjacency_store = self._sets_store = None
        self._build(pairs)

    def _build(self, pairs: Optional["soa.CandidatePairs"]) -> None:
        # Compressed sparse-row view of the adjacency; BFS traverses it in
        # array ops instead of the dict lists.
        self._csr = soa.build_csr(self.positions, self.radio_range, pairs)
        if self._edge_filter is not None:
            self._apply_edge_filter()
            self._csr = None  # filtered lists no longer match the CSR view

    @classmethod
    def from_delta(
        cls, prev: "TopologySnapshot", positions: Dict[int, Point]
    ) -> "TopologySnapshot":
        """The snapshot after ``prev`` at ``positions``: a from-scratch build.

        Nothing in the package calls this.  It keeps the name of the
        retired delta patch only because the end-to-end harness
        (``benchmarks/e2e/seams.py``) still times a seam by that name and
        its self-tests require the seam to resolve and read 0 calls; it
        leaves with that seam.
        """
        return cls(positions, prev.radio_range, edge_filter=prev._edge_filter)

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
        for node, neighbors in adjacency.items():
            pos = positions[node]
            kept = [
                other
                for other in neighbors
                if allowed(node, other, pos, positions[other])
            ]
            if len(kept) != len(neighbors):
                adjacency[node] = kept

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
        separate membership pass.  O(1) on the frozen neighbour sets,
        built on the first query.
        """
        members = self._neighbor_sets.get(node_a)
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
            record = self._bfs_cache[source] = [
                {source: 0}, {source: source}, [1], [source]
            ]
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

        The source itself appears with depth 0.  The returned dict
        preserves BFS discovery order and is a fresh copy the caller may
        mutate.
        """
        levels, prefix = self._traversal(source, max_depth)
        # levels is in BFS discovery order, i.e. nondecreasing depth, so the
        # depth limit selects a counted prefix of the traversal.
        if max_depth is None or max_depth >= len(prefix) - 1:
            return dict(levels)
        return dict(islice(levels.items(), prefix[max(max_depth, 0)]))

    def flood_levels(self, source: int, max_depth: int) -> Tuple[List[int], List[int]]:
        """What a TTL flood from ``source`` reaches, as level slices.

        Returns ``(order, prefix)``: the ids within ``max_depth`` hops in
        BFS discovery order (``source`` first), and ``prefix[d]``, the
        number of them within ``d`` hops, for every level the flood
        reaches — so depth ``d``'s nodes are
        ``order[prefix[d - 1]:prefix[d]]``.
        """
        levels, prefix = self._traversal(source, max_depth)
        depth = min(max(max_depth, 0), len(prefix) - 1)
        return list(islice(levels, prefix[depth])), prefix[: depth + 1]

    def _traversal(
        self, source: int, max_depth: Optional[int]
    ) -> Tuple[Dict[int, int], List[int]]:
        """``(levels, prefix)`` of a traversal complete to ``max_depth``.

        ``levels`` maps node to depth in discovery order and may run
        deeper than ``max_depth``; ``prefix[d]`` counts its nodes at depth
        ``<= d``.  Both belong to the snapshot's caches: read, never keep.
        """
        if source not in self._members:
            raise TopologyError(f"source node {source!r} is not online")
        if max_depth is not None and max_depth < 0:
            max_depth = 0  # the source alone, whichever traversal serves it
        if (
            self._edge_filter is None
            and max_depth is not None
            and len(self.positions) >= soa.ARRAY_REFRESH_MIN_NODES
            and source not in self._bfs_cache
        ):
            # Depth-bounded vectorized BFS: a TTL flood only needs the
            # first few levels, so skip the far side of the graph — from
            # the size crossover on; under it the dict adjacency is the
            # cheaper one to traverse.  A snapshot served from its pairs
            # runs it over their candidate rows and never needs the CSR.
            # The bounded run is reused while it covers the requested
            # depth; ``complete`` marks traversals that exhausted the
            # component before the bound and therefore cover any depth.
            entry = self._bfs_partial.get(source)
            if entry is None or not (entry[1] or len(entry[0][2]) - 1 >= max_depth):
                pairs = self._pairs
                if pairs is None:
                    tree = soa.bfs_from_csr(self._csr, source, max_depth)
                else:
                    tree = pairs.bfs(self.positions, self.radio_range, source, max_depth)
                entry = (tree, len(tree[2]) - 1 < max_depth)
                self._bfs_partial[source] = entry
            return entry[0][0], entry[0][2]
        levels, _, prefix, _ = self._bfs_from(source, max_depth=max_depth)
        return levels, prefix

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


class _PairsSnapshot(TopologySnapshot):
    """A snapshot served from its :class:`soa.PairList` version.

    What :class:`TopologyService` builds from
    :data:`soa.ARRAY_REFRESH_MIN_NODES` peers on when no edge filter is
    set: TTL floods run over the version's candidate rows, and ``_csr``
    is built from the same version only when a query needs every edge.
    A subclass, so that ``_csr`` stays a plain attribute on the paper's
    50 peers.
    """

    _csr_store: Optional["soa.CsrAdjacency"] = None

    def _build(self, pairs: "soa.CandidatePairs") -> None:
        self._pairs = pairs

    @property
    def _csr(self) -> "soa.CsrAdjacency":
        csr = self._csr_store
        if csr is None:
            csr = self._csr_store = soa.build_csr(
                self.positions, self.radio_range, self._pairs
            )
        return csr


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

    Refreshes (new bucket, or churn inside the current one) ask the
    ledger whether anything changed since the previous snapshot: reuse
    it if nothing did, rebuild from the ledger's arrays if anything did.
    From :data:`soa.ARRAY_REFRESH_MIN_NODES` peers a rebuild syncs the
    service's :class:`soa.PairList` once and hands the snapshot that
    version; the list survives churn, :meth:`invalidate` and partitions
    and rebuilds itself for a new ``radio_range`` or a grown registry.

    Counters: ``snapshots_built`` counts builds, ``snapshots_reused``
    unchanged reuses and ``invalidations`` explicit churn/invalidate
    notices; ``pair_list_builds`` / ``pair_list_reuses`` /
    ``pair_list_reanchored`` (in :meth:`stats`) say how the rebuilds
    came by their candidate pairs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        delta_source: "soa.SoAPositionLedger",
        radio_range: float,
        quantum: float = 1.0,
    ) -> None:
        # ``not x > 0``, not ``x <= 0``: NaN must fail too.
        if not radio_range > 0:
            raise TopologyError(f"radio_range must be positive, got {radio_range!r}")
        if not quantum > 0:
            raise TopologyError(f"quantum must be positive, got {quantum!r}")
        self._clock = clock
        self._delta_source = delta_source
        self.radio_range = float(radio_range)
        self.quantum = float(quantum)
        self._cached: Optional[TopologySnapshot] = None
        self._cached_bucket: Optional[int] = None
        self._dirty = False
        # Candidate pairs carried from one refresh to the next.
        # Outlives the cached snapshot: invalidate() and partitions change
        # which edges a snapshot keeps, never which nodes are near.
        self._pair_list = soa.PairList()
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
            not changed
            and cached is not None
            and cached._edge_filter is self.edge_filter
        ):
            self.snapshots_reused += 1
            return cached
        pairs = None
        if positions and len(positions) >= soa.ARRAY_REFRESH_MIN_NODES:
            pairs = self._pair_list.sync(positions, self.radio_range)
        served_from_pairs = pairs is not None and self.edge_filter is None
        snapshot_class = _PairsSnapshot if served_from_pairs else TopologySnapshot
        self._cached = snapshot_class(
            positions, self.radio_range, edge_filter=self.edge_filter, pairs=pairs
        )
        self.snapshots_built += 1
        return self._cached

    def note_churn(self, node_id: int) -> None:
        """Record that ``node_id`` flipped online/offline.

        Marks the cached snapshot stale so the next :meth:`current` call
        re-diffs node state even inside the current quantum: it builds a
        new snapshot unless the node has flipped back in between.
        """
        self._dirty = True
        self.invalidations += 1

    def invalidate(self) -> None:
        """Drop the cached snapshot: the next refresh builds one even if
        nothing moved (a new ``radio_range`` or ``edge_filter``)."""
        self._cached = None
        self._cached_bucket = None
        self._dirty = False
        self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for result reporting (CLI footer, benchmarks)."""
        pairs = self._pair_list
        return {
            "snapshots_built": self.snapshots_built,
            "snapshots_reused": self.snapshots_reused,
            "invalidations": self.invalidations,
            "pair_list_builds": pairs.builds,
            "pair_list_reuses": pairs.reuses,
            "pair_list_reanchored": pairs.reanchored,
        }
