"""Struct-of-arrays kernels of the per-quantum hot loop.

The numpy kernels the network layer runs every topology quantum:

* :func:`build_csr` — the adjacency build of a
  :class:`~repro.net.topology.TopologySnapshot`: candidate pairs and
  their distance pass a block at a time, then CSR assembly.
* :class:`PairList` — candidate pairs kept across refreshes (a Verlet
  neighbour list in ledger-slot space), handed out one immutable
  :class:`CandidatePairs` version per refresh.
* :func:`bfs_from_csr` and :meth:`CandidatePairs.bfs` — level-synchronous
  BFS over the CSR, or over a version's candidate rows with the distance
  test applied per entry, both in the dict traversal's discovery order.
* :class:`SoAPositionLedger` — positions, online flags and validity
  deadlines in contiguous arrays, sampled by the bulk mobility kernels
  (:mod:`repro.mobility.bulk`) and diffed per refresh.

What a snapshot is built and served *from* depends on its size.  Under
:data:`ARRAY_REFRESH_MIN_NODES` peers every changed refresh is one
:func:`build_csr` and it is arrays in, dicts out (traversals on the dict
adjacency materialised once from the CSR, membership a hash lookup).
From there on a changed refresh only syncs the :class:`PairList`: TTL
floods run the depth-bounded BFS over the version's candidate rows,
membership is a binary search, and the CSR is built from the same
version only when something needs every edge.  What each constant below
buys on the committed benchmark rows is in
``docs/decisions/02-earned-constants.md``.  Results depend on neither:
float arithmetic is IEEE-754 double precision in one fixed operation
order (``dx*dx + dy*dy <= r*r``) and every observable ordering is
registration rank — the contract ``tests/oracle.py`` states by brute
force and the property tests hold every path here to.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro._np import np
from repro.errors import TopologyError
from repro.mobility import bulk
from repro.mobility.terrain import Point

__all__ = [
    "ArrayPositions",
    "CsrAdjacency",
    "CandidatePairs",
    "PairList",
    "build_csr",
    "adjacency_from_csr",
    "bfs_from_csr",
    "SoAPositionLedger",
]

#: Population from which the candidate stage of :func:`build_csr`
#: buckets points into a grid; below it the stage lists every pair
#: (one cached triangle of ranks): n(n-1)/2 distance tests cost less
#: than the grid's fixed bookkeeping.
GRID_MIN_NODES = 128

#: Grid lookups the candidate stage expands and distance-tests at a
#: time, out of the five per point: it holds one block's candidates, not
#: the whole batch's.  Populations under a fifth of it run one block.
CANDIDATE_BLOCK = 4096

#: Online population from which a snapshot is served from its arrays: a
#: changed refresh syncs a :class:`PairList` instead of building the CSR,
#: TTL floods run the depth-bounded :meth:`CandidatePairs.bfs` instead of
#: the dict traversal, and membership is a binary search in the ids
#: (:meth:`ArrayPositions.members`) instead of a hash set.  Below it every
#: changed refresh is one :func:`build_csr`; the property tests drop it to
#: cover the array side on small graphs.
ARRAY_REFRESH_MIN_NODES = 512

#: Reuse margin of :class:`PairList` as a share of the radio range: the
#: list holds pairs out to ``(1 + PAIR_SKIN) * radio_range`` and serves
#: until a node has drifted about half the margin.  Wider lives longer
#: but lists more pairs for every distance pass.
PAIR_SKIN = 0.1

#: Drift from its anchor, as a share of the skin, at which a node counts
#: as a stray.  The superset argument needs <= 1/2; the rest is margin
#: for float rounding, orders of magnitude wider than any it could meet.
_PAIR_DRIFT_SHARE = 0.49


# ----------------------------------------------------------------------
# Adjacency build
# ----------------------------------------------------------------------
def _ragged_take(starts: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """Indices of the concatenation of ``arange(s, s+c)`` per (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # One fused repeat: start - exclusive-prefix-sum per group, so adding
    # arange(total) yields start + within-group offset in a single pass.
    cum = np.cumsum(counts)
    base = starts + counts
    base -= cum
    out = np.repeat(base, counts)
    out += np.arange(total, dtype=np.int64)
    return out


class CsrAdjacency:
    """Compressed sparse-row adjacency over registration ranks.

    ``neighbors[indptr[r]:indptr[r+1]]`` lists the neighbour *ranks* of
    the node at rank ``r``, ascending; ``ids[r]`` maps rank back to node
    id.  The id-to-rank table materialises lazily — BFS needs it for one
    source lookup, and many snapshots are never traversed at all.
    """

    __slots__ = ("indptr", "neighbors", "ids", "_rank_table", "_ids_sorted")

    def __init__(self, indptr, neighbors, ids) -> None:
        self.indptr = indptr
        self.neighbors = neighbors
        self.ids = ids
        self._rank_table: Optional[Dict[int, int]] = None
        self._ids_sorted: Optional[bool] = None

    def rank_of(self, node: int) -> int:
        ids_sorted = self._ids_sorted
        if ids_sorted is None:
            # Registration order normally assigns ascending ids, so a
            # binary search replaces the per-snapshot Python dict of every
            # node; one cached vector compare validates the assumption.
            ids = self.ids
            ids_sorted = self._ids_sorted = bool(
                ids.shape[0] == 0 or bool((ids[1:] > ids[:-1]).all())
            )
        if ids_sorted:
            ids = self.ids
            try:
                index = int(ids.searchsorted(node))
            except (TypeError, ValueError):  # not comparable with an id
                raise KeyError(node) from None
            if index < ids.shape[0] and int(ids[index]) == node:
                return index
            raise KeyError(node)
        table = self._rank_table
        if table is None:
            table = self._rank_table = {
                node_id: rank for rank, node_id in enumerate(self.ids.tolist())
            }
        return table[node]

    def degree(self, node: int) -> int:
        """Neighbour count of ``node``; ``KeyError`` when it is not a row."""
        rank = self.rank_of(node)
        return int(self.indptr[rank + 1] - self.indptr[rank])


_all_pairs: Optional[Tuple["np.ndarray", "np.ndarray"]] = None


def _all_pairs_below(n: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Every rank pair ``a < b < n``, as read-only views of one cached triangle.

    The triangle is ordered by ``b`` then ``a``, so the pairs below any
    ``n`` are its first ``n(n-1)/2`` entries: one array pair, regrown
    only for a larger ``n`` than any before, serves every population
    under :data:`GRID_MIN_NODES` without allocating.
    """
    global _all_pairs
    count = n * (n - 1) // 2
    if _all_pairs is None or _all_pairs[0].shape[0] < count:
        cand_b, cand_a = np.tril_indices(n, -1)
        cand_a.setflags(write=False)
        cand_b.setflags(write=False)
        _all_pairs = (cand_a, cand_b)
    return _all_pairs[0][:count], _all_pairs[1][:count]


def _near_pairs(
    xs: "np.ndarray", ys: "np.ndarray", cutoff: float
) -> Tuple["np.ndarray", "np.ndarray", int]:
    """Candidate pairs and the distance pass over them, fused.

    Returns ``(near_a, near_b, candidates)``: the rank pairs with
    ``dx*dx + dy*dy <= cutoff * cutoff``, each unordered pair once, and
    how many candidate pairs were tested to find them.  Under
    :data:`GRID_MIN_NODES` points the candidates are every pair; from
    there on the points are bucketed into a uniform grid of
    ``cutoff``-sized squares (1 when ``cutoff`` is not positive) and the
    candidates come from the same or from adjacent cells, expanded and
    tested :data:`CANDIDATE_BLOCK` cell lookups at a time: the stage
    holds the near pairs and one block's candidates, never every
    candidate at once.
    """
    n = xs.shape[0]
    limit_sq = cutoff * cutoff
    if n < GRID_MIN_NODES:
        cand_a, cand_b = _all_pairs_below(n)
        near = _pairs_within(xs, ys, cand_a, cand_b, limit_sq)
        return cand_a[near], cand_b[near], int(cand_a.shape[0])
    cell = cutoff if cutoff > 0 else 1.0
    # Cell coordinates match the lazy grid's math.floor(x / cell) exactly.
    cx = np.floor(xs / cell).astype(np.int64)
    cy = np.floor(ys / cell).astype(np.int64)
    # Linearise with a +1 margin so the ±1 offsets below stay in range.
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    height = int(cy.max()) + 2
    table_size = int(cx.max() + 2) * height
    keys = cx * height + cy
    del cx, cy

    order = np.argsort(keys, kind="stable")  # rank order within each cell
    sorted_keys = keys[order]
    # Group boundaries of the (already sorted) keys: np.unique would sort
    # again, a flag-diff scan gets starts/counts in O(n).
    flags = np.empty(n, dtype=bool)
    flags[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    starts = np.nonzero(flags)[0]
    uniq = sorted_keys[starts]
    del flags, sorted_keys
    counts = np.empty(starts.shape[0], dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = n - starts[-1]

    # Cell lookup: a dense key -> group table beats a log-n searchsorted
    # join whenever the grid is compact (the usual terrain); degenerate
    # sparse grids keep the searchsorted path.
    group_of = None
    if table_size <= 4 * n + 1024:
        group_of = np.full(table_size, -1, dtype=np.int64)
        group_of[uniq] = np.arange(uniq.shape[0], dtype=np.int64)

    # Offset (0, 0) yields every ordered same-cell pair (the a < b filter
    # below keeps each unordered pair once); the four half-neighbourhood
    # offsets each yield every cross-cell pair exactly once.  The five
    # offsets form one (5, n) lookup batch whose row-major flattening
    # keeps the exact offset-then-rank candidate order of a per-offset
    # loop; it is walked in contiguous blocks, so the near pairs come out
    # in that order too.
    offsets = np.array(
        [0, height, 1, height + 1, 1 - height], dtype=np.int64
    ).reshape(5, 1)
    total = 5 * n
    near_a: List["np.ndarray"] = []
    near_b: List["np.ndarray"] = []
    candidates = 0
    for lo in range(0, total, CANDIDATE_BLOCK):
        hi = min(lo + CANDIDATE_BLOCK, total)
        first, last = lo // n, (hi - 1) // n
        if hi - lo == total:  # the whole batch
            block = (keys + offsets).ravel()
        elif first == last:  # inside one offset row
            block = keys[lo - first * n:hi - first * n] + offsets[first]
        else:  # the rows it spans, cut to the block
            block = (keys + offsets[first:last + 1]).ravel()[lo - first * n:hi - first * n]
        if group_of is not None:
            slot = group_of[block]
            valid = slot >= 0
        else:
            slot = np.searchsorted(uniq, block)
            slot[slot >= len(uniq)] = 0
            valid = uniq[slot] == block
        nz = np.nonzero(valid)[0]
        slot_sel = slot.take(nz)
        if lo:
            nz += lo
        # Row index within the flattened (5, n) matrix mod n is the rank.
        a_sel = nz % n
        g_count = counts[slot_sel]
        take = _ragged_take(starts[slot_sel], g_count)
        b_rank = order[take]
        a_rank = np.repeat(a_sel, g_count)
        if lo < n:
            # Same-cell rows: offset 0 is the first n rows of the
            # flattened matrix, so their expanded candidates form a
            # prefix of the block's; a < b keeps each unordered
            # same-cell pair once.
            head = int(g_count[: int(np.searchsorted(nz, n))].sum())
            keep = np.ones(a_rank.shape[0], dtype=bool)
            np.less(a_rank[:head], b_rank[:head], out=keep[:head])
            a_rank = a_rank[keep]
            b_rank = b_rank[keep]
        candidates += int(a_rank.shape[0])
        near = _pairs_within(xs, ys, a_rank, b_rank, limit_sq)
        near_a.append(a_rank[near])
        near_b.append(b_rank[near])
    if len(near_a) == 1:
        return near_a[0], near_b[0], candidates
    return np.concatenate(near_a), np.concatenate(near_b), candidates


def _norm_sq(dx: "np.ndarray", dy: "np.ndarray") -> "np.ndarray":
    """``dx*dx + dy*dy``, in that operation order (the oracle's, too).

    Runs in place — the result is ``dx`` — to avoid intermediate arrays.
    """
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _pairs_within(
    xs: "np.ndarray",
    ys: "np.ndarray",
    cand_a: "np.ndarray",
    cand_b: "np.ndarray",
    limit_sq: float,
) -> "np.ndarray":
    """The distance pass: which candidate pairs are in range.

    One fused pass over the candidates, ``dx*dx + dy*dy <= limit_sq``.
    """
    dx = xs.take(cand_a)
    dx -= xs.take(cand_b)
    dy = ys.take(cand_a)
    dy -= ys.take(cand_b)
    return _norm_sq(dx, dy) <= limit_sq


def _assemble_csr(
    half_src: "np.ndarray", half_dst: "np.ndarray", n: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Stage 2 of :func:`build_csr`: ``(indptr, neighbors)`` over ``n`` ranks.

    ``(half_src, half_dst)`` lists each undirected edge once, in any
    order and either direction: the sort below fixes the result.
    """
    # Per-node lists ascending by rank: registration order.
    # (src, dst) pairs are unique, so sorting the fused key src*n+dst
    # in place gives exactly the lexsort((dst, src)) order without the
    # argsort-and-gather round trip.
    fused = np.concatenate((half_src, half_dst))
    fused *= n
    fused[: half_src.shape[0]] += half_dst
    fused[half_src.shape[0]:] += half_src
    fused.sort()
    src = fused // n
    # Row r ends where the sources <= r end: a count per source and one
    # running sum (isolated ranks count zero and repeat the boundary).
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dst = fused  # reuse the sorted buffer: dst = fused mod n in place
    dst -= src * n
    return indptr, dst


def build_csr(
    positions: Dict[int, Point],
    radio_range: float,
    pairs: Optional["CandidatePairs"] = None,
) -> CsrAdjacency:
    """Unit-disc adjacency over ``positions``.

    Returns the :class:`CsrAdjacency` whose per-node neighbour segments
    list, in registration order, every other node within
    ``radio_range`` (:func:`adjacency_from_csr` materialises the
    dict-of-lists view on demand).  Node ids must fit int64: anything
    else raises :class:`~repro.errors.TopologyError`.

    Two stages: the in-range pairs (:func:`_near_pairs`: candidate pairs
    and the distance pass over them, a block at a time), then CSR
    assembly (:func:`_assemble_csr`).  ``pairs`` — the :class:`PairList`
    version synced with ``positions``, an :class:`ArrayPositions` that
    carries ledger slots — may stand in for the candidates with a
    superset of the in-range pairs kept from earlier refreshes; the same
    distance pass (:func:`_pairs_within`) filters them and the assembly
    sorts, so the result is bit-identical to the list-less call.
    """
    n = len(positions)
    slots = None
    if isinstance(positions, ArrayPositions):
        ids, xs, ys, slots = positions.ids, positions.xs, positions.ys, positions.slots
    else:
        try:
            ids = np.fromiter(positions.keys(), dtype=np.int64, count=n)
        except (OverflowError, TypeError, ValueError):
            for bad in positions:  # the first id an int64 cannot hold
                if not isinstance(bad, (int, np.integer)) or not -(2**63) <= bad < 2**63:
                    break
            raise TopologyError(
                "node ids must be integers that fit int64, got "
                f"{bad!r} ({type(bad).__name__})"
            ) from None
        xs = np.fromiter((p.x for p in positions.values()), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in positions.values()), dtype=np.float64, count=n)

    if n == 0:
        return CsrAdjacency(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    if pairs is not None:
        cand_a, cand_b = pairs.ranked(slots)
        near = _pairs_within(xs, ys, cand_a, cand_b, radio_range * radio_range)
        near_a, near_b = cand_a[near], cand_b[near]
    else:
        near_a, near_b, _ = _near_pairs(xs, ys, radio_range)
    indptr, neighbors = _assemble_csr(near_a, near_b, n)
    return CsrAdjacency(indptr, neighbors, ids)


def adjacency_from_csr(csr: CsrAdjacency) -> Dict[int, List[int]]:
    """Materialise the dict-of-lists view of ``csr``.

    Deferred out of :func:`build_csr` because the per-quantum hot path
    (BFS, floods, membership tests) runs entirely on the arrays; only
    direct neighbour-list consumers pay for the Python dict.
    """
    ids_list = csr.ids.tolist()
    nbr_ids = csr.ids[csr.neighbors].tolist() if csr.neighbors.size else []
    bounds = csr.indptr.tolist()
    adjacency: Dict[int, List[int]] = {}
    lo = 0
    for index, node in enumerate(ids_list):
        hi = bounds[index + 1]
        adjacency[node] = nbr_ids[lo:hi]
        lo = hi
    return adjacency


# ----------------------------------------------------------------------
# BFS over the CSR
# ----------------------------------------------------------------------
def bfs_from_csr(
    csr: CsrAdjacency, source: int, max_depth: Optional[int] = None
) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
    """BFS tree from ``source`` over a CSR adjacency.

    Returns the ``(levels, parents, prefix)`` of the dict traversal's
    record in ``TopologySnapshot._bfs_from`` — including discovery order
    and parent choice (see :func:`_bfs_rows`).

    ``max_depth`` stops the traversal once every node at that depth is
    discovered — levels ``<= max_depth`` of a bounded run are identical to
    the same levels of a full run, so TTL-limited floods can skip the far
    side of a large graph entirely.
    """
    return _bfs_rows(csr.indptr, csr.neighbors, csr.ids, csr.rank_of(source), max_depth)


def _bfs_rows(
    indptr: "np.ndarray",
    nbrs: "np.ndarray",
    row_ids: "np.ndarray",
    src: int,
    max_depth: Optional[int],
    near: Optional[Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]] = None,
) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
    """The level loop of both array BFS entry points.

    ``nbrs[indptr[r]:indptr[r+1]]`` lists the rows adjacent to row ``r``,
    ascending in rank order; ``row_ids[r]`` is the node id of row ``r``.
    ``near(parents, candidates)``, when given, is a per-entry mask of the
    entries that are edges.  The dict traversal scans each level's
    frontier in order and each frontier node's neighbours in rank order,
    keeping the first discovery; taking the first occurrence over the
    concatenated candidate stream reproduces that, discovery order and
    parents included.
    """
    seen = np.zeros(row_ids.shape[0], dtype=bool)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    row_chunks = [frontier]
    parent_chunks = [frontier]
    prefix: List[int] = [1]
    while max_depth is None or len(prefix) - 1 < max_depth:
        counts = indptr[frontier + 1] - indptr[frontier]
        take = _ragged_take(indptr[frontier], counts)
        if take.size == 0:
            break
        candidates = nbrs[take]
        parents_of = np.repeat(frontier, counts)
        fresh = ~seen[candidates]
        if near is not None:
            fresh &= near(parents_of, candidates)
        candidates = candidates[fresh]
        if candidates.size == 0:
            break
        parents_of = parents_of[fresh]
        uniq, first = np.unique(candidates, return_index=True)
        discovery = np.argsort(first, kind="stable")
        frontier = uniq[discovery]
        seen[frontier] = True
        row_chunks.append(frontier)
        parent_chunks.append(parents_of[first[discovery]])
        prefix.append(prefix[-1] + int(frontier.shape[0]))

    node_ids = row_ids[np.concatenate(row_chunks)].tolist()
    parent_ids = row_ids[np.concatenate(parent_chunks)].tolist()
    sizes = [c.shape[0] for c in row_chunks]
    depths = np.repeat(np.arange(len(sizes)), sizes).tolist()
    levels = dict(zip(node_ids, depths))
    parents = dict(zip(node_ids, parent_ids))
    return levels, parents, prefix


# ----------------------------------------------------------------------
# Array-backed positions mapping
# ----------------------------------------------------------------------
class ArrayPositions(Mapping):
    """Immutable, registration-ordered node-to-position mapping over arrays.

    The ledger hands one out for every changed refresh: the snapshot
    rebuild that follows consumes the arrays directly, so the per-node
    ``Point`` dict — the dominant cost of a refresh at scale — only
    materialises if something actually reads positions (tests,
    partition filters).  Iteration order is the slot (registration)
    order of the backing arrays; values are Python floats, so a
    materialised entry equals what ``node.current_position()`` returned.
    """

    __slots__ = ("ids", "xs", "ys", "slots", "_dict", "_key_set")

    def __init__(
        self,
        ids: "np.ndarray",
        xs: "np.ndarray",
        ys: "np.ndarray",
        slots: Optional["np.ndarray"] = None,
    ) -> None:
        self.ids = ids
        self.xs = xs
        self.ys = ys
        #: Ledger slot of each entry, ascending — fixed for the run, so a
        #: :class:`PairList` can follow nodes through churn.
        self.slots = slots
        self._dict: Optional[Dict[int, Point]] = None
        #: ``frozenset`` of the ids, or ``False`` for "binary-search ``ids``".
        self._key_set = None

    def materialized(self) -> Dict[int, Point]:
        """The equivalent plain dict, built once on first demand."""
        mapping = self._dict
        if mapping is None:
            mapping = self._dict = {
                node: Point(px, py)
                for node, px, py in zip(
                    self.ids.tolist(), self.xs.tolist(), self.ys.tolist()
                )
            }
        return mapping

    def __getitem__(self, node: int) -> Point:
        return self.materialized()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def members(self):
        """The container to ask ``node in ...`` of, decided once.

        From :data:`ARRAY_REFRESH_MIN_NODES` ids a binary search (this
        mapping itself) saves a Python set of every node per snapshot —
        registration order normally assigns ascending ids.  Below, the
        set costs less to build than one search: membership is a hash
        lookup, never a numpy call.
        """
        keys = self._key_set
        if keys is None:
            ids = self.ids
            if ids.shape[0] >= ARRAY_REFRESH_MIN_NODES and bool(
                (ids[1:] > ids[:-1]).all()
            ):
                # Not ``self``: a self-reference would leave the arrays
                # to the cyclic collector (+8 % peak RSS at 10k peers).
                keys = False
            else:
                keys = frozenset(ids.tolist())
            self._key_set = keys
        return self if keys is False else keys

    def __contains__(self, node: object) -> bool:
        keys = self._key_set
        if keys is None:
            self.members()
            keys = self._key_set
        if keys is not False:
            return node in keys
        ids = self.ids
        try:
            index = int(ids.searchsorted(node))
        except (TypeError, ValueError):
            return False
        return index < ids.shape[0] and bool(ids[index] == node)


# ----------------------------------------------------------------------
# Candidate-pair reuse across refreshes
# ----------------------------------------------------------------------
class CandidatePairs:
    """One version of a :class:`PairList`: its pairs as one refresh left them.

    ``pair_a``/``pair_b`` are ledger slots, each listed pair once, over
    ``capacity`` slots.  Never mutated: the list makes a new version
    whenever its pairs change, so a snapshot answers from the version it
    was synced with however far the list has moved on since.
    """

    __slots__ = ("pair_a", "pair_b", "capacity", "_rows")

    def __init__(self, pair_a: "np.ndarray", pair_b: "np.ndarray", capacity: int) -> None:
        self.pair_a = pair_a
        self.pair_b = pair_b
        self.capacity = capacity
        # (indptr, neighbours) over slots, assembled on the first flood.
        self._rows: Optional[Tuple["np.ndarray", "np.ndarray"]] = None

    def ranked(self, slots: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """The listed pairs with both ends online, as ranks into ``slots``."""
        rank_of = np.full(self.capacity, -1, dtype=np.int64)
        rank_of[slots] = np.arange(slots.shape[0], dtype=np.int64)
        cand_a = rank_of[self.pair_a]
        cand_b = rank_of[self.pair_b]
        # An offline end maps to -1, whose sign bit survives the OR.
        online = (cand_a | cand_b) >= 0
        return cand_a[online], cand_b[online]

    def bfs(
        self,
        positions: "ArrayPositions",
        radio_range: float,
        source: int,
        max_depth: Optional[int],
    ) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
        """:func:`bfs_from_csr` of ``build_csr(positions, radio_range, self)``.

        Runs over the candidate rows in slot space instead, testing each
        entry it reaches with the distance pass's ``dx*dx + dy*dy <= r*r``
        — so it reads the listed pairs around ``source`` and never the
        whole graph.  Slots rise with rank, so rows ascending in slot
        order are ascending in rank order, which is what discovery order
        and parents need.  ``source`` must be online in ``positions``.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = _assemble_csr(self.pair_a, self.pair_b, self.capacity)
        slots = positions.slots
        # Slot-space copies; an offline slot's NaN fails every distance test.
        xs = np.full(self.capacity, math.nan)
        ys = np.full(self.capacity, math.nan)
        row_ids = np.zeros(self.capacity, dtype=np.int64)
        xs[slots] = positions.xs
        ys[slots] = positions.ys
        row_ids[slots] = positions.ids
        src = int(slots[np.flatnonzero(positions.ids == source)[0]])
        limit_sq = radio_range * radio_range
        return _bfs_rows(
            rows[0], rows[1], row_ids, src, max_depth,
            lambda parents, candidates: _pairs_within(xs, ys, parents, candidates, limit_sq),
        )


class PairList:
    """Candidate pairs kept across refreshes (a skin / Verlet neighbour list).

    A cache in front of the candidate stage of :func:`build_csr`.  The
    list lives in the ledger's *slot* space, which churn never renumbers.
    Every slot it knows has an **anchor** — the position it was last
    paired at — and the list holds exactly the pairs of anchored slots
    whose anchors lie within ``radio_range + skin`` of each other.  While
    every online node is within ``skin / 2`` of its anchor, two nodes in
    range of each other have anchors at most ``range + skin`` apart, so
    the listed pairs with both ends online are a superset of the in-range
    pairs; the distance pass and the sorting assembly that follow make
    the CSR bit-identical to a from-scratch build.

    :meth:`sync`, its one entry point, runs once per changed refresh: one
    vector pass checks the online nodes' drift, and then the list is
    reused, re-anchors the few strays (nodes back from offline somewhere
    else, or never anchored), or is rebuilt through :func:`_near_pairs`
    when re-pairing the strays against every anchor would cost more than
    that.
    """

    __slots__ = (
        "builds", "reuses", "reanchored",
        "_range", "_anchor_x", "_anchor_y", "_pairs", "_build_work",
    )

    def __init__(self) -> None:
        #: Lists built through the candidate stage.
        self.builds = 0
        #: Refreshes served from a kept list (re-anchored strays included).
        self.reuses = 0
        #: Stray nodes re-paired against the anchors, over all reuses.
        self.reanchored = 0
        self._range: Optional[float] = None
        self._anchor_x = self._anchor_y = None
        self._pairs: Optional[CandidatePairs] = None
        # Candidates the last build expanded plus points it bucketed:
        # what re-pairing k strays against every anchor is weighed against.
        self._build_work = 0

    def sync(self, positions: "ArrayPositions", radio_range: float) -> CandidatePairs:
        """The version covering every in-range pair of ``positions``.

        ``positions`` must be non-empty and carry ledger slots.
        """
        slots, xs, ys = positions.slots, positions.xs, positions.ys
        skin = PAIR_SKIN * radio_range
        if self._range == radio_range and int(slots[-1]) < self._anchor_x.shape[0]:
            drift = _PAIR_DRIFT_SHARE * skin
            moved_sq = _norm_sq(xs - self._anchor_x[slots], ys - self._anchor_y[slots])
            # Not ``>``: a never-anchored slot's NaN must read as a stray.
            strays = np.nonzero(~(moved_sq <= drift * drift))[0]
            if strays.shape[0] * self._anchor_x.shape[0] <= self._build_work:
                if strays.shape[0]:
                    self._reanchor(
                        slots[strays], xs[strays], ys[strays], radio_range + skin
                    )
                self.reuses += 1
                return self._pairs
        self._build(slots, xs, ys, radio_range, skin)
        return self._pairs

    def _build(self, slots, xs, ys, radio_range: float, skin: float) -> None:
        """Anchor the online nodes where they are and pair them from scratch."""
        near_a, near_b, candidates = _near_pairs(xs, ys, radio_range + skin)
        capacity = int(slots[-1]) + 1
        self._pairs = CandidatePairs(slots[near_a], slots[near_b], capacity)
        self._anchor_x = np.full(capacity, math.nan)
        self._anchor_y = np.full(capacity, math.nan)
        self._anchor_x[slots] = xs
        self._anchor_y[slots] = ys
        self._range = radio_range
        self._build_work = candidates + int(slots.shape[0])
        self.builds += 1

    def _reanchor(self, stray_slots, sx, sy, cutoff: float) -> None:
        """Move the strays' anchors to where they are now and re-pair them."""
        anchor_x, anchor_y = self._anchor_x, self._anchor_y
        old = self._pairs
        is_stray = np.zeros(anchor_x.shape[0], dtype=bool)
        is_stray[stray_slots] = True
        kept = ~(is_stray[old.pair_a] | is_stray[old.pair_b])
        pair_a = [old.pair_a[kept]]
        pair_b = [old.pair_b[kept]]
        anchor_x[stray_slots] = sx
        anchor_y[stray_slots] = sy
        cutoff_sq = cutoff * cutoff
        for slot, x, y in zip(stray_slots.tolist(), sx.tolist(), sy.tolist()):
            apart_sq = _norm_sq(anchor_x - x, anchor_y - y)
            partners = np.nonzero(apart_sq <= cutoff_sq)[0]  # NaN anchors drop out
            # Two strays pair once, from the lower slot; never with itself.
            partners = partners[~is_stray[partners] | (partners > slot)]
            pair_a.append(np.full(partners.shape[0], slot, dtype=np.int64))
            pair_b.append(partners)
        self._pairs = CandidatePairs(
            np.concatenate(pair_a), np.concatenate(pair_b), old.capacity
        )
        self.reanchored += int(stray_slots.shape[0])


# ----------------------------------------------------------------------
# Position ledger
# ----------------------------------------------------------------------
class SoAPositionLedger:
    """Positions, online flags and validity deadlines as contiguous arrays.

    The network's position cache *and* the topology service's change
    diff.  Each :meth:`refresh` performs the whole per-quantum position
    pass in a few vector operations:

    1. Batched validity expiry — ``online & (valid_until < now)`` wakes
       only the nodes whose windows actually lapsed.
    2. Bulk mobility — each :mod:`repro.mobility.bulk` kernel evaluates
       its lapsed members in one shot (a ``current_position()`` call
       per node only for unrecognised models).
    3. Change detection — whether any node moved, appeared or departed,
       from array comparisons against the last *reported* state.

    A changed refresh hands out :class:`ArrayPositions` over freshly
    gathered arrays and builds no ``Point`` at all; the mapping is never
    mutated after it is handed out, so snapshots may keep references
    without aliasing hazards.

    Online state is maintained from the network's churn notifications
    (:meth:`note_state`) — the :class:`~repro.net.node.NetworkNode`
    contract requires every flip to call ``notify_state_change``.
    """

    def __init__(self) -> None:
        self._nodes: List = []
        self._slot_of: Dict[int, int] = {}
        self._ids: List[int] = []
        self._pending: List = []
        self._kernels: Dict[type, object] = {}
        self._x = np.empty(0, dtype=np.float64)
        self._y = np.empty(0, dtype=np.float64)
        self._valid_until = np.empty(0, dtype=np.float64)
        self._online = np.empty(0, dtype=bool)
        self._reported_online = np.empty(0, dtype=bool)
        self._reported_x = np.empty(0, dtype=np.float64)
        self._reported_y = np.empty(0, dtype=np.float64)
        self._positions: Mapping[int, Point] = {}
        self._ids_arr = np.empty(0, dtype=np.int64)

    def add(self, node) -> None:
        """Track ``node`` (called at network registration)."""
        slot = len(self._nodes) + len(self._pending)
        self._slot_of[node.node_id] = slot
        self._pending.append(node)

    def note_state(self, node) -> None:
        """Record an online/offline flip (network churn notification)."""
        slot = self._slot_of[node.node_id]
        if slot < self._online.shape[0]:
            self._online[slot] = node.online
        # Pending nodes are absorbed with their live online flag.

    def _absorb_pending(self) -> None:
        start = len(self._nodes)
        fresh = self._pending
        self._pending = []
        self._nodes.extend(fresh)
        self._ids.extend([node.node_id for node in fresh])
        # One batch per kernel, in slot order; a model class is looked up
        # once, not once per node.
        batches: Dict[type, Tuple[List[int], list]] = {}
        routes: Dict[type, tuple] = {}
        for slot, node in enumerate(fresh, start):
            model = getattr(node, "mobility", None)
            route = routes.get(type(model))
            if route is None:
                kernel_cls = bulk.kernel_class_for(model)
                batch = batches.setdefault(kernel_cls, ([], []))
                route = routes[type(model)] = batch + (kernel_cls is bulk.FallbackKernel,)
            slots, members, by_node = route
            slots.append(slot)
            members.append(node if by_node else model)
        for kernel_cls, (slots, members) in batches.items():
            kernel = self._kernels.get(kernel_cls)
            if kernel is None:
                kernel = self._kernels[kernel_cls] = kernel_cls()
            kernel.extend(slots, members)
        total = len(self._nodes)

        def grow(old, fill, dtype):
            fresh_arr = np.full(total, fill, dtype=dtype)
            fresh_arr[: old.shape[0]] = old
            return fresh_arr

        self._x = grow(self._x, math.nan, np.float64)
        self._y = grow(self._y, math.nan, np.float64)
        self._valid_until = grow(self._valid_until, -math.inf, np.float64)
        self._online = grow(self._online, False, bool)
        self._reported_online = grow(self._reported_online, False, bool)
        self._reported_x = grow(self._reported_x, math.nan, np.float64)
        self._reported_y = grow(self._reported_y, math.nan, np.float64)
        self._online[start:] = [node.online for node in fresh]
        self._ids_arr = np.asarray(self._ids, dtype=np.int64)

    def refresh(self, now: float) -> Tuple[Mapping[int, Point], bool]:
        """Sample lapsed windows and diff against the last reported state.

        Returns ``(positions, changed)``: the registration-ordered mapping
        of online node to position, and whether any node moved, appeared
        or departed since the previous report.  Unchanged, ``positions``
        is the mapping that report handed out.
        """
        if self._pending:
            self._absorb_pending()
        online = self._online
        valid_until = self._valid_until
        lapsed = online & (valid_until < now)
        if lapsed.any():
            x, y = self._x, self._y
            for kernel in self._kernels.values():
                local = kernel.local_needs(lapsed)
                if local.size:
                    kernel.sample(now, local, x, y, valid_until)

        moved = lapsed & self._reported_online & (
            (self._x != self._reported_x) | (self._y != self._reported_y)
        )
        if not moved.any() and np.array_equal(online, self._reported_online):
            return self._positions, False

        refreshed = np.nonzero(lapsed)[0]
        self._reported_x[refreshed] = self._x[refreshed]
        self._reported_y[refreshed] = self._y[refreshed]
        self._reported_online = online.copy()
        slots = np.nonzero(online)[0]
        self._positions = ArrayPositions(
            self._ids_arr[slots], self._x[slots], self._y[slots], slots
        )
        return self._positions, True
