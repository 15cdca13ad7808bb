"""Struct-of-arrays kernels of the per-quantum hot loop.

The numpy kernels the network layer runs every topology quantum:

* :func:`build_csr` — the adjacency build of every
  :class:`~repro.net.topology.TopologySnapshot`, the paper's 50 peers
  included: candidate pairs, one distance pass, CSR assembly.
* :class:`PairList` — candidate pairs kept across refreshes (a Verlet
  neighbour list in ledger-slot space).
* :func:`bfs_from_csr` — level-synchronous BFS over the CSR, in the dict
  traversal's discovery order.
* :class:`SoAPositionLedger` — positions, online flags and validity
  deadlines in contiguous arrays, sampled by the bulk mobility kernels
  (:mod:`repro.mobility.bulk`) and diffed per refresh.

No population is too small for the arrays: every changed refresh hands
the ledger's arrays to one :func:`build_csr`.  What does depend on size
is what a snapshot serves *from*: under :data:`ARRAY_REFRESH_MIN_NODES`
peers it is arrays in, dicts out (traversals on the dict adjacency
materialised once from the CSR, membership a hash lookup); from there on
it stays in arrays (CSR traversals, binary-search membership).  Results
depend on neither: float arithmetic is IEEE-754 double precision in one
fixed operation order (``dx*dx + dy*dy <= r*r``) and every observable
ordering is registration rank — the contract ``tests/oracle.py`` states
by brute force and the property tests hold every path here to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.mobility import bulk
from repro.mobility.terrain import Point

__all__ = [
    "ArrayPositions",
    "CsrAdjacency",
    "PairList",
    "build_csr",
    "adjacency_from_csr",
    "bfs_from_csr",
    "SoAPositionLedger",
]

#: Population from which the candidate stage of :func:`build_csr`
#: buckets points into a grid; below it the stage lists every pair
#: (one cached triangle of ranks): n(n-1)/2 distance tests cost less
#: than the grid's fixed bookkeeping (all-pairs-vs-grid table in
#: DESIGN.md, "Data-oriented core").
GRID_MIN_NODES = 128

#: Online population from which a snapshot is served from its arrays:
#: TTL floods run the depth-bounded :func:`bfs_from_csr` instead of the
#: dict traversal, membership is a binary search in the ids
#: (:meth:`ArrayPositions.members`) instead of a hash set, and the
#: rebuild takes its candidate pairs from a :class:`PairList`.  Every
#: changed refresh is a :func:`build_csr` either side of it (BFS table
#: in DESIGN.md, "Data-oriented core"); the property tests drop it to
#: cover the array side on small graphs.
ARRAY_REFRESH_MIN_NODES = 512

#: Reuse margin of :class:`PairList` as a share of the radio range: the
#: list holds pairs out to ``(1 + PAIR_SKIN) * radio_range`` and serves
#: until a node has drifted about half the margin.  Wider lives longer
#: but lists more pairs for every distance pass (skin table in
#: DESIGN.md, "Data-oriented core").
PAIR_SKIN = 0.1

#: Drift from its anchor, as a share of the skin, at which a node counts
#: as a stray.  The superset argument needs <= 1/2; the rest is margin
#: for float rounding, orders of magnitude wider than any it could meet.
_PAIR_DRIFT_SHARE = 0.49

#: Refreshes a :class:`PairList` sits out after a list died unused.
PAIR_LIST_NAP = 16


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

    def has_edge(self, node_a: int, node_b: int) -> bool:
        """Whether ``node_b`` is in ``node_a``'s row (``False`` for non-rows)."""
        try:
            rank_a = self.rank_of(node_a)
            rank_b = self.rank_of(node_b)
        except KeyError:
            return False
        # Rows are rank-ascending, so membership is one binary search.
        lo = int(self.indptr[rank_a])
        hi = int(self.indptr[rank_a + 1])
        neighbors = self.neighbors
        index = bisect_left(neighbors, rank_b, lo, hi)
        return index < hi and int(neighbors[index]) == rank_b


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


def _candidate_pairs(
    xs: "np.ndarray", ys: "np.ndarray", cell: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Stage 1 of :func:`build_csr`: candidate pairs.

    Returns ``(cand_a, cand_b)`` rank arrays holding a superset of the
    pairs within ``cell`` of each other, each unordered pair once.
    Under :data:`GRID_MIN_NODES` points that is every pair; from there
    on the points are bucketed into a uniform grid of ``cell``-sized
    squares and the pairs come from the same or from adjacent cells.
    """
    n = xs.shape[0]
    if n < GRID_MIN_NODES:
        return _all_pairs_below(n)
    # Cell coordinates match the lazy grid's math.floor(x / cell) exactly.
    cx = np.floor(xs / cell).astype(np.int64)
    cy = np.floor(ys / cell).astype(np.int64)
    # Linearise with a +1 margin so the ±1 offsets below stay in range.
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    height = int(cy.max()) + 2
    keys = cx * height + cy

    order = np.argsort(keys, kind="stable")  # rank order within each cell
    sorted_keys = keys[order]
    # Group boundaries of the (already sorted) keys: np.unique would sort
    # again, a flag-diff scan gets starts/counts in O(n).
    flags = np.empty(n, dtype=bool)
    flags[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    starts = np.nonzero(flags)[0]
    uniq = sorted_keys[starts]
    counts = np.empty(starts.shape[0], dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = n - starts[-1]

    # Cell lookup: a dense key -> group table beats a log-n searchsorted
    # join whenever the grid is compact (the usual terrain); degenerate
    # sparse grids keep the searchsorted path.
    table_size = int(cx.max() + 2) * height
    group_of = None
    if table_size <= 4 * n + 1024:
        group_of = np.full(table_size, -1, dtype=np.int64)
        group_of[uniq] = np.arange(uniq.shape[0], dtype=np.int64)

    # Offset (0, 0) yields every ordered same-cell pair (the a < b filter
    # below keeps each unordered pair once); the four half-neighbourhood
    # offsets each yield every cross-cell pair exactly once.  All five
    # offsets run as one
    # batched (5, n) lookup; row-major flattening keeps the exact
    # offset-then-rank candidate order of the per-offset loop.
    offsets = np.array(
        [0, height, 1, height + 1, 1 - height], dtype=np.int64
    ).reshape(5, 1)
    targets = (keys + offsets).ravel()
    if group_of is not None:
        slot = group_of[targets]
        valid = slot >= 0
    else:
        slot = np.searchsorted(uniq, targets)
        slot[slot >= len(uniq)] = 0
        valid = uniq[slot] == targets
    # Offset 0 always finds a node's own cell, so nz is never empty.
    nz = np.nonzero(valid)[0]
    slot_sel = slot.take(nz)
    # Row index within the flattened (5, n) matrix mod n is the rank.
    a_sel = nz % n
    g_count = counts[slot_sel]
    take = _ragged_take(starts[slot_sel], g_count)
    b_rank = order[take]
    a_rank = np.repeat(a_sel, g_count)
    # Same-cell block: offset 0 is the first n rows of the flattened
    # matrix, so its expanded candidates form a prefix; a < b keeps
    # each unordered same-cell pair once.
    head = int(g_count[: int(np.searchsorted(nz, n))].sum())
    keep = np.ones(a_rank.shape[0], dtype=bool)
    np.less(a_rank[:head], b_rank[:head], out=keep[:head])
    return a_rank[keep], b_rank[keep]


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
    """Stage 2 of :func:`build_csr`: which candidate pairs are in range.

    One fused pass over every candidate, ``dx*dx + dy*dy <= limit_sq``.
    """
    dx = xs.take(cand_a)
    dx -= xs.take(cand_b)
    dy = ys.take(cand_a)
    dy -= ys.take(cand_b)
    return _norm_sq(dx, dy) <= limit_sq


def _assemble_csr(
    half_src: "np.ndarray", half_dst: "np.ndarray", n: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Stage 3 of :func:`build_csr`: ``(indptr, neighbors)`` over ``n`` ranks.

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
    pair_list: Optional["PairList"] = None,
) -> CsrAdjacency:
    """Unit-disc adjacency over ``positions``.

    Returns the :class:`CsrAdjacency` whose per-node neighbour segments
    list, in registration order, every other node within
    ``radio_range`` (:func:`adjacency_from_csr` materialises the
    dict-of-lists view on demand).  Node ids must fit int64: anything
    else raises :class:`~repro.errors.TopologyError`.

    Three stages: candidate pairs (:func:`_candidate_pairs`), the
    distance pass over them (:func:`_pairs_within`), CSR assembly
    (:func:`_assemble_csr`).  ``pair_list`` — honoured when ``positions``
    is an :class:`ArrayPositions` that carries ledger slots — may stand
    in for the first stage with a superset of the in-range pairs kept
    from earlier refreshes (:class:`PairList`); the other two stages run
    unchanged and the assembly sorts, so the result is bit-identical to
    the list-less call.
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
    candidates = None
    if pair_list is not None and slots is not None:
        candidates = pair_list.candidates(slots, xs, ys, radio_range)
    if candidates is None:
        candidates = _candidate_pairs(xs, ys, radio_range if radio_range > 0 else 1.0)
    cand_a, cand_b = candidates
    near = _pairs_within(xs, ys, cand_a, cand_b, radio_range * radio_range)
    indptr, neighbors = _assemble_csr(cand_a[near], cand_b[near], n)
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
) -> Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], List[int]]:
    """BFS tree from ``source`` over a CSR adjacency.

    Returns the same ``(levels, parents, items, prefix)`` quadruple as the
    dict traversal in ``TopologySnapshot._bfs_from`` — including discovery
    order and parent choice: within each depth that loop scans the frontier in
    order and each frontier node's neighbours in rank order, keeping the
    first discovery; taking the first occurrence over the concatenated
    candidate stream reproduces that exactly.

    ``max_depth`` stops the traversal once every node at that depth is
    discovered — levels ``<= max_depth`` of a bounded run are identical to
    the same levels of a full run, so TTL-limited floods can skip the far
    side of a large graph entirely.
    """
    indptr, nbrs, ids = csr.indptr, csr.neighbors, csr.ids
    src = csr.rank_of(source)
    n = ids.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    rank_chunks = [frontier]
    parent_chunks = [frontier]
    prefix: List[int] = [1]
    while True:
        if max_depth is not None and len(prefix) - 1 >= max_depth:
            break
        counts = indptr[frontier + 1] - indptr[frontier]
        take = _ragged_take(indptr[frontier], counts)
        if take.size == 0:
            break
        candidates = nbrs[take]
        parents_of = np.repeat(frontier, counts)
        fresh = ~seen[candidates]
        candidates = candidates[fresh]
        if candidates.size == 0:
            break
        parents_of = parents_of[fresh]
        uniq, first = np.unique(candidates, return_index=True)
        discovery = np.argsort(first, kind="stable")
        frontier = uniq[discovery]
        seen[frontier] = True
        rank_chunks.append(frontier)
        parent_chunks.append(parents_of[first[discovery]])
        prefix.append(prefix[-1] + int(frontier.shape[0]))

    all_ranks = np.concatenate(rank_chunks)
    node_ids = ids[all_ranks].tolist()
    parent_ids = ids[np.concatenate(parent_chunks)].tolist()
    sizes = [c.shape[0] for c in rank_chunks]
    depths = np.repeat(np.arange(len(sizes)), sizes).tolist()
    levels = dict(zip(node_ids, depths))
    parents = dict(zip(node_ids, parent_ids))
    items = list(zip(node_ids, depths))
    return levels, parents, items, prefix


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

    Per refresh, :meth:`candidates` checks the online nodes' drift in one
    vector pass and then either reuses the list, re-anchors the few
    strays (nodes back from offline somewhere else, or never anchored),
    or rebuilds it through :func:`_candidate_pairs` when re-pairing the
    strays against every anchor would cost more than that.  A list that
    has to be rebuilt before a single reuse means nodes move too far per
    refresh for any of this to pay; the list then sits out the next
    :data:`PAIR_LIST_NAP` refreshes (the caller runs the plain candidate
    stage) and tries again, so the worst case stays the list-less cost.
    """

    __slots__ = (
        "builds", "reuses", "reanchored",
        "_range", "_anchor_x", "_anchor_y", "_pair_a", "_pair_b",
        "_build_work", "_unused", "_nap",
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
        self._pair_a = self._pair_b = None
        # Candidates the last build expanded plus points it bucketed:
        # what re-pairing k strays against every anchor is weighed against.
        self._build_work = 0
        self._unused = False  # built and not reused since
        self._nap = 0  # refreshes left to sit out

    def candidates(
        self,
        slots: "np.ndarray",
        xs: "np.ndarray",
        ys: "np.ndarray",
        radio_range: float,
    ) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """Rank pairs covering every in-range pair, or ``None`` (sit out).

        ``slots`` are the ledger slots of the online nodes, ascending,
        with ``xs``/``ys`` their positions; the returned arrays index
        into those.
        """
        if self._nap:
            self._nap -= 1
            return None
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
                self._unused = False
                return self._ranked(slots)
            if self._unused:
                # Outrun before its first reuse: forget the list, sit out.
                self._range = None
                self._nap = PAIR_LIST_NAP
                return None
        self._build(slots, xs, ys, radio_range, skin)
        return self._ranked(slots)

    def _ranked(self, slots) -> Tuple["np.ndarray", "np.ndarray"]:
        """The listed pairs with both ends online, as ranks into ``slots``."""
        rank_of = np.full(self._anchor_x.shape[0], -1, dtype=np.int64)
        rank_of[slots] = np.arange(slots.shape[0], dtype=np.int64)
        cand_a = rank_of[self._pair_a]
        cand_b = rank_of[self._pair_b]
        # An offline end maps to -1, whose sign bit survives the OR.
        online = (cand_a | cand_b) >= 0
        return cand_a[online], cand_b[online]

    def _build(self, slots, xs, ys, radio_range: float, skin: float) -> None:
        """Anchor the online nodes where they are and pair them from scratch."""
        cutoff = radio_range + skin
        cand_a, cand_b = _candidate_pairs(xs, ys, cutoff)
        near = _pairs_within(xs, ys, cand_a, cand_b, cutoff * cutoff)
        self._pair_a = slots[cand_a[near]]
        self._pair_b = slots[cand_b[near]]
        capacity = int(slots[-1]) + 1
        self._anchor_x = np.full(capacity, math.nan)
        self._anchor_y = np.full(capacity, math.nan)
        self._anchor_x[slots] = xs
        self._anchor_y[slots] = ys
        self._range = radio_range
        self._build_work = int(cand_a.shape[0]) + int(slots.shape[0])
        self._unused = True
        self.builds += 1

    def _reanchor(self, stray_slots, sx, sy, cutoff: float) -> None:
        """Move the strays' anchors to where they are now and re-pair them."""
        anchor_x, anchor_y = self._anchor_x, self._anchor_y
        is_stray = np.zeros(anchor_x.shape[0], dtype=bool)
        is_stray[stray_slots] = True
        kept = ~(is_stray[self._pair_a] | is_stray[self._pair_b])
        pair_a = [self._pair_a[kept]]
        pair_b = [self._pair_b[kept]]
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
        self._pair_a = np.concatenate(pair_a)
        self._pair_b = np.concatenate(pair_b)
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
        touched = set()
        for offset, node in enumerate(fresh):
            slot = start + offset
            self._nodes.append(node)
            self._ids.append(node.node_id)
            model = getattr(node, "mobility", None)
            kernel_cls = bulk.kernel_class_for(model)
            kernel = self._kernels.get(kernel_cls)
            if kernel is None:
                kernel = self._kernels[kernel_cls] = kernel_cls()
            member = node if kernel_cls is bulk.FallbackKernel else model
            kernel.add(slot, member)
            touched.add(kernel)
        for kernel in touched:
            kernel.finalize()
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
        for offset, node in enumerate(fresh):
            self._online[start + offset] = node.online
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
