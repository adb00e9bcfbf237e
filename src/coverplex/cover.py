"""Partial interval covers of a level curve and the full point-set
decomposition built from them.

``compute_cover`` colors a small set of points per round so that every wedge
with apex on the curve sees every round's color while no curve position is
covered by more than two chosen intervals per round.  ``decompose_points``
iterates it over all polygon vertices, reserving extreme points so that later
iterations keep enough load.  The vertex loop builds each level curve's
position index once, over all points, and the loads, the reservation and
the block solver read it for the points still uncolored.
``_grid_cells`` runs the same vertex loop per grid cell of the reflected
polygon, the reduction that ``decompose_translates`` and the planar
scheduler share.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate
from operator import itemgetter, mul
from typing import NamedTuple

from .geometry import (ConvexPolygon, cell_partition, grid_spec, reflect,
                       strict_support_edges)
from .levelcurve import (LevelCurve, canonical_positions,
                         position_index_ranges, vertex_items)

# unused here; perfbench/tracer.py patches this name in this module
from .levelcurve import min_load_on_curve  # noqa: F401


class CoverPreconditionError(ValueError):
    """Some curve position has fewer than 2t candidate points.  Its
    ``position`` is an index into the curve's canonical positions, or, from
    the vertex loop, the position there as (main, eps) pairs."""

    def __init__(self, position, have, need):
        super().__init__(position, have, need)
        self.position, self.have, self.need = position, have, need

    def __str__(self):
        return "curve position %r has %d candidates, need %d" % (
            self.position, self.have, self.need)


@dataclass
class ColorAssignment:
    """Partial coloring of points.  ``colors`` maps point id to a color
    number; colors 1..T are common to every vertex iteration, higher numbers
    were produced by some iterations only."""

    colors: dict = field(default_factory=dict)
    T: int = 0


class IterationRecord(NamedTuple):
    i: int
    L: int
    t: int
    x_size: int
    colored: int


@dataclass
class DecompositionTrace:
    records: list = field(default_factory=list)
    below_threshold: bool = False


def compute_cover(index, items, t: int):
    """Color generating points of curve intervals with rounds 1..t.

    ``index`` is (K, ranges) = position_index_ranges(curve, A)[0] for any
    item set A that holds ``items``: A's positions only split the
    stretches between those of ``items``, on which the wedge content of
    ``items`` is constant, so the colors are the same.  Every position
    must be contained in at least 2t of the items' wedges, or a
    CoverPreconditionError names the first index k below that.  The
    intervals are sorted once, by start and then containing intervals
    first; each round keeps an interval iff it covers a still-uncovered
    position, prunes redundant kept intervals, and colors the survivors'
    points with the round number.  Returns {point id: round}.

    Every earlier kept interval starts no later, so the covered part of
    [lo, K) is [lo, reach] with reach the largest kept end: an interval is
    kept iff hi > reach, and the kept intervals form a chain with strictly
    increasing starts and ends.  The prune scans the chain in reverse; on a
    chain the nearest earlier interval and the nearest later survivor cover
    whatever any others do, so kept[j] (j > 0) is redundant iff a later
    survivor starts by kept[j - 1]'s end + 1.  kept[0] alone covers
    position 0 and the last alone reaches K - 1, so both survive.  A
    whole-range interval sorts first and alone covers every position, so
    the first rounds take those by id, one each.  With at least 2t of them
    every position has 2t candidates and the answer is the first t whole
    ids, returned before any interval is sorted or depth counted: O(n log
    n).  Otherwise each call costs O(n log n + K + t n) for n intervals
    over K positions.
    """
    if t <= 0:
        return {}
    K, ranges = index
    full = (0, K - 1)
    whole = sorted([pid for (_, _, pid, _w) in items if ranges[pid] == full])
    if len(whole) >= 2 * t:  # every position lies in 2t whole ranges
        return dict(zip(whole, range(1, t + 1)))
    intervals = sorted(
        [(rng[0], rng[1], pid) for (_, _, pid, _w) in items
         if (rng := ranges[pid]) is not None and rng != full],
        key=lambda iv: (iv[0], -iv[1], iv[2]))

    depth = [0] * (K + 1)
    depth[0], depth[K] = len(whole), -len(whole)
    for lo, hi, _ in intervals:
        depth[lo] += 1
        depth[hi + 1] -= 1
    if min(accumulate(depth[:K])) < 2 * t:
        idx, have = next((idx, run) for idx, run
                         in enumerate(accumulate(depth)) if run < 2 * t)
        raise CoverPreconditionError(idx, have, 2 * t)

    colors = dict(zip(whole, range(1, t + 1)))
    remaining = intervals
    for round_no in range(len(colors) + 1, t + 1):
        kept = []
        reach = -1
        for iv in remaining:
            if iv[1] > reach:
                kept.append(iv)
                reach = iv[1]
                if reach == K - 1:
                    break
        # the chain prune above; survivors are listed last first
        pruned = [kept[-1]]
        for j in range(len(kept) - 2, -1, -1):
            if j == 0 or pruned[-1][0] > kept[j - 1][1] + 1:
                pruned.append(kept[j])
        # every position lies in one or two survivors: the ends are
        # covered, consecutive survivors meet and survivors two apart are
        # disjoint
        assert pruned[-1][0] == 0 and pruned[0][1] == K - 1
        assert all(b[0] <= a[1] + 1 for b, a in zip(pruned, pruned[1:]))
        assert all(c[0] > a[1] for c, a in zip(pruned, pruned[2:]))
        for _, _, pid in pruned:
            colors[pid] = round_no
        remaining = [iv for iv in remaining if iv[2] not in colors]
    return colors


class _RankTable:
    """The members of a clique ranked 1..n along one direction, and the
    boundary of their reserved run: ``thr``, the lowest reserved rank, and
    ``S``, the weight of the members ranked ``thr`` and up.

    ``weights[r - 1]`` is the weight of the item of rank r.  A join or a
    leave sets one bit and moves ``total``, and ``S`` when its rank is at
    or above ``thr``: O(1).  ``settle`` moves the boundary from where the
    last one left it, one member looked at per step, and reads a Fenwick
    tree of the member weights only when it has not settled within WALK
    steps (AFTER_TREE right after a tree read).  The tree is built from
    the slots at its first read; later reads replay the joins and leaves
    since the last one, or build it again when more than n are pending.
    """

    WALK = 16
    AFTER_TREE = 2

    def __init__(self, weights, members):
        """A table of the ranks 1..len(weights) whose ``members`` join
        first."""
        self.n = n = len(weights)
        self.w = w = [0, *weights]
        self.bits = bits = bytearray(n + 1)
        for r in members:
            bits[r] = 1
        self.total = sum(map(w.__getitem__, members))
        self.thr, self.S = n + 1, 0
        self.walk = self.WALK
        self.tree = self.pending = None

    def join(self, r):
        self.bits[r] = 1
        w = self.w[r]
        self.total += w
        if r >= self.thr:
            self.S += w
        if self.pending is not None:
            self.pending.append(r)

    def leave(self, r):
        self.bits[r] = 0
        w = self.w[r]
        self.total -= w
        if r >= self.thr:
            self.S -= w
        if self.pending is not None:
            self.pending.append(-r)

    def settle(self, target):
        """The lowest reserved rank: the largest member rank whose members
        from it up weigh at least ``target``, for 0 < target <= total."""
        bits, w = self.bits, self.w
        thr, S, steps = self.thr, self.S, self.walk
        if S < target:  # take in members from below until S reaches target
            while steps:
                thr = bits.rfind(1, 0, thr)
                S += w[thr]
                if S >= target:
                    break
                steps -= 1
            else:
                return self.descend(target)
        else:  # let the lowest reserved member go while the rest suffice
            while steps:
                thr = bits.find(1, thr)
                if S - w[thr] < target:
                    break
                S -= w[thr]
                thr += 1
                steps -= 1
            else:
                return self.descend(target)
        self.thr, self.S, self.walk = thr, S, self.WALK
        return thr

    def descend(self, target):
        """``settle`` by one descent of the Fenwick tree, brought up to
        date first."""
        t, pending, n = self.tree, self.pending, self.n
        if t is None or len(pending) > n:
            self.tree = t = [*map(mul, self.w, self.bits)]
            for i in range(1, n + 1):
                if (j := i + (i & -i)) <= n:
                    t[j] += t[i]
            self.pending = []
        else:
            w = self.w
            for r in pending:
                d = w[r] if r > 0 else -w[-r]
                r = abs(r)
                while r <= n:
                    t[r] += d
                    r += r & -r
            pending.clear()
        # the largest x whose prefix weight is at most total - target
        rem = self.total - target
        x = 0
        step = 1 << n.bit_length()
        while step:
            if (y := x + step) <= n and t[y] <= rem:
                rem -= t[y]
                x = y
            step >>= 1
        self.thr, self.S, self.walk = x + 1, target + rem, self.AFTER_TREE
        return x + 1


def _reserved_filter(poly, i, u_sorted, index, items, target):
    """The items that survive the extreme-prefix reservation, in the order
    of ``items``.

    ``index`` is (K, ranges) = position_index_ranges(curve, A)[0] for an
    item set A that holds ``items``, as for compute_cover.  At each curve
    position, the minimal prefix of current wedge members in decreasing
    order along every reserved direction whose total weight reaches
    ``target`` is reserved; a point survives if some position has it as a
    non-reserved member.  With unit weights the prefix is simply the first
    ``target`` points.  With no reserved direction (no strict support edge
    at vertex i), no target or no member, every item with a range
    survives.

    Frame j's U is the key along edge j's inward normal, ties broken by the
    general-position shift, times a positive constant, so the ranks come
    from ``u_sorted[j]``: frame j's items in U order (LevelCurve.items), a
    superset of ``items`` that orders the members as their own ranks would.

    Only the maximal-clique positions of the items' ranges are queried: the
    range ends with some range starting after the previous end.  This is
    exact: every position's members are a subset of some clique's, and more
    members (weights >= 1) only push a member further below the top prefix,
    so a member that survives anywhere in its range survives at a clique
    inside it.

    Whole-curve items (range every position) are members of every clique.
    Along a reserved direction, the items from the top down to the one
    where the whole items' weight reaches ``target`` form that direction's
    band; no lower rank is ever reserved there, since at every position the
    band's whole items are members and already reach ``target``.  An item
    below every direction's band survives, and only the band, the union of
    the directions' bands, is swept.  The argument above applies to the
    band's own cliques: whether a band item is reserved along a direction
    depends only on the members above it, which lie in that direction's
    band, and every band clique's total reaches ``target``.  When the whole
    items fall short of ``target``, the band is every item with a range.

    One sweep over the band's cliques keeps a _RankTable of member weights
    by rank per reserved direction, and settles each table once per
    clique for the rank from which members are reserved.  A join or a
    leave is O(1).  A settle moves the previous clique's boundary: O(1)
    while it moves by fewer than WALK members (its scan skips non-members
    at C speed), and otherwise one Fenwick descent after the deferred
    joins and leaves are replayed, O(log band) plus O(log band) per
    deferred event, so a clique never costs more than a descent per
    direction on a tree updated at every event.  A min-heap holds the
    first direction's ranks of the members not yet kept; a clique pops
    those below its threshold and keeps a popped member unless another
    direction reserves it (then it goes back).  Each band item joins,
    leaves and is kept once: O(items) set-up plus O((band + band cliques)
    log band) with one direction, any weights, of which the tables take
    O(band + band cliques) while no boundary moves by WALK members or
    more.
    """
    support = sorted(strict_support_edges(poly, i))
    K, ranges = index
    if not support or target <= 0:
        return [it for it in items if ranges[it[2]] is not None]
    weight = {pid: w for (_, _, pid, w) in items if ranges[pid] is not None}
    if not weight:
        return []
    orders = [[pid for (_, _, pid, _w) in u_sorted[j] if pid in weight]
              for j in support]
    # whole-curve items are members of every clique: along a direction, no
    # rank below the one where their weight from the top reaches target is
    # reserved, so the items below every direction's band survive and only
    # the band is swept
    keep = set()  # ids of the survivors
    band = weight
    full = (0, K - 1)
    if sum([w for pid, w in weight.items() if ranges[pid] == full]) >= target:
        band = set()
        for order in orders:
            need = target
            for pid in reversed(order):
                band.add(pid)
                if ranges[pid] == full and (need := need - weight[pid]) <= 0:
                    break
        keep = weight.keys() - band
        orders = [[pid for pid in order if pid in band] for order in orders]
    # each direction ranks the band 1..n in its U order; ranks[d][r] is the
    # rank along direction d + 1 of the first's rank r
    n = len(orders[0])
    ranks = [[0, *map(dict(zip(order, range(1, n + 1))).__getitem__,
                      orders[0])] for order in orders[1:]]
    spans = [(*ranges[pid], r) for r, pid in enumerate(orders[0], 1)]
    # members join at the first position of their range and leave after the
    # last; the order within one position changes no sum and no member set
    adds = sorted(spans, key=itemgetter(0))
    leaves = sorted(spans, key=itemgetter(1))
    add_at = [*map(itemgetter(0), adds), K]
    leave_at = [*map(itemgetter(1), leaves)]
    # the first clique ends at the first leave; its members are the sorted
    # candidates
    c = leave_at[0]
    a = bisect_right(add_at, c)
    heap = sorted(map(itemgetter(2), adds[:a]))
    first = _RankTable([*map(weight.__getitem__, orders[0])], heap)
    join, leave, settle = first.join, first.leave, first.settle
    others = [(_RankTable([*map(weight.__getitem__, order)],
                          [*map(rank.__getitem__, heap)]), rank)
              for order, rank in zip(orders[1:], ranks)]
    kept = []  # ranks, along the first direction, of the survivors
    a2, e, e2 = a, 0, 0
    while True:
        if first.total >= target:
            # members from rank thr up are reserved
            thr = settle(target)
            k = len(kept)
            if e:
                while heap and heap[0] < thr:
                    r = heappop(heap)
                    if spans[r - 1][1] >= c:  # still a member
                        kept.append(r)
            else:  # e is 0 only at the first clique: all are members
                j = bisect_left(heap, thr)
                kept, heap[:j] = heap[:j], []
            if others:
                # the other tables catch up on the events since their last
                # settle, joins first: an item may join and leave between
                # two settles; a member they reserve stays a candidate
                for table, rank in others:
                    for (_, _, r) in adds[a2:a]:
                        table.join(rank[r])
                    for (_, _, r) in leaves[e2:e]:
                        table.leave(rank[r])
                a2, e2 = a, e
                thrs = [table.settle(target) for table, _ in others]
                popped, kept[k:] = kept[k:], []
                for r in popped:
                    if all(rank[r] < th for (_, rank), th in zip(others,
                                                                 thrs)):
                        kept.append(r)
                    else:
                        heappush(heap, r)
        if (x := add_at[a]) == K:
            keep.update(orders[0][r - 1] for r in kept)
            return [it for it in items if it[2] in keep]
        # the next clique is the first end at or after the next start
        while leave_at[e] < x:
            leave(leaves[e][2])
            e += 1
        c = leave_at[e]
        while add_at[a] <= c:
            r = adds[a][2]
            heappush(heap, r)
            join(r)
            a += 1


def _iterate_vertices(poly, points, level, solve_block, weights=None,
                      ids=None):
    """The vertex loop of the point decomposition and the planar scheduler.

    For each vertex i of ``poly``: the minimum load L of the items not yet
    chosen over the level curves i..n-1, t = L // (64n), the extreme-prefix
    reservation at L // (2n), then ``solve_block(index, x_items, t)``, which
    chooses surviving items as {id: value}; skipped when t is 0.

    The frames share one D and B, and each edge's key column serves the
    two frames beside it (vertex_items).  Each curve's position index is
    built once, over all of the items, and every later query on that curve
    reads it: the loads of the items still live, the reservation and the
    block solver.  The positions of all items refine those of any subset,
    and a subset's wedge content is constant between its own positions,
    so the answers are those of an index built from the subset.  While
    nothing is chosen, every item is live.  Each curve's load is one
    difference array over its index, built in the walk that builds the
    index; a block's chosen items are subtracted from the curves still to
    come.  Curve i's index and load are dropped at vertex i, and no curve
    is held: a block solver's CoverPreconditionError has its position
    index decoded to (main, eps) pairs on curve i built anew, the only
    decoding of a position.  Returns the chosen map and one
    IterationRecord per vertex, whose last field counts the chosen items.
    """
    n = poly.n
    frames, all_items = vertex_items(poly, points, weights=weights, ids=ids)
    u_sorted, indexes, loads = [], [], []  # U order ranks reservations
    for frame, items in zip(frames, all_items):
        curve = LevelCurve(frame, level, items)
        u_sorted.append(curve.items)
        index, diff = position_index_ranges(curve, items)
        indexes.append(index)
        loads.append(diff)
    weight_of = {pid: w for (_, _, pid, w) in all_items[0]}

    chosen = {}
    records = []
    for i in range(n):
        L = min(min(accumulate(diff[:-1])) for diff in loads[i:])
        index, indexes[i], loads[i] = indexes[i], None, None
        t_i = L // (64 * n)
        if t_i == 0:
            records.append(IterationRecord(i, L, 0, 0, 0))
            continue
        live = all_items[i]
        if chosen:
            live = [it for it in live if it[2] not in chosen]
        x_items = _reserved_filter(poly, i, u_sorted, index, live,
                                   L // (2 * n))
        try:
            block = solve_block(index, x_items, t_i)
        except CoverPreconditionError as exc:  # name the position by pairs
            curve = LevelCurve(frames[i], level, all_items[i])
            exc.position = tuple(map(frames[i].split, canonical_positions(
                curve, all_items[i])[exc.position]))
            raise
        chosen.update(block)
        # the chosen items leave the loads of the curves still to come
        for (_, ranges), diff in zip(indexes[i + 1:], loads[i + 1:]):
            for pid in block:
                rng = ranges[pid]
                if rng is not None:
                    diff[rng[0]] -= weight_of[pid]
                    diff[rng[1] + 1] += weight_of[pid]
        records.append(IterationRecord(i, L, t_i, len(x_items), len(block)))
    return chosen, records


def decompose_points(poly: ConvexPolygon, points, k: int):
    """Color points so that every wedge with apex on a level-k curve contains
    all common colors 1..T; returns (ColorAssignment, DecompositionTrace).

    Wedges are the cones at the vertices of ``poly`` itself; callers working
    with translates reflect first.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    colors, records = _iterate_vertices(poly, points, k, compute_cover)
    T = min(r.t for r in records)
    return (ColorAssignment(colors=colors, T=T),
            DecompositionTrace(records=records, below_threshold=T == 0))


def _grid_cells(poly: ConvexPolygon, centers, level: int, solve_block,
                weights=None, ids=None):
    """The cell loop of the translate decomposition and the planar scheduler:
    centers become points against the reflected polygon, and each grid cell
    whose weight (unit weights without ``weights``) reaches k_cell = level //
    beta runs the vertex loop at k_cell.  Returns ({beta, k_cell, cells},
    ran): ``cells`` maps each str(cell), in cell order, to its {size,
    skipped}; ``ran`` holds (name, center indexes, chosen map, records) per
    cell that ran; no cell is formed when k_cell < 1.  Without ``ids`` a
    cell's items get ids 0..size-1, by which the symbolic shift breaks ties.
    """
    refl = reflect(poly)
    grid = grid_spec(refl)
    k_cell = level // grid.beta
    cells, ran = {}, []
    if k_cell >= 1:
        for cell, idxs in sorted(cell_partition(centers, grid).items()):
            name = str(cell)
            w = None if weights is None else [weights[j] for j in idxs]
            skipped = (len(idxs) if w is None else sum(w)) < k_cell
            cells[name] = {"size": len(idxs), "skipped": skipped}
            if not skipped:
                ran.append((name, idxs, *_iterate_vertices(
                    refl, [centers[j] for j in idxs], k_cell, solve_block,
                    weights=w,
                    ids=None if ids is None else [ids[j] for j in idxs])))
    return {"beta": grid.beta, "k_cell": k_cell, "cells": cells}, ran


def decompose_translates(poly: ConvexPolygon, centers, k: int):
    """Split a collection of translates (given by centers) into classes such
    that every point of the plane covered at least k times is covered by each
    class.  Returns (classes, info dict).

    Works in the dual: each grid cell of ``_grid_cells`` is decomposed as
    points at level k // beta.  Uncolored centers and colors above the
    least common count T of a cell fall into class 1.
    """
    if k < 1:
        raise ValueError("coverage level must be at least 1")
    info, ran = _grid_cells(poly, centers, k, compute_cover)
    info["trivial"] = info["k_cell"] < 1
    if info["trivial"]:
        return [list(range(len(centers)))], info
    color_of, t_cells = {}, []
    for name, idxs, colors, records in ran:
        t_cells.append(min(r.t for r in records))
        info["cells"][name] |= {"T": t_cells[-1],
                                "trace": [r._asdict() for r in records]}
        for local, c in colors.items():
            color_of[idxs[local]] = c
    info["T"] = T = min(t_cells, default=0)
    if T < 2:
        return [list(range(len(centers)))], info
    classes = [[] for _ in range(T)]
    for idx in range(len(centers)):
        c = color_of.get(idx)
        if c is None or c > T:
            classes[0].append(idx)
        else:
            classes[c - 1].append(idx)
    return classes, info
