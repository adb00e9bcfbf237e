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
from operator import itemgetter
from typing import NamedTuple

from .geometry import (ConvexPolygon, cell_partition, grid_spec,
                       perturbation_direction, reflect, strict_support_edges)
from .levelcurve import (LevelCurve, WedgeFrame, _Fenwick,
                         position_index_ranges)

# unused here; perfbench/tracer.py patches this name in this module
from .levelcurve import min_load_on_curve  # noqa: F401


class CoverPreconditionError(ValueError):
    """Some curve position has fewer than 2t candidate points."""

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

    ``index`` is position_index_ranges(curve, A)[0] for any item set A that
    holds ``items``: A's positions only split the stretches between those
    of ``items``, on which the wedge content of ``items`` is constant, so
    the colors are the same.  Every position must be contained in at least
    2t of the items' wedges.  The intervals are sorted once, by start and
    then containing intervals first; each round keeps an interval iff it
    covers a still-uncovered position, prunes redundant kept intervals, and
    colors the survivors' points with the round number.  Returns {point id:
    round}.

    Every earlier kept interval starts no later, so the covered part of
    [lo, K) is [lo, reach] with reach the largest kept end: an interval is
    kept iff hi > reach, and the kept intervals form a chain with strictly
    increasing starts and ends.  The prune scans the chain in reverse; on a
    chain the nearest earlier interval and the nearest later survivor cover
    whatever any others do, so kept[j] (j > 0) is redundant iff a later
    survivor starts by kept[j - 1]'s end + 1.  kept[0] alone covers
    position 0 and the last alone reaches K - 1, so both survive.  A
    whole-range interval sorts first and alone covers every position, so
    the first rounds take those by id, one each.  Each call costs
    O(n log n + K + t n) for n intervals over K positions.
    """
    if t <= 0:
        return {}
    positions, ranges = index
    K = len(positions)
    full = (0, K - 1)
    whole, intervals = [], []
    for (_, _, pid, _w) in items:
        rng = ranges[pid]
        if rng == full:
            whole.append(pid)
        elif rng is not None:
            intervals.append((rng[0], rng[1], pid))
    whole.sort()
    intervals.sort(key=lambda iv: (iv[0], -iv[1], iv[2]))

    depth = [0] * (K + 1)
    depth[0], depth[K] = len(whole), -len(whole)
    for lo, hi, _ in intervals:
        depth[lo] += 1
        depth[hi + 1] -= 1
    if min(accumulate(depth[:K])) < 2 * t:
        idx, have = next((idx, run) for idx, run
                         in enumerate(accumulate(depth)) if run < 2 * t)
        raise CoverPreconditionError(positions[idx], have, 2 * t)

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


def _reserved_filter(poly, i, u_sorted, index, items, target):
    """Point ids that survive the extreme-prefix reservation.

    ``index`` is position_index_ranges(curve, A)[0] for an item set A that
    holds ``items``, as for compute_cover.  At each curve position, the
    minimal prefix of current wedge members in decreasing order along every
    reserved direction whose total weight reaches ``target`` is reserved; a
    point survives if some position has it as a non-reserved member.  With
    unit weights the prefix is simply the first ``target`` points.

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

    One sweep over the cliques keeps a Fenwick tree of member weights by
    rank per reserved direction; one descent per clique and direction finds
    the rank from which members are reserved.  A min-heap holds the first
    direction's ranks of the members not yet kept; a clique pops those
    below its threshold and keeps a popped member unless another direction
    reserves it (then it goes back).  Each item joins, leaves and is kept
    once: O((items + cliques) log items) with one direction, any weights.
    """
    support = sorted(strict_support_edges(poly, i))
    positions, ranges = index
    K = len(positions)
    weight = {pid: w for (_, _, pid, w) in items if ranges[pid] is not None}
    if not support or target <= 0 or not weight:
        return set(weight)
    # each direction ranks the items with a range 1..n in its U order;
    # ranks[d][r] is the rank along direction d + 1 of the first's rank r
    orders = [[pid for (_, _, pid, _w) in u_sorted[j] if pid in weight]
              for j in support]
    n = len(orders[0])
    ranks = [[0, *map(dict(zip(order, range(1, n + 1))).__getitem__,
                      orders[0])] for order in orders[1:]]
    spans = [(lo, hi, r, weight[pid]) for r, pid in enumerate(orders[0], 1)
             for lo, hi in (ranges[pid],)]
    # members join at the first position of their range and leave after the
    # last; the order within one position changes no sum and no member set
    adds = sorted(spans, key=itemgetter(0))
    leaves = sorted(spans, key=itemgetter(1))
    add_at = [*map(itemgetter(0), adds), K]
    leave_at = [*map(itemgetter(1), leaves)]
    # the first clique ends at the first leave; its members enter each tree
    # in one build and are the sorted candidates
    c = leave_at[0]
    a = bisect_right(add_at, c)
    heap = sorted(map(itemgetter(2), adds[:a]))
    total = sum(map(itemgetter(3), adds[:a]))
    trees = []
    for rank in (range(n + 1), *ranks):
        slots = [0] * n
        for (_, _, r, w) in adds[:a]:
            slots[rank[r] - 1] = w
        trees.append(_Fenwick(n, slots))
    tree, t = trees[0], trees[0].t
    others = [(tr.t, rank) for tr, rank in zip(trees[1:], ranks)]
    kept = []  # ranks, along the first direction, of the survivors
    a2, e, e2 = a, 0, 0
    while True:
        if total >= target:
            # largest rank x with prefix(x) <= total - target; members from
            # rank x + 1 up are reserved
            thr = tree.longest_prefix_within(total - target) + 1
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
                # the other trees catch up on the events since their last
                # descent; a member they reserve stays a candidate
                for t2, rank in others:
                    for events, sign in ((leaves[e2:e], -1), (adds[a2:a], 1)):
                        for (_, _, r, w) in events:
                            r = rank[r]
                            while r <= n:
                                t2[r] += sign * w
                                r += r & -r
                a2, e2 = a, e
                thrs = [tr.longest_prefix_within(total - target) + 1
                        for tr in trees[1:]]
                popped, kept[k:] = kept[k:], []
                for r in popped:
                    if all(rank[r] < th for rank, th in zip(ranks, thrs)):
                        kept.append(r)
                    else:
                        heappush(heap, r)
        if (x := add_at[a]) == K:
            return {orders[0][r - 1] for r in kept}
        # the next clique is the first end at or after the next start
        while leave_at[e] < x:
            _, _, r, w = leaves[e]
            while r <= n:
                t[r] -= w
                r += r & -r
            total -= w
            e += 1
        c = leave_at[e]
        while add_at[a] <= c:
            _, _, r, w = adds[a]
            heappush(heap, r)
            while r <= n:
                t[r] += w
                r += r & -r
            total += w
            a += 1


def _iterate_vertices(poly, points, level, solve_block, weights=None,
                      ids=None):
    """The vertex loop of the point decomposition and the planar scheduler.

    For each vertex i of ``poly``: the minimum load L of the items not yet
    chosen over the level curves i..n-1, t = L // (64n), the extreme-prefix
    reservation at L // (2n), then ``solve_block(index, x_items, t)``, which
    chooses surviving items as {id: value}; skipped when t is 0.

    Each curve's position index is built once, over all of the items, and
    every later query on that curve reads it: the loads of the items still
    live, the reservation and the block solver.  The positions of all items
    refine those of any subset, and a subset's wedge content is constant
    between its own positions, so the answers are those of an index built
    from the subset.  Each curve's load is one difference array over its
    index, built in the walk that builds the index; a block's chosen items
    are subtracted from the curves still to come.  Curve i's index and
    load are dropped at vertex i.  Returns the chosen map and one
    IterationRecord per vertex, whose last field counts the chosen items.
    """
    n = poly.n
    delta = perturbation_direction(poly)
    frames = [WedgeFrame(poly, i, delta) for i in range(n)]
    all_items = [f.items(points, weights=weights, ids=ids) for f in frames]
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
        live = [it for it in all_items[i] if it[2] not in chosen]
        keep = _reserved_filter(poly, i, u_sorted, index, live, L // (2 * n))
        x_items = [it for it in live if it[2] in keep]
        try:
            block = solve_block(index, x_items, t_i)
        except CoverPreconditionError as exc:  # name the position by pairs
            exc.position = tuple(map(frames[i].split, exc.position))
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
