"""Partial interval covers of a level curve and the full point-set
decomposition built from them.

``compute_cover`` colors a small set of points per round so that every wedge
with apex on the curve sees every round's color while no curve position is
covered by more than two chosen intervals per round.  ``decompose_points``
iterates it over all polygon vertices, reserving extreme points so that later
iterations keep enough load.  The vertex loop builds each level curve's
position index once, over all points, and the loads, the reservation and
the block solver read it for the points still uncolored.
``decompose_translates`` lifts the point decomposition to translate
collections through the reflection duality and the grid reduction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .geometry import (ConvexPolygon, cell_partition, dot, grid_spec,
                       int_scaled, perturbation_direction, reflect,
                       strict_support_edges)
from .levelcurve import (LevelCurve, WedgeFrame, _Fenwick, index_load_diff,
                         position_index_ranges)

# unused here; perfbench/tracer.py patches this name in this module
from .levelcurve import min_load_on_curve  # noqa: F401


class CoverPreconditionError(ValueError):
    """Some curve position has fewer than 2t candidate points."""

    def __init__(self, position, have, need):
        self.position = position
        self.have = have
        self.need = need
        super().__init__(
            "curve position %r has %d candidates, need %d"
            % (position, have, need))


@dataclass
class ColorAssignment:
    """Partial coloring of points.  ``colors`` maps point id to a color
    number; colors 1..T are common to every vertex iteration, higher numbers
    were produced by some iterations only."""

    colors: dict = field(default_factory=dict)
    T: int = 0


@dataclass
class IterationRecord:
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

    ``index`` is position_index_ranges(curve, A) for any item set A that
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
    position 0 and the last alone reaches K - 1, so both survive.  Each
    call costs O(n log n + K + t n) for n intervals over K positions.
    """
    if t <= 0:
        return {}
    positions, ranges = index
    K = len(positions)
    intervals = sorted(((lo_hi[0], lo_hi[1], pid)
                        for (_, _, pid, _w) in items
                        if (lo_hi := ranges[pid]) is not None),
                       key=lambda iv: (iv[0], -iv[1], iv[2]))

    depth = [0] * (K + 1)
    for lo, hi, _ in intervals:
        depth[lo] += 1
        depth[hi + 1] -= 1
    if min(accumulate(depth[:K])) < 2 * t:
        idx, have = next((idx, run) for idx, run
                         in enumerate(accumulate(depth)) if run < 2 * t)
        raise CoverPreconditionError(positions[idx], have, 2 * t)

    colors = {}
    remaining = intervals
    for round_no in range(1, t + 1):
        kept = []
        reach = -1
        for iv in remaining:
            if iv[1] > reach:
                kept.append(iv)
                reach = iv[1]
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


def _order_ranks(poly, j, delta, points, ids):
    """Rank 1..len(ids) of each point id along the inward normal of edge j,
    ties broken by the same symbolic general-position shift the wedge frames
    use.  The normal is scaled to an integer vector, which keeps the order."""
    nj = int_scaled(*poly.inward_normal(j))
    shift = dot(delta, nj)
    order = sorted(range(len(ids)),
                   key=lambda idx: (dot(points[idx], nj),
                                    (ids[idx] + 1) * shift))
    return {ids[idx]: r for r, idx in enumerate(order, 1)}


def _reserved_filter(poly, i, delta, index, items, points, target):
    """Point ids that survive the extreme-prefix reservation.

    ``index`` is position_index_ranges(curve, A) for an item set A that
    holds ``items``, as for compute_cover.  At each curve position, the
    minimal prefix of current wedge members in decreasing order along every
    reserved direction whose total weight reaches ``target`` is reserved; a
    point survives if some position has it as a non-reserved member.  With
    unit weights the prefix is simply the first ``target`` points.

    Only the maximal-clique positions of the items' ranges are queried: the
    range ends with some range starting after the previous end.  This is
    exact: every position's members are a subset of some clique's, and more
    members (weights >= 1) only push a member further below the top prefix,
    so a member that survives anywhere in its range survives at a clique
    inside it.
    """
    support = sorted(strict_support_edges(poly, i))
    positions, ranges = index
    K = len(positions)
    ids = [pid for (_, _, pid, _w) in items]
    ranged = [pid for pid in ids if ranges[pid] is not None]
    if not support or target <= 0:
        return set(ranged)
    weight = {pid: w for (_, _, pid, w) in items}
    rankmaps = [_order_ranks(poly, j, delta, points, ids) for j in support]
    # members join at the first position of their range and leave after the
    # last; the events are sorted by position and end in a sentinel K
    adds = sorted(ranged, key=lambda pid: ranges[pid][0])
    leaves = sorted(ranged, key=lambda pid: ranges[pid][1])
    add_at = [ranges[pid][0] for pid in adds] + [K]
    leave_at = [ranges[pid][1] for pid in leaves] + [K]
    cliques = []
    a = 0
    for c in leave_at[:-1]:
        if add_at[a] <= c:
            cliques.append(c)
            a = bisect_right(add_at, c, a)

    def thresholds(rank):
        """Per clique: smallest rank of the reserved top group, or 0 when
        the whole membership is reserved.  A member is reserved at a clique
        iff its rank >= the clique's threshold, so nothing survives a 0."""
        tree = _Fenwick(len(ids))  # slot r - 1 holds the member of rank r
        total = 0
        thr = []
        a = e = 0
        for c in cliques:
            while add_at[a] <= c:
                pid = adds[a]
                tree.add(rank[pid] - 1, weight[pid])
                total += weight[pid]
                a += 1
            while leave_at[e] < c:
                pid = leaves[e]
                tree.add(rank[pid] - 1, -weight[pid])
                total -= weight[pid]
                e += 1
            # largest rank x with prefix(x) <= total - target; the threshold
            # member is rank x + 1
            thr.append(tree.longest_prefix_within(total - target) + 1
                       if total >= target else 0)
        return thr

    all_thr = [thresholds(rank) for rank in rankmaps]
    if len(support) == 1:
        rank = rankmaps[0]
        # sparse table for range maxima over the cliques' thresholds
        table = [all_thr[0]]
        span = 1
        while span * 2 <= len(cliques):
            prev = table[-1]
            table.append(list(map(max, prev, prev[span:])))
            span *= 2

        def range_max(lo, hi):
            lev = (hi - lo + 1).bit_length() - 1
            row = table[lev]
            return max(row[lo], row[hi - (1 << lev) + 1])

        out = set()
        for pid in ranged:
            lo, hi = ranges[pid]  # holds at least one clique
            if rank[pid] < range_max(bisect_left(cliques, lo),
                                     bisect_right(cliques, hi) - 1):
                out.add(pid)
        return out

    # several reserved directions: check the cliques one by one
    members = set()
    out = set()
    a = e = 0
    for c, *thrs in zip(cliques, *all_thr):
        while add_at[a] <= c:
            members.add(adds[a])
            a += 1
        while leave_at[e] < c:
            members.discard(leaves[e])
            e += 1
        if all(thrs):
            for pid in members:
                if pid not in out and all(
                        rank[pid] < th for rank, th in zip(rankmaps, thrs)):
                    out.add(pid)
    return out


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
    index, built once; a block's chosen items are subtracted from the
    curves still to come.  Curve i's index and load are dropped at vertex
    i.  Returns the chosen map and one (i, L, t, x_size, chosen) record per
    vertex.
    """
    n = poly.n
    delta = perturbation_direction(poly)
    frames = [WedgeFrame(poly, i, delta) for i in range(n)]
    all_items = [f.items(points, weights=weights, ids=ids) for f in frames]
    indexes = [position_index_ranges(LevelCurve(frames[i], level, items),
                                     items)
               for i, items in enumerate(all_items)]
    loads = [index_load_diff(index, items)
             for index, items in zip(indexes, all_items)]
    point_of = dict(zip(range(len(points)) if ids is None else ids, points))
    weight_of = {pid: w for (_, _, pid, w) in all_items[0]}

    chosen = {}
    records = []
    for i in range(n):
        L = min(min(accumulate(diff[:-1])) for diff in loads[i:])
        index, indexes[i], loads[i] = indexes[i], None, None
        t_i = L // (64 * n)
        if t_i == 0:
            records.append((i, L, 0, 0, 0))
            continue
        live = [it for it in all_items[i] if it[2] not in chosen]
        keep = _reserved_filter(poly, i, delta, index, live,
                                [point_of[it[2]] for it in live],
                                L // (2 * n))
        x_items = [it for it in live if it[2] in keep]
        block = solve_block(index, x_items, t_i)
        chosen.update(block)
        # the chosen items leave the loads of the curves still to come
        for (_, ranges), diff in zip(indexes[i + 1:], loads[i + 1:]):
            for pid in block:
                rng = ranges[pid]
                if rng is not None:
                    diff[rng[0]] -= weight_of[pid]
                    diff[rng[1] + 1] += weight_of[pid]
        records.append((i, L, t_i, len(x_items), len(block)))
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
    trace = DecompositionTrace(records=[IterationRecord(*r) for r in records])
    T = min(r.t for r in trace.records)
    trace.below_threshold = T == 0
    return ColorAssignment(colors=colors, T=T), trace


def decompose_translates(poly: ConvexPolygon, centers, k: int):
    """Split a collection of translates (given by centers) into classes such
    that every point of the plane covered at least k times is covered by each
    class.  Returns (classes, info dict).

    Works in the dual: translate centers become points against the reflected
    polygon; each grid cell is decomposed independently at level k // beta.
    Uncolored centers and colors above the common count fall into class 1.
    """
    if k < 1:
        raise ValueError("coverage level must be at least 1")
    refl = reflect(poly)
    grid = grid_spec(refl)
    k_cell = k // grid.beta
    info = {"beta": grid.beta, "k_cell": k_cell, "cells": {}}
    if k_cell < 1:
        info["trivial"] = True
        return [list(range(len(centers)))], info
    info["trivial"] = False
    cells = cell_partition(centers, grid)
    color_of = {}
    t_cells = []
    for cell, idxs in sorted(cells.items()):
        pts = [centers[idx] for idx in idxs]
        if len(pts) < k_cell:
            info["cells"][cell] = {"skipped": True, "size": len(pts)}
            continue
        asg, trace = decompose_points(refl, pts, k_cell)
        info["cells"][cell] = {"skipped": False, "size": len(pts), "T": asg.T,
                               "trace": [vars(r) for r in trace.records]}
        t_cells.append(asg.T)
        for local, c in asg.colors.items():
            color_of[idxs[local]] = c
    T = min(t_cells) if t_cells else 0
    info["T"] = T
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
