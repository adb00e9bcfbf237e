"""Reference oracles shared by the tests: plain formulas that the library's
fast paths are checked against."""

import heapq
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from coverplex.cover import CoverPreconditionError
from coverplex.geometry import cross, dot, int_scaled, strict_support_edges
from coverplex.jsonio import InputError, int_from_json, num_to_json
from coverplex.levelcurve import (NEG_INF, LevelCurve, _Fenwick,
                                  canonical_positions, vertex_items)
from coverplex.rsc import INF, Assignment, RscInstance, Schedule, Sensor
from coverplex.verify import (VerificationReport, _add_span, _holds,
                              _nested_violation, _prefix_end,
                              _segment_starts, check_assignments)


# ---------------------------------------------------------------------------
# JSON text


def dumps(obj):
    """jsonio.dumps by the stdlib's indenting encoder: sorted keys, one space
    per depth, a Fraction as num_to_json writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1,
                      default=lambda v: num_to_json(Fraction(v))) + "\n"


def rsc_instance_from_json(doc):
    """jsonio.rsc_instance_from_json one sensor at a time: each row's
    fields read by key in the order id, l, r, d, and each value's type
    tested in that order."""
    try:
        sensors = [Sensor(s["id"], s["l"], s["r"], s["d"])
                   for s in doc["sensors"]]
        for s in sensors:
            for key in ("id", "l", "r", "d"):
                int_from_json(getattr(s, key), key)
        return RscInstance(int_from_json(doc["m"], "m"), sensors)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad scheduling instance: %s" % exc) from exc


# ---------------------------------------------------------------------------
# wedges


def wedge_contains(poly, i, apex, p):
    """True iff p lies in the closed cone at vertex i translated to `apex`.

    Decided by two exact sign tests: p - apex = s*d1 + t*d2 with s, t >= 0,
    where d1, d2 are the cone rays.
    """
    d1, d2 = poly.cone_dirs(i)
    d = (Fraction(p[0]) - Fraction(apex[0]),
         Fraction(p[1]) - Fraction(apex[1]))
    c = cross(d1, d2)
    s_num = cross(d, d2)
    t_num = cross(d1, d)
    if c > 0:
        return s_num >= 0 and t_num >= 0
    return s_num <= 0 and t_num <= 0


def order_key(poly, i, p):
    """Linear functional whose sublevel sets are halfplanes below lines
    parallel to edge p_i p_{i+1}; smaller means closer to that edge's line."""
    return Fraction(dot(p, poly.inward_normal(i)))


def ucoord(frame, p, pid=0):
    """Sheared u of point p in ``frame`` as the pair (main, eps), with
    epsilon index pid: the coordinate a flat key encodes, 2*sigma*cross(p
    + pid*eps*delta, e2) with sigma = -1, the sign of cross(e1, e2) at
    every vertex of a strictly convex CCW polygon."""
    return (-2 * cross(p, frame.e2), -2 * cross(frame.delta, frame.e2) * pid)


def vcoord(frame, p, pid=0):
    """Sheared v of point p in ``frame`` as the pair (main, eps),
    2*sigma*cross(e1, p + pid*eps*delta) with sigma = -1."""
    return (-2 * cross(frame.e1, p), -2 * cross(frame.e1, frame.delta) * pid)


def flat_key(frame, pair):
    """The flat key (D*main)*B + eps of a (main, eps) pair in ``frame``."""
    main, eps = pair
    return main * frame.scale * frame.base + eps


def frame_items(poly, i, points, weights=None, ids=None):
    """Frame i of the vertex loop over ``points`` and its items, as
    levelcurve.vertex_items keys them."""
    frames, items = vertex_items(poly, points, weights=weights, ids=ids)
    return frames[i], items[i]


def order_ranks(poly, j, delta, points, ids):
    """Rank 1..len(ids) of each point id along the inward normal of edge j,
    ties broken by the same symbolic general-position shift the wedge frames
    use.  The normal is scaled to an integer vector, which keeps the order."""
    nj = int_scaled(*poly.inward_normal(j))
    shift = dot(delta, nj)
    order = sorted(range(len(ids)),
                   key=lambda idx: (dot(points[idx], nj),
                                    (ids[idx] + 1) * shift))
    return {ids[idx]: r for r, idx in enumerate(order, 1)}


def wedge_load(poly, i, apex, points, weights=None, symbolic=True):
    """Count (or weighted sum) of points inside the wedge at vertex i with
    the given apex; the apex itself carries no symbolic shift."""
    frame, _ = frame_items(poly, i, [])
    ua, va = ucoord(frame, apex), vcoord(frame, apex)
    total = 0
    for idx, p in enumerate(points):
        pu, pv = ucoord(frame, p, idx + 1), vcoord(frame, p, idx + 1)
        if symbolic:
            inside = pu >= ua and pv >= va
        else:
            inside = pu[0] >= ua[0] and pv[0] >= va[0]
        if inside:
            total += 1 if weights is None else weights[idx]
    return total


def level_curve(level, items):
    """The level curve's (drops, head, tail, items sorted by U) by a full
    scan: the staircase level over apex u in (U_{j-1}, U_j] for every
    U-sorted suffix items[j:], from right to left, with the minimal top
    set that reaches the level kept in a min-heap on V (None while the
    suffix is too light); a drop wherever consecutive levels differ."""
    items = sorted(items, key=lambda it: it[0])
    n = len(items)
    thr = [None] * n
    heap = []
    top_w = 0
    for j in range(n - 1, -1, -1):
        _, V, _, w = items[j]
        if top_w < level or V > heap[0][0]:
            heapq.heappush(heap, (V, w))
            top_w += w
            while top_w - heap[0][1] >= level:
                top_w -= heap[0][1]
                heapq.heappop(heap)
        if top_w >= level:
            thr[j] = heap[0][0]
    last_j = max(j for j in range(n) if thr[j] is not None)
    us = [it[0] for it in items]
    drops = []
    prev = thr[0]
    for j in range(1, last_j + 1):
        if thr[j] != prev:
            drops.append((us[j - 1], prev, thr[j]))
            prev = thr[j]
    drops.append((us[last_j], prev, NEG_INF))
    tail_v = min([thr[last_j]] + [items[j][1] for j in range(last_j, n)])
    return drops, (drops[0][0], drops[0][1]), (us[last_j], tail_v), items


def walk_key(pos):
    """Total order of curve positions from head (small u, large v) to tail."""
    return (pos[0], -pos[1])


def base_positions(curve):
    """The head-ray representative, the head, every staircase corner, the
    tail and the tail-ray representative, as (u, v) flat-key pairs."""
    head_u, head_level = curve.head
    tail_u, tail_v = curve.tail
    ray = 2 * curve.frame.scale * curve.frame.base  # main - 2
    base = [(head_u - ray, head_level), curve.head]
    base += [(du, v) for du, v_hi, v_lo in curve.drops
             for v in (v_hi, v_lo) if v != NEG_INF]
    base += [curve.tail, (tail_u, tail_v - ray)]
    return base


def tuple_ends(curve, U_q, V_q):
    """Closed range (lo, hi) of curve positions, as (u, v) pairs, whose
    wedge contains the point with sheared coords (U_q, V_q); None when
    empty.  A ray end is the ray itself, (NEG_INF, head level) or (tail u,
    NEG_INF)."""
    drops = curve.drops
    # latest position with u <= U_q
    idx = bisect_left([d[0] for d in drops], U_q)
    if idx == len(drops):
        hi = (drops[-1][0], NEG_INF)  # the whole tail ray qualifies
    elif drops[idx][0] == U_q:
        hi = (U_q, drops[idx][2])
    else:
        hi = (U_q, drops[idx][1])
    if V_q < hi[1]:
        return None
    # earliest position with v <= V_q
    head_level = drops[0][1]
    if V_q >= head_level:
        lo = (NEG_INF, head_level)
    else:
        # first drop whose v_below is <= V_q
        a = next(a for a, d in enumerate(drops) if d[2] <= V_q)
        lo = (drops[a][0], V_q)
    if lo[0] > U_q:
        return None
    return lo, hi


def tuple_positions_and_ends(curve, items):
    """The position index built from (u, v) pairs: canonical positions as
    a list of pairs in walk_key order with an explicit midpoint in every
    gap, each interval end's index among them (a ray end indexes the ray
    representative at its end), the whole-curve items' weights by id and
    (id, lo, hi, w) for every other item."""
    canon = {pos: pos for pos in base_positions(curve)}
    head_level, tail_u = curve.drops[0][1], curve.drops[-1][0]
    whole, part = {}, []
    for (U, V, pid, w) in items:
        if U >= tail_u and V >= head_level:
            whole[pid] = w
            continue
        iv = tuple_ends(curve, U, V)
        if iv is None:
            part.append((pid, None, None, w))
            continue
        lo, hi = iv
        part.append((pid, canon.setdefault(lo, lo), canon.setdefault(hi, hi),
                     w))
    rays = ((NEG_INF, head_level), (tail_u, NEG_INF))
    ordered = sorted((pos for pos in canon if pos not in rays), key=walk_key)
    positions = []
    index_of = {rays[0]: 0}
    for a, b in zip(ordered, ordered[1:]):
        index_of[a] = len(positions)
        positions.append(a)
        (au, av), (bu, bv) = a, b
        # the walk runs down a vertical segment and right along a
        # horizontal one
        if au == bu:
            positions.append((au, (av + bv) // 2))
        elif av == bv:
            positions.append(((au + bu) // 2, av))
        else:
            raise AssertionError("gap straddles a staircase corner")
    index_of[ordered[-1]] = len(positions)
    positions.append(ordered[-1])
    index_of[rays[1]] = len(positions) - 1
    return positions, index_of, whole, part


def tuple_position_index(curve, items):
    """((positions, ranges), diff) of the pair-built index, as
    position_index_ranges(curve, items) gives them."""
    positions, index_of, whole, part = tuple_positions_and_ends(curve, items)
    K = len(positions)
    ranges = dict.fromkeys(whole, (0, K - 1))
    whole_w = sum(whole.values())
    diff = [whole_w] + [0] * (K - 1) + [-whole_w]
    for pid, lo, hi, w in part:
        rng = ranges[pid] = None if lo is None else (index_of[lo],
                                                     index_of[hi])
        if rng is not None:
            diff[rng[0]] += w
            diff[rng[1] + 1] -= w
    return (positions, ranges), diff


def index_min_load(index, items):
    """Minimum load over the positions of ``index`` (positions, ranges):
    at each position, the weight of the items whose range holds it."""
    positions, ranges = index
    return min(sum(w for (_, _, pid, w) in items
                   if ranges[pid] and ranges[pid][0] <= k <= ranges[pid][1])
               for k in range(len(positions)))


class _PrefixFenwick(_Fenwick):
    def add(self, i, w):
        i += 1
        while i <= self.n:
            self.t[i] += w
            i += i & -i

    def prefix(self, i):
        """Sum of slots 0..i-1."""
        s = 0
        while i > 0:
            s += self.t[i]
            i -= i & -i
        return s


def dominance_loads(positions, items):
    """Load (weight of dominating points) at each position, via one sweep.

    positions: list of ((u),(v)) pairs; items: (U, V, pid, w).  Returns a
    list parallel to positions.
    """
    vs = sorted(it[1] for it in items)
    fw = _PrefixFenwick(len(vs))
    by_u = sorted(range(len(items)), key=lambda k: items[k][0], reverse=True)
    order = sorted(range(len(positions)), key=lambda k: positions[k][0],
                   reverse=True)
    loads = [0] * len(positions)
    ptr = 0
    total = 0
    for k in order:
        u, v = positions[k]
        while ptr < len(by_u) and items[by_u[ptr]][0] >= u:
            it = items[by_u[ptr]]
            fw.add(bisect_left(vs, it[1]), it[3])
            total += it[3]
            ptr += 1
        lo_rank = bisect_left(vs, v)
        loads[k] = total - fw.prefix(lo_rank)
    return loads


# ---------------------------------------------------------------------------
# extreme-prefix reservation


def reserved_ref(poly, i, delta, curve, items, points, target):
    """The surviving items, in the order of ``items``, by a direct pass
    over every canonical position: members are the items whose sheared
    coordinates dominate the position; along each reserved direction they
    are sorted by decreasing Fraction key and the minimal prefix whose
    weight reaches the target is reserved (all of them when the total
    falls short)."""
    support = sorted(strict_support_edges(poly, i))
    key_of = {}
    for j in support:
        nj = tuple(Fraction(c) for c in poly.inward_normal(j))
        for (_, _, pid, _w), p in zip(items, points):
            key_of[j, pid] = (dot(p, nj), (pid + 1) * dot(delta, nj))
    out = set()
    for (u, v) in canonical_positions(curve, items):
        members = [(pid, w) for (U, V, pid, w) in items if u <= U and v <= V]
        reserved = set()
        for j in support:
            acc = 0
            for pid, w in sorted(members, key=lambda m: key_of[j, m[0]],
                                 reverse=True):
                if acc >= target:
                    break
                reserved.add(pid)
                acc += w
        out.update(pid for pid, _ in members if pid not in reserved)
    return [it for it in items if it[2] in out]


def reserved_filter(poly, i, u_sorted, index, items, target):
    """cover._reserved_filter by per-direction threshold passes: a Fenwick
    descent per maximal clique and direction, then, with one direction, a
    member survives iff its rank is below the largest threshold of the
    cliques in its range (a sparse table of range maxima), and with several
    a per-clique check of every member; the survivors in the order of
    ``items``."""
    support = sorted(strict_support_edges(poly, i))
    positions, ranges = index
    K = len(positions)
    spans = [(rng[0], rng[1], pid, w) for (_, _, pid, w) in items
             if (rng := ranges[pid]) is not None]
    if not support or target <= 0 or not spans:
        return [it for it in items if ranges[it[2]] is not None]
    rankmaps = [dict(zip(map(itemgetter(2), u_sorted[j]),
                         range(1, len(u_sorted[j]) + 1))) for j in support]
    adds = sorted(spans, key=itemgetter(0))
    leaves = sorted(spans, key=itemgetter(1))
    add_at = [*map(itemgetter(0), adds), K]
    leave_at = [*map(itemgetter(1), leaves), K]
    cliques = []
    a = 0
    for c in leave_at[:-1]:
        if add_at[a] <= c:
            cliques.append(c)
            a = bisect_right(add_at, c, a)

    def thresholds(rank):
        """Per clique: smallest rank of the reserved top group, or 0 when
        the whole membership is reserved."""
        a = bisect_right(add_at, cliques[0])
        slots = [0] * len(rank)
        for (_, _, pid, w) in adds[:a]:
            slots[rank[pid] - 1] = w
        tree = _PrefixFenwick(len(rank), slots)
        total = sum(slots)
        thr = []
        e = 0
        for c in cliques:
            while add_at[a] <= c:
                _, _, pid, w = adds[a]
                tree.add(rank[pid] - 1, w)
                total += w
                a += 1
            while leave_at[e] < c:
                _, _, pid, w = leaves[e]
                tree.add(rank[pid] - 1, -w)
                total -= w
                e += 1
            thr.append(tree.longest_prefix_within(total - target) + 1
                       if total >= target else 0)
        return thr

    all_thr = [thresholds(rank) for rank in rankmaps]
    if len(support) == 1:
        rank = rankmaps[0]
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

        top, first, last = max(all_thr[0]), cliques[0], cliques[-1]
        out = set()
        for lo, hi, pid, _w in spans:
            if rank[pid] < (top if lo <= first and last <= hi else range_max(
                    bisect_left(cliques, lo), bisect_right(cliques, hi) - 1)):
                out.add(pid)
        return [it for it in items if it[2] in out]

    members = set()
    out = set()
    a = e = 0
    for c, *thrs in zip(cliques, *all_thr):
        while add_at[a] <= c:
            members.add(adds[a][2])
            a += 1
        while leave_at[e] < c:
            members.discard(leaves[e][2])
            e += 1
        if all(thrs):
            for pid in members:
                if pid not in out and all(
                        rank[pid] < th for rank, th in zip(rankmaps, thrs)):
                    out.add(pid)
    return [it for it in items if it[2] in out]


# ---------------------------------------------------------------------------
# curve covers by union-find and coverage counts


class _NextFree:
    """Union-find over position indices: next uncovered index >= i."""

    def __init__(self, n):
        self.p = list(range(n + 1))

    def find(self, i):
        r = i
        while self.p[r] != r:
            r = self.p[r]
        while self.p[i] != r:
            self.p[i], i = r, self.p[i]
        return r

    def mark(self, i):
        self.p[i] = i + 1


def compute_cover(index, items, t):
    """The t-round curve cover with every position counted: each round
    sorts the remaining intervals (by start, containing intervals first),
    keeps an interval iff the union-find finds an uncovered position in
    it, then drops, last kept first, every interval whose positions are
    all covered at least twice."""
    if t <= 0:
        return {}
    positions, ranges = index
    K = len(positions)
    intervals = [(lo_hi[0], lo_hi[1], pid)
                 for (_, _, pid, _w) in items
                 if (lo_hi := ranges[pid]) is not None]

    depth = [0] * (K + 1)
    for lo, hi, _ in intervals:
        depth[lo] += 1
        depth[hi + 1] -= 1
    run = 0
    for idx in range(K):
        run += depth[idx]
        if run < 2 * t:
            raise CoverPreconditionError(positions[idx], run, 2 * t)

    colors = {}
    remaining = intervals
    for round_no in range(1, t + 1):
        remaining.sort(key=lambda iv: (iv[0], -iv[1], iv[2]))
        nxt = _NextFree(K)
        kept = []
        for lo, hi, pid in remaining:
            u = nxt.find(lo)
            if u > hi:
                continue
            kept.append((lo, hi, pid))
            while u <= hi:
                nxt.mark(u)
                u = nxt.find(u + 1)
        cnt = [0] * K
        for lo, hi, _ in kept:
            for idx in range(lo, hi + 1):
                cnt[idx] += 1
        pruned = []
        for lo, hi, pid in reversed(kept):
            if min(cnt[lo:hi + 1]) >= 2:
                for idx in range(lo, hi + 1):
                    cnt[idx] -= 1
            else:
                pruned.append((lo, hi, pid))
        assert min(cnt) >= 1 and max(cnt) <= 2
        for _, _, pid in pruned:
            colors[pid] = round_no
        remaining = [iv for iv in remaining if iv[2] not in colors]
    return colors


# ---------------------------------------------------------------------------
# coloring and planar schedule verifiers, point by point


def verify_coloring(poly, points, assignment, k):
    """The coloring check over the canonical positions of all points: on
    each curve, the first color of 1..T absent from some position's wedge,
    at its first such position, by direct dominance tests."""
    report = VerificationReport()
    T = assignment.T
    report.alpha = (k / T) if T > 0 else None
    report.stats["T"] = T
    frames, all_items = vertex_items(poly, points)
    if T <= 0:
        LevelCurve(frames[0], k, all_items[0])
        report.add("colors-present", T == 0,
                   "no common colors; vacuous" if T == 0 else {"T": T})
        return report
    failure = None
    for i, (frame, items) in enumerate(zip(frames, all_items)):
        positions = canonical_positions(LevelCurve(frame, k, items), items)
        for color in range(1, T + 1):
            for u, v in positions:
                if not any(assignment.colors.get(pid) == color
                           for (U, V, pid, _w) in items
                           if U >= u and V >= v):
                    failure = {"i": i, "color": color,
                               "apex_u": u, "apex_v": v}
                    break
            if failure:
                break
        if failure:
            break
    report.add("colors-present", failure is None, failure)
    return report


def _member_range(positions, U, V):
    """Closed index range of positions whose wedge contains (U, V), found by
    binary search on the direct dominance predicate; None when empty.

    Along the walk the u coordinates are non-decreasing and the v coordinates
    non-increasing, so membership (u <= U and v <= V) is contiguous.
    """
    K = len(positions)
    # first index with v <= V
    a, b = 0, K
    while a < b:
        mid = (a + b) // 2
        if positions[mid][1] <= V:
            b = mid
        else:
            a = mid + 1
    lo = a
    # last index with u <= U
    a, b = -1, K - 1
    while a < b:
        mid = (a + b + 1) // 2
        if positions[mid][0] <= U:
            a = mid
        else:
            b = mid - 1
    hi = a
    if lo > hi:
        return None
    return lo, hi


def verify_coloring_by_curve(poly, points, assignment, k):
    """The coloring check on each vertex's level-k curve: the canonical
    positions of the points of colors 1..T, and per color a difference row
    over them of the positions whose wedge holds one of its points; the
    first color of 1..T some position misses, at its first such position."""
    report = VerificationReport()
    T = assignment.T
    report.alpha = (k / T) if T > 0 else None
    report.stats["T"] = T
    frames, all_items = vertex_items(poly, points)
    if T <= 0:
        # no class to search for, but the level must still be one that a
        # level curve accepts (ValueError otherwise)
        LevelCurve(frames[0], k, all_items[0])
        report.add("colors-present", T == 0,
                   "no common colors; vacuous" if T == 0 else {"T": T})
        return report
    failure = None
    for i, (frame, items) in enumerate(zip(frames, all_items)):
        curve = LevelCurve(frame, k, items)
        # only points of colors 1..T are counted, and their wedge content is
        # constant between their own canonical positions, so those positions
        # decide the check
        counted = [(it, color) for it in items
                   if (color := assignment.colors.get(it[2])) is not None
                   and 1 <= color <= T]
        positions = canonical_positions(curve, [it for it, _ in counted])
        K = len(positions)
        present = {}
        for (U, V, _pid, _w), color in counted:
            rng = _member_range(positions, U, V)
            if rng is None:
                continue
            row = present.get(color)
            if row is None:
                row = present[color] = [0] * (K + 1)
            row[rng[0]] += 1
            row[rng[1] + 1] -= 1
        # a color without a row is in no wedge, so it fails at position 0
        for color in range(1, T + 1):
            row = present.get(color, [0])
            run = 0
            for idx in range(K):
                run += row[idx]
                if run == 0:
                    u, v = positions[idx]
                    failure = {"i": i, "color": color,
                               "apex_u": frame.split(u),
                               "apex_v": frame.split(v)}
                    break
            if failure:
                break
        if failure:
            break
    report.add("colors-present", failure is None, failure)
    return report


def planar_load(instance):
    """Per-universe-point total durations and their minimum, one membership
    test per sensor."""
    poly = instance.polygon
    loads = [sum(s.d for s in instance.sensors
                 if poly.contains(u, center=s.center))
             for u in instance.universe]
    return loads, (min(loads) if loads else 0)


def verify_planar(instance, schedule):
    """Full simulation with one membership test per (universe point,
    sensor)."""
    report = VerificationReport()
    poly = instance.polygon
    check_assignments(report, instance.sensors, schedule.start)
    L = None
    m_achieved = None
    witness = None
    for u in instance.universe:
        load = 0
        spans = []
        for s in instance.sensors:
            if not poly.contains(u, center=s.center):
                continue
            load += s.d
            t0 = schedule.start.get(s.id)
            if t0 is not None:
                spans.append((t0, t0 + s.d - 1))
        if L is None or load < L:
            L = load
        spans.sort()
        reach = 0
        for (a, b) in spans:
            if a > reach + 1:
                break
            reach = max(reach, b)
        if m_achieved is None or reach < m_achieved:
            m_achieved = reach
            witness = {"point": list(u), "covered_until": reach}
    L = L or 0
    m_achieved = m_achieved or 0
    report.stats["M_achieved"] = m_achieved
    report.stats["L"] = L
    report.stats["floor_point"] = witness
    report.ratio = (m_achieved / L) if L else None
    report.add("simulated", True, None)
    return report


# ---------------------------------------------------------------------------
# restricted strip cover by time-step simulation


def right_key(s):
    """Tie rule for extending right: largest r, then smallest l, then id."""
    return (-s.r, s.l, s.id)


def left_key(s):
    """Tie rule for extending left: smallest l, then largest r, then id."""
    return (s.l, -s.r, s.id)


def dominant_right(instance, schedule, x):
    """Unassigned sensor live at x first under ``right_key``, or None."""
    live = [s for s in instance.sensors
            if s.id not in schedule.start and s.l <= x <= s.r]
    return min(live, key=right_key, default=None)


def dominant_left(instance, schedule, x):
    """Unassigned sensor live at x first under ``left_key``, or None."""
    live = [s for s in instance.sensors
            if s.id not in schedule.start and s.l <= x <= s.r]
    return min(live, key=left_key, default=None)


def load(instance):
    """Per-coordinate total durations and their minimum L, coordinate by
    coordinate."""
    per = [0] * (instance.m + 1)
    for s in instance.sensors:
        for x in range(s.l, s.r + 1):
            per[x] += s.d
    per_coord = per[1:]
    return per_coord, min(per_coord)


def load_profile(runs):
    """Per-coordinate totals for 1..m from ``rsc.load``'s (lo, hi, total)
    triples."""
    return [total for lo, hi, total in runs for _ in range(lo, hi + 1)]


def greedy_schedule(instance, stop_at=None):
    """The RSC greedy on a (m+2) x horizon timeline of active counts, filled
    one time step at a time; rebuilds the live sets every iteration."""
    m = instance.m
    horizon = sum(s.d for s in instance.sensors) + max(
        (s.d for s in instance.sensors), default=0) + 2
    cov = [bytearray(horizon + 2) for _ in range(m + 2)]
    covered_until = [0] * (m + 2)
    unassigned = sorted(instance.sensors, key=lambda s: s.id)
    sched = Schedule(stop_at=stop_at)

    def current_duration():
        return min(covered_until[1:m + 1])

    while True:
        t = current_duration() + 1
        # coordinates achieving the minimum are exactly the ones uncovered
        # at time t
        i = next(x for x in range(1, m + 1) if covered_until[x] < t)
        j = i
        while j + 1 <= m and covered_until[j + 1] < t:
            j += 1

        live_i = [s for s in unassigned if s.l <= i <= s.r]
        if not live_i:
            break
        s_right = min(live_i, key=right_key)
        if s_right.r < j:
            chosen, direction, closes = s_right, "right", i
        else:
            live_j = [s for s in unassigned if s.l <= j <= s.r]
            s_left = min(live_j, key=left_key)
            m_left = covered_until[i - 1] if i > 1 else INF
            m_right = covered_until[j + 1] if j < m else INF
            if m_left >= m_right:
                chosen, direction, closes = s_right, "right", i
            else:
                chosen, direction, closes = s_left, "left", j

        sched.start[chosen.id] = t
        sched.events.append(Assignment(id=chosen.id, t=t, closes=closes,
                                       direction=direction, interval=(i, j)))
        unassigned.remove(chosen)
        for x in range(chosen.l, chosen.r + 1):
            row = cov[x]
            for tt in range(t, min(t + chosen.d, horizon + 1)):
                row[tt] += 1
            while row[covered_until[x] + 1]:
                covered_until[x] += 1
        if stop_at is not None and current_duration() >= stop_at:
            break
    return sched


def duration_at(schedule, instance, x):
    """M(S, x) from the set of covered times at x; boundary coordinates 0
    and m+1 count as always covered."""
    if x < 1 or x > instance.m:
        return INF
    covered = set()
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is None or not (s.l <= x <= s.r):
            continue
        covered.update(range(t0, t0 + s.d))
    t = 0
    while (t + 1) in covered:
        t += 1
    return t


def duration(schedule, instance):
    return min(duration_at(schedule, instance, x)
               for x in range(1, instance.m + 1))


def coverage_profile(schedule, instance):
    """Exact active-sensor counts per (coordinate, time); list indexed by
    coordinate 1..m of lists indexed by time 1..horizon."""
    horizon = 0
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is not None:
            horizon = max(horizon, t0 + s.d - 1)
    prof = [[0] * (horizon + 1) for _ in range(instance.m + 1)]
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is None:
            continue
        for x in range(s.l, s.r + 1):
            for tt in range(t0, t0 + s.d):
                prof[x][tt] += 1
    return prof


def verify_rsc(instance, schedule):
    """The schedule checks by direct simulation: a {time: count} dict per
    coordinate.  coverage-at-most-5 names the first offending time in the
    dict's insertion order."""
    report = VerificationReport()
    check_assignments(report, instance.sensors, schedule.start)
    active = {}
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is not None:
            active[s.id] = (s, t0, t0 + s.d - 1)
    m = instance.m

    cover = [dict() for _ in range(m + 1)]  # x -> {t: count}
    for (s, t0, t1) in active.values():
        for x in range(s.l, s.r + 1):
            for t in range(t0, t1 + 1):
                cover[x][t] = cover[x].get(t, 0) + 1

    def m_at(x):
        t = 0
        while cover[x].get(t + 1, 0) > 0:
            t += 1
        return t

    m_s = min((m_at(x) for x in range(1, m + 1)), default=0)
    report.stats["M"] = m_s

    witness = None
    for x in range(1, m + 1):
        for t, c in cover[x].items():
            if c > 5:
                witness = {"x": x, "t": t, "coverage": c}
                break
        if witness:
            break
    report.add("coverage-at-most-5", witness is None, witness)

    witness = None
    for (u, tu, _) in active.values():
        for (v, tv, _) in active.values():
            if u.id == v.id:
                continue
            proper = (v.l <= u.l and u.r <= v.r
                      and (v.l < u.l or u.r < v.r))
            if proper and not tu >= tv + v.d:
                witness = {"inner": u.id, "outer": v.id,
                           "t_inner": tu, "t_outer": tv}
                break
        if witness:
            break
    report.add("nested-ranges-sequential", witness is None, witness)

    L = load(instance)[1]
    report.stats["L"] = L
    need = L // 5 if schedule.stop_at is None else min(schedule.stop_at,
                                                       L // 5)
    report.add("duration-at-least-load-over-5", m_s >= need,
               None if m_s >= need else {"M": m_s, "needed": need})

    d_max = max((s.d for s in instance.sensors), default=0)
    t_eff = schedule.stop_at if schedule.stop_at is not None else m_s
    witness = None
    for x in range(1, m + 1):
        assigned_live = sum(s.d for (s, _, _) in active.values()
                            if s.l <= x <= s.r)
        if assigned_live > 5 * (t_eff + d_max):
            witness = {"x": x, "assigned_live_duration": assigned_live,
                       "bound": 5 * (t_eff + d_max)}
            break
    report.add("stopped-load-bound", witness is None, witness)

    # a schedule without its event log leaves the replay out
    if schedule.start and not schedule.events:
        report.not_run.append("closing-semantics")
    else:
        witness = None
        replay = [set() for _ in range(m + 1)]
        sensor_of = {s.id: s for s in instance.sensors}
        for ev in schedule.events:
            s = sensor_of[ev.id]
            if ev.t in replay[ev.closes]:
                witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                           "reason": "already covered"}
                break
            for x in range(s.l, s.r + 1):
                replay[x].update(range(ev.t, ev.t + s.d))
            if ev.t not in replay[ev.closes]:
                witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                           "reason": "still uncovered"}
                break
        report.add("closing-semantics", witness is None, witness)

    stopped = schedule.stop_at is not None and m_s >= schedule.stop_at
    if not stopped:
        blocked = [x for x in range(1, m + 1) if m_at(x) == m_s and not any(
            s.id not in schedule.start and s.l <= x <= s.r
            for s in instance.sensors)]
        report.add("termination-blocked-coordinate", bool(blocked) or m == 0,
                   None if blocked or m == 0 else {"M": m_s})
    report.ratio = (m_s / L) if L else None
    return report


# ---------------------------------------------------------------------------
# restricted strip cover by per-segment span lists


def duration_by_spans(schedule, instance):
    """M(S) from one list of the (start, end) spans of the assigned sensors
    per segment, merged in start order: O(sum of segments held)."""
    cuts, seg = instance._segments
    spans = [[] for _ in range(len(cuts) - 1)]
    for sid, l, r, d in instance.sensors:
        t0 = schedule.start.get(sid)
        if t0 is not None:
            for k in range(seg[l], seg[r + 1]):
                spans[k].append((t0, t0 + d - 1))
    return min(map(_prefix_end, spans))


def first_overload(spans, cap):
    """(time, count) at the earliest time more than `cap` spans hold, by a
    sweep over the sorted starts and ends; None when there is none."""
    starts = sorted(a for a, _ in spans)
    ends = sorted(b for _, b in spans)
    gone = 0
    # the count rises only at a start, so the earliest overload is at one:
    # after the last start at t, with the spans ending before t gone
    for k, t in enumerate(starts):
        if k + 1 < len(starts) and starts[k + 1] == t:
            continue
        while ends[gone] < t:
            gone += 1
        if k + 1 - gone > cap:
            return t, k + 1 - gone
    return None


def verify_rsc_by_spans(instance, schedule):
    """``verify.verify_rsc`` with each stretch's (start, end) spans in a
    list of their own: the run of covered times and the first overload per
    stretch from its sorted list."""
    report = VerificationReport()
    check_assignments(report, instance.sensors, schedule.start)
    m = instance.m
    cuts = _segment_starts(m, instance.sensors)
    seg = {c: k for k, c in enumerate(cuts)}
    active = {}
    total, live, free = ([0] * len(cuts) for _ in range(3))
    for s in instance.sensors:
        sid, l, r, d = s
        lo, hi = seg[l], seg[r + 1]
        total[lo] += d
        total[hi] -= d
        t0 = schedule.start.get(sid)
        if t0 is None:
            free[lo] += 1
            free[hi] -= 1
        else:
            active[sid] = (s, t0, t0 + d - 1)
            live[lo] += d
            live[hi] -= d
    total, live, free = (list(accumulate(diff[:-1]))
                         for diff in (total, live, free))

    spans = [[] for _ in cuts[1:]]
    for (s, t0, t1) in active.values():
        for k in range(seg[s.l], seg[s.r + 1]):
            spans[k].append((t0, t1))
    m_at = [_prefix_end(sp) for sp in spans]
    m_s = min(m_at)
    report.stats["M"] = m_s

    witness = None
    for k, sp in enumerate(spans):
        hit = first_overload(sp, 5)
        if hit:
            witness = {"x": cuts[k], "t": hit[0], "coverage": hit[1]}
            break
    report.add("coverage-at-most-5", witness is None, witness)

    witness = _nested_violation(active)
    report.add("nested-ranges-sequential", witness is None, witness)

    L = min(total)
    report.stats["L"] = L
    need = L // 5 if schedule.stop_at is None else min(schedule.stop_at,
                                                       L // 5)
    report.add("duration-at-least-load-over-5", m_s >= need,
               None if m_s >= need else {"M": m_s, "needed": need})

    d_max = max((s.d for s in instance.sensors), default=0)
    t_eff = schedule.stop_at if schedule.stop_at is not None else m_s
    bound = 5 * (t_eff + d_max)
    witness = None
    for k, assigned in enumerate(live):
        if assigned > bound:
            witness = {"x": cuts[k], "assigned_live_duration": assigned,
                       "bound": bound}
            break
    report.add("stopped-load-bound", witness is None, witness)

    if schedule.start and not schedule.events:
        report.not_run.append("closing-semantics")
    else:
        witness = None
        replay = [[] for _ in cuts]  # the last list stays empty
        sensor_of = {s.id: s for s in instance.sensors}
        for ev in schedule.events:
            s = sensor_of[ev.id]
            closes = replay[bisect_right(cuts, ev.closes) - 1
                            if 1 <= ev.closes <= m else -1]
            if _holds(closes, ev.t):
                witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                           "reason": "already covered"}
                break
            for k in range(seg[s.l], seg[s.r + 1]):
                _add_span(replay[k], ev.t, ev.t + s.d - 1)
            if not _holds(closes, ev.t):
                witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                           "reason": "still uncovered"}
                break
        report.add("closing-semantics", witness is None, witness)

    stopped = schedule.stop_at is not None and m_s >= schedule.stop_at
    if not stopped:
        blocked = any(at == m_s and not n for at, n in zip(m_at, free))
        report.add("termination-blocked-coordinate", blocked,
                   None if blocked else {"M": m_s})
    report.ratio = (m_s / L) if L else None
    return report
