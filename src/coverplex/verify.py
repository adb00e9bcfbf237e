"""Independent verifiers and brute-force oracles.

Everything here re-derives coverage, membership, and loads by direct
simulation or direct per-point tests; none of the algorithmic machinery
(interval snapping, level-curve sweeps, greedy state) is reused, so a bug in
the algorithms cannot hide itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, groupby, repeat
from math import isqrt, lcm
from operator import attrgetter, eq

from .geometry import (ConvexPolygon, EmptyLevelCurveError, _norm,
                       cross, int_scaled, perturbation_direction)

INF = float("inf")


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    alpha: object = None
    ratio: object = None
    stats: dict = field(default_factory=dict)
    not_run: list = field(default_factory=list)

    def ok(self):
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None):
        self.checks.append(Check(name, passed, witness))

    def to_json(self):
        doc = {
            "checks": [{"name": c.name, "pass": c.passed,
                        "witness": c.witness} for c in self.checks],
            "alpha": self.alpha,
            "ratio": self.ratio,
        }
        if self.not_run:
            doc["not_run"] = self.not_run
        return doc


# ---------------------------------------------------------------------------
# exact 1-D scheduling oracle


BRUTEFORCE_MAX_LOAD = 10_000


def rsc_opt_bruteforce(instance):
    """Exact optimum duration for tiny interval-scheduling instances.

    Searches start times exhaustively with identical-sensor symmetry pruning
    and a remaining-duration bound; refuses instances with more than 8
    sensors, universe size above 8, or load L above BRUTEFORCE_MAX_LOAD
    (10,000), since the search keeps one bit per time step up to L.
    """
    n = len(instance.sensors)
    m = instance.m
    if n > 8 or m > 8:
        raise ValueError("brute-force oracle limited to n <= 8, m <= 8")
    per = [0] * (m + 1)
    for s in instance.sensors:
        for x in range(s.l, s.r + 1):
            per[x] += s.d
    L = min(per[1:])
    if L > BRUTEFORCE_MAX_LOAD:
        raise ValueError("brute-force oracle limited to load L <= %d"
                         % BRUTEFORCE_MAX_LOAD)
    sensors = sorted(instance.sensors, key=lambda s: (s.l, s.r, s.d, s.id))

    def feasible(T):  # 1 <= T <= L, so every coordinate has duration T
        full = (1 << (T + 1)) - 2  # bits 1..T
        dead = set()

        def rec(used, masks):
            t = None
            x = None
            for c in range(1, m + 1):
                free = (~masks[c]) & full
                if free:
                    low = free & -free
                    tc = low.bit_length() - 1
                    if t is None or tc < t:
                        t, x = tc, c
            if t is None:
                return True
            # bound: coordinate x cannot reach T even with all unused sensors
            have = bin(masks[x] & full).count("1")
            avail = sum(sensors[idx].d for idx in range(n)
                        if not used & (1 << idx)
                        and sensors[idx].l <= x <= sensors[idx].r)
            if have + avail < T:
                return False
            key = (used, masks)
            if key in dead:
                return False
            tried = set()
            for idx in range(n):
                bit = 1 << idx
                if used & bit:
                    continue
                s = sensors[idx]
                if not (s.l <= x <= s.r):
                    continue
                # bits above T are masked off, so a longer duration acts
                # as T and its window's size follows T, not the duration
                d = min(s.d, T)
                sig = (s.l, s.r, d)
                if sig in tried:
                    continue
                tried.add(sig)
                win = (1 << d) - 1
                for start in range(max(1, t - d + 1), t + 1):
                    new = list(masks)
                    for c in range(s.l, s.r + 1):
                        new[c] = masks[c] | (win << start)
                    if rec(used | bit, tuple(new)):
                        return True
            dead.add(key)
            return False

        try:
            return rec(0, tuple([0] * (m + 1)))
        finally:  # rec's cell refers to rec: free it and `dead` by refcount
            del rec

    lo, hi = 0, L
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# coloring verifier

# perfbench/tracer.py binds these names here; this check calls neither
LevelCurve = canonical_positions = None


def _apex(key, least, M, scale):
    """The least (main, eps) above a key M*main + eps, in WedgeFrame's
    doubled units; a key below ``least``, the points' least, is an open
    side, put below every point."""
    main, eps = divmod(max(key, least) + M // 2, M)
    main = _norm(Fraction(2 * main, scale))
    return (main, 2 * (eps - M // 2) + 1) if key >= least else (main - 2, 0)


def verify_coloring(poly: ConvexPolygon, points, assignment, k):
    """Check that every wedge at a vertex of ``poly`` that holds at least k
    of the points holds every color 1..T (others count for none; T < 0
    fails); alpha = k / T.

    Wedge i holds the points whose u and v, cross(e, p) for edges i and
    i - 1 with p shifted by (pid + 1)*eps*delta, are at least its apex's
    (WedgeFrame's frame, whose sigma is -1).  It misses color c iff no c
    point dominates the apex, so c fails iff k points lie strictly beyond
    a corner of c's staircase, the c points no other c point dominates.
    """
    if k <= 0:
        raise ValueError("level must be positive")
    N = len(points)
    if N < k:
        raise EmptyLevelCurveError("total load %s below level %s" % (N, k))
    report = VerificationReport()
    T = assignment.T
    report.alpha = (k / T) if T > 0 else None
    report.stats["T"] = T
    if T <= 0:
        report.add("colors-present", T == 0,
                   "no common colors; vacuous" if T == 0 else {"T": T})
        return report
    members = {}  # the ids of each color of 1..T that some point has
    for pid, color in assignment.colors.items():
        if color is not None and 1 <= color <= T and pid in range(N):
            members.setdefault(color, []).append(pid)
    # keys are ints: unless every coordinate is an int, the points are
    # rescaled by the lcm of their denominators (Fraction(n, 1) by 1)
    scale = 1
    if not all(map(int.__instancecheck__, chain.from_iterable(points))):
        scale = lcm(*set(map(attrgetter("denominator"),
                             chain.from_iterable(points))))
        points = [(int(x * scale), int(y * scale)) for x, y in points]
    delta = perturbation_direction(poly)
    edges = [int_scaled(*poly.edge_vec(j)) for j in range(poly.n)]
    # M is a power of two above twice every |eps|: ints order as pairs do
    M = 1 << (2 * N * max(abs(cross(e, delta)) for e in edges)).bit_length()
    keys = []  # per edge, each point's cross(edge, p) with its shift
    for ex, ey in edges:
        a, b, d = -M * ey, M * ex, cross((ex, ey), delta)
        keys.append([x * a + y * b + s for (x, y), s in zip(
            points, range(d, d * (N + 1), d))])
    size = 2 * isqrt(N) + 1  # of the sorted v blocks
    for i in range(poly.n):
        U, V = keys[i], keys[i - 1]
        order = sorted(range(N), key=U.__getitem__)
        us = list(map(U.__getitem__, order))
        vs = list(map(V.__getitem__, order))  # in u order
        blocks = [sorted(vs[a:a + size]) for a in range(0, N, size)]
        least = us[0], min(vs)

        def beyond(u0, v0):
            """The number of points with u > u0 and v > v0."""
            p = bisect_right(us, u0)
            q = p // size + 1  # the first block wholly past p
            end = min(q * size, N)
            return (sum(map(v0.__lt__, vs[p:end])) + N - end
                    - sum(map(bisect_right, blocks[q:], repeat(v0))))
        for color in range(1, T + 1):
            # the staircase by falling u: each point above all after it
            pids = sorted(members.get(color, ()), key=U.__getitem__)[::-1]
            su, sv = [U[p] for p in pids], [V[p] for p in pids]
            top = list(map(eq, sv, accumulate(sv, max)))
            # corners from the tail: (U_r, -inf), (U_r-1, V_r), ...,
            # (-inf, V_1); a color without points has the one (-inf, -inf)
            cu = list(compress(su, top)) + [least[0] - 1]
            cv = [least[1] - 1] + list(compress(sv, top))
            hit = next(compress(zip(cu, cv), map(k.__le__,
                                                 map(beyond, cu, cv))), None)
            if hit is not None:
                report.add("colors-present", False, {
                    "i": i, "color": color,
                    "apex_u": _apex(hit[0], least[0], M, scale),
                    "apex_v": _apex(hit[1], least[1], M, scale)})
                return report
    report.add("colors-present", True)
    return report


# ---------------------------------------------------------------------------
# schedule verifier


def check_assignments(report, sensors, start):
    """Every assigned id names a sensor of the instance and starts at a
    time >= 1; the offending ids are the witness."""
    known = {s.id for s in sensors}
    bad = [sid for sid in start if sid not in known or start[sid] < 1]
    report.add("assignments-valid", not bad, bad or None)


def _segment_starts(m, sensors):
    """First coordinates of the stretches of 1..m on which no sensor range
    starts or ends, in order, then m + 1.  Every sensor range holds all of
    such a stretch or none of it."""
    return sorted({1, m + 1} | {s.l for s in sensors}
                  | {s.r + 1 for s in sensors})


def _prefix_end(spans):
    """Last time of the run 1, 2, ... that the (start, end) spans cover."""
    t = 0
    for a, b in sorted(spans):
        if a > t + 1:
            break
        if b > t:
            t = b
    return t


def _count_tree(leaves, first):
    """A count tree over ``leaves`` times, as (low, high, add) lists: node
    1 is the root, node p has children 2p and 2p + 1, and leaf k is node
    size + k.  add[p] is the count added to all of p's leaves; low[p] and
    high[p] are the least and the largest count under p, its own add
    included.  Every count starts at 0; the low of the first ``first``
    starts at INF, so no search for a 0 stops there."""
    size = 1 << (leaves - 1).bit_length()
    low = [0] * (2 * size)
    low[size:size + first] = [INF] * first
    for p in range(size - 1, 0, -1):
        low[p] = min(low[2 * p], low[2 * p + 1])
    return low, [0] * (2 * size), [0] * (2 * size)


def _tree_add(tree, lo, hi, v):
    """Add v to the counts of leaves lo .. hi - 1 at the nodes that tile
    them, then refresh the extremes on the paths above leaves lo and
    hi - 1; above the tiles' parents, a node whose extremes both stay ends
    its path's walk."""
    low, high, add = tree
    size = len(add) >> 1
    l, r = lo + size, hi + size
    tiled = size  # at the end, no node below this index has a tile child
    while l < r:
        if l & 1:
            low[l] += v
            high[l] += v
            add[l] += v
            l += 1
        if r & 1:
            r -= 1
            low[r] += v
            high[r] += v
            add[r] += v
        l >>= 1
        r >>= 1
        tiled >>= 1
    for p in ((lo + size) >> 1, (hi - 1 + size) >> 1):
        while p:
            a, b = low[2 * p], low[2 * p + 1]
            a = (a if a < b else b) + add[p]
            c, d = high[2 * p], high[2 * p + 1]
            c = (c if c > d else d) + add[p]
            if a == low[p] and c == high[p] and p < tiled:
                break
            low[p] = a
            high[p] = c
            p >>= 1


def _first_zero(tree):
    """The leftmost leaf whose low count is 0, by one descent; counts are
    never negative and some count is 0."""
    low, _, add = tree
    size = len(add) >> 1
    p = 1
    above = 0  # the adds of p's ancestors and p
    while p < size:
        above += add[p]
        p *= 2
        if low[p] + above > 0:
            p += 1
    return p - size


def _first_above(tree, cap):
    """(leaf, count) at the leftmost leaf whose count is above ``cap``, by
    one descent; None when there is none."""
    _, high, add = tree
    size = len(add) >> 1
    if high[1] <= cap:
        return None
    p = 1
    above = 0
    while p < size:
        above += add[p]
        p *= 2
        if high[p] + above <= cap:
            p += 1
    return p - size, high[p] + above


def _holds(merged, t):
    """Whether time t lies in one of the disjoint sorted (start, end)
    spans."""
    k = bisect_right(merged, (t, INF)) - 1
    return k >= 0 and merged[k][1] >= t


def _add_span(merged, a, b):
    """Add [a, b] to disjoint sorted spans, merging it with every span it
    overlaps or touches."""
    lo = bisect_left(merged, (a, -INF))
    if lo and merged[lo - 1][1] >= a - 1:
        lo -= 1
    hi = lo
    while hi < len(merged) and merged[hi][0] <= b + 1:
        hi += 1
    if lo < hi:
        a, b = min(a, merged[lo][0]), max(b, merged[hi - 1][1])
    merged[lo:hi] = [(a, b)]


def _nested_violation(active):
    """Witness of the first assigned sensor, in the order of ``active``,
    whose range another assigned sensor properly contains and which starts
    before that one ends; None when there is none.

    A sweep in (l ascending, r descending) order meets every proper
    container of a range before the range itself; a group of equal ranges
    is checked before any of it is added, as equal ranges do not contain
    each other.  A Fenwick tree over r, largest first, keeps the largest
    t + d (end + 1) of the sensors met, so a sensor is violated when it
    starts below that figure over its containers.  The outer sensor is the
    first one in ``active`` order that violates with it, found by a scan.
    """
    items = list(active.values())
    rs = sorted({s.r for s, _, _ in items}, reverse=True)
    rank = {r: k + 1 for k, r in enumerate(rs)}  # r >= x is a prefix
    tree = [-INF] * (len(rs) + 1)  # prefix maxima

    def range_key(k):
        return items[k][0].l, -items[k][0].r

    violated = []
    for (_, neg_r), group in groupby(sorted(range(len(items)), key=range_key),
                                     key=range_key):
        group = list(group)
        best = -INF
        q = rank[-neg_r]
        while q:
            best = max(best, tree[q])
            q &= q - 1
        violated += [k for k in group if items[k][1] < best]
        for k in group:
            s, t0, _ = items[k]
            q = rank[s.r]
            while q < len(tree):
                tree[q] = max(tree[q], t0 + s.d)
                q += q & -q
    if not violated:
        return None
    u, tu, _ = items[min(violated)]
    for v, tv, _ in items:
        proper = (v.l <= u.l and u.r <= v.r and (v.l < u.l or u.r < v.r))
        if proper and not tu >= tv + v.d:
            return {"inner": u.id, "outer": v.id, "t_inner": tu,
                    "t_outer": tv}


def verify_rsc(instance, schedule):
    """Check the scheduler's four guarantees on the stretches between
    sensor endpoints, by one sweep over them with a count tree over the
    assigned sensors' compressed start and end times.  O((n + a) log a)
    time and O(n + a) memory for a assigned sensors, whatever m and the
    durations; the closing-semantics replay is apart from that bound."""
    report = VerificationReport()
    check_assignments(report, instance.sensors, schedule.start)
    m = instance.m
    cuts = _segment_starts(m, instance.sensors)
    seg = {c: k for k, c in enumerate(cuts)}
    # one walk: the assigned sensors with their (start, end), and difference
    # arrays over the stretches of the total duration, the assigned
    # duration and the number of unassigned sensors
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

    # one sweep over the stretches: an assigned sensor's span adds 1 to
    # the count of its times, in a tree over the compressed starts and
    # ends, from its first stretch through its last.  A stretch's run of
    # covered times ends before the leftmost time >= 1 at count 0, and its
    # first overload is the leftmost time above 5.
    times = sorted({1}.union(*((t0, t1 + 1)
                               for _, t0, t1 in active.values())))
    at = dict(zip(times, range(len(times))))
    tree = _count_tree(len(times), at[1])
    moves = [[] for _ in cuts]
    for s, t0, t1 in active.values():
        a, b = at[t0], at[t1 + 1]
        moves[seg[s.l]].append((a, b, 1))
        moves[seg[s.r + 1]].append((a, b, -1))
    m_at = []
    witness, run = None, 0  # an empty tree's run
    for k in range(len(cuts) - 1):
        if moves[k]:
            for a, b, v in moves[k]:
                _tree_add(tree, a, b, v)
            run = times[_first_zero(tree)] - 1
            if witness is None and (hit := _first_above(tree, 5)):
                witness = {"x": cuts[k], "t": times[hit[0]],
                           "coverage": hit[1]}
        m_at.append(run)
    m_s = min(m_at)
    report.stats["M"] = m_s
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

    # closing semantics: replay the event log, merged spans per stretch; an
    # event of a sensor the instance lacks fails, and a coordinate outside
    # 1..m is never covered.  A schedule read without its log has nothing
    # to replay, so the check is listed as not run.
    if schedule.start and not schedule.events:
        report.not_run.append("closing-semantics")
    else:
        witness = None
        replay = [[] for _ in cuts]  # the last list stays empty
        sensor_of = {s.id: s for s in instance.sensors}
        for ev in schedule.events:
            s = sensor_of.get(ev.id)
            closes = replay[bisect_right(cuts, ev.closes) - 1
                            if 1 <= ev.closes <= m else -1]
            if s is None or _holds(closes, ev.t):
                witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                           "reason": "unknown sensor" if s is None
                           else "already covered"}
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


def verify_planar(instance, schedule):
    """Full simulation: per universe point, its load and the longest prefix of
    times in which an assigned sensor holds it; M_achieved is the least
    prefix, L the least load.  With the vertices, centroid O, centers and
    universe scaled by one lcm, u is in the translate at c iff u - c + O is
    on or left of every CCW edge, tested once per (u, distinct center)."""
    report = VerificationReport()
    check_assignments(report, instance.sensors, schedule.start)
    poly, universe = instance.polygon, instance.universe
    at_center = {}  # center -> [load, spans of its assigned sensors]
    for sid, center, d in instance.sensors:
        group = at_center.setdefault(center, [0, []])
        group[0] += d
        if (t0 := schedule.start.get(sid)) is not None:
            group[1].append((t0, t0 + d - 1))
    scale = lcm(*{c.denominator for p in (*poly.vertices, poly.centroid,
                                          *at_center, *universe) for c in p})

    def scaled(p):
        return int(p[0] * scale), int(p[1] * scale)
    vs = list(map(scaled, poly.vertices))
    ox, oy = scaled(poly.centroid)
    # left of edge a -> b iff cross(b - a, u - c) >= cross(b - a, a - O)
    edges = [(bx - ax, by - ay, cross((bx - ax, by - ay), (ax - ox, ay - oy)))
             for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1])]
    groups = [(*scaled(c), w, sp) for c, (w, sp) in at_center.items()]
    loads, reaches = [], []
    for ux, uy in map(scaled, universe):
        load, spans = 0, []
        for cx, cy, w, sp in groups:
            dx, dy = ux - cx, uy - cy
            for ex, ey, k in edges:
                if ex * dy - ey * dx < k:
                    break
            else:
                load += w
                spans += sp
        loads.append(load)
        reaches.append(_prefix_end(spans))
    L, M = min(loads, default=0), min(reaches, default=0)
    report.stats = {"M_achieved": M, "L": L, "floor_point": {
        "point": list(universe[reaches.index(M)]), "covered_until": M}
        if reaches else None}
    report.ratio = M / L if L else None
    report.add("simulated", True)
    return report
