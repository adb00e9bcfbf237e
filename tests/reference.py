"""Reference oracles shared by the tests: plain formulas that the library's
fast paths are checked against."""

from bisect import bisect_left
from fractions import Fraction

from coverplex.cover import CoverPreconditionError
from coverplex.geometry import cross, dot, perturbation_direction
from coverplex.levelcurve import (LevelCurve, WedgeFrame, _Fenwick,
                                  canonical_positions)
from coverplex.rsc import INF, Assignment, Schedule
from coverplex.verify import VerificationReport, check_assignments


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


def wedge_load(poly, i, apex, points, weights=None, symbolic=True):
    """Count (or weighted sum) of points inside the wedge at vertex i with
    the given apex; the apex itself carries no symbolic shift."""
    frame = WedgeFrame(poly, i)
    ua, va = frame.ucoord(apex), frame.vcoord(apex)
    total = 0
    for idx, p in enumerate(points):
        pu, pv = frame.ucoord(p, idx + 1), frame.vcoord(p, idx + 1)
        if symbolic:
            inside = pu >= ua and pv >= va
        else:
            inside = pu[0] >= ua[0] and pv[0] >= va[0]
        if inside:
            total += 1 if weights is None else weights[idx]
    return total


def dominance_loads(positions, items):
    """Load (weight of dominating points) at each position, via one sweep.

    positions: list of ((u),(v)) pairs; items: (U, V, pid, w).  Returns a
    list parallel to positions.
    """
    vs = sorted(it[1] for it in items)
    fw = _Fenwick(len(vs))
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
    delta = perturbation_direction(poly)
    if T <= 0:
        frame = WedgeFrame(poly, 0, delta)
        LevelCurve(frame, k, frame.items(points))
        report.add("colors-present", T == 0,
                   "no common colors; vacuous" if T == 0 else {"T": T})
        return report
    failure = None
    for i in range(poly.n):
        frame = WedgeFrame(poly, i, delta)
        items = frame.items(points)
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
