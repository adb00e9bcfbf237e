"""Independent verifiers and brute-force oracles.

Everything here re-derives coverage, membership, and loads by direct
simulation or direct per-point tests; none of the algorithmic machinery
(interval snapping, level-curve sweeps, greedy state) is reused, so a bug in
the algorithms cannot hide itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .geometry import ConvexPolygon, perturbation_direction
from .levelcurve import LevelCurve, WedgeFrame, canonical_positions

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

    def ok(self):
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None):
        self.checks.append(Check(name, passed, witness))

    def to_json(self):
        return {
            "checks": [{"name": c.name, "pass": c.passed,
                        "witness": c.witness} for c in self.checks],
            "alpha": self.alpha,
            "ratio": self.ratio,
        }


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
    L = min(per[1:]) if m else 0
    if L > BRUTEFORCE_MAX_LOAD:
        raise ValueError("brute-force oracle limited to load L <= %d"
                         % BRUTEFORCE_MAX_LOAD)
    sensors = sorted(instance.sensors, key=lambda s: (s.l, s.r, s.d, s.id))

    def feasible(T):
        if T == 0:
            return True
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
                sig = (s.l, s.r, s.d)
                if sig in tried:
                    continue
                tried.add(sig)
                win = (1 << s.d) - 1
                for start in range(max(1, t - s.d + 1), t + 1):
                    new = list(masks)
                    for c in range(s.l, s.r + 1):
                        new[c] = masks[c] | (win << start)
                    if rec(used | bit, tuple(new)):
                        return True
            dead.add(key)
            return False

        # quick impossibility: some coordinate lacks total duration T
        if any(per[x] < T for x in range(1, m + 1)):
            return False
        return rec(0, tuple([0] * (m + 1)))

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


def verify_coloring(poly: ConvexPolygon, points, assignment, k):
    """Check that every wedge with apex on any level-k curve contains every
    color 1..T (others count for none; T < 0 fails); alpha = k / T."""
    report = VerificationReport()
    T = assignment.T
    report.alpha = (k / T) if T > 0 else None
    report.stats["T"] = T
    delta = perturbation_direction(poly)
    if T <= 0:
        # no class to search for, but the level must still be one that a
        # level curve accepts (ValueError otherwise)
        frame = WedgeFrame(poly, 0, delta)
        LevelCurve(frame, k, frame.items(points))
        report.add("colors-present", T == 0,
                   "no common colors; vacuous" if T == 0 else {"T": T})
        return report
    failure = None
    for i in range(poly.n):
        frame = WedgeFrame(poly, i, delta)
        items = frame.items(points)
        curve = LevelCurve(frame, k, items)
        # only points of colors 1..T are counted, and their wedge content is
        # constant between their own canonical positions, so those positions
        # decide the check
        counted = [(it, color) for it in items
                   if (color := assignment.colors.get(it[2])) is not None
                   and 1 <= color <= T]
        positions = canonical_positions(curve, [it for it, _ in counted])
        K = len(positions)
        # difference rows for the colors that occur only, so the cost
        # follows the points and not the value of T
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
        # a color without a row is in no wedge, so it fails at position 0:
        # the scan ends within len(present) + 1 colors
        for color in range(1, T + 1):
            row = present.get(color, [0])
            run = 0
            for idx in range(K):
                run += row[idx]
                if run == 0:
                    u, v = positions[idx]
                    failure = {"i": i, "color": color,
                               "apex_u": u, "apex_v": v}
                    break
            if failure:
                break
        if failure:
            break
    report.add("colors-present", failure is None, failure)
    return report


# ---------------------------------------------------------------------------
# schedule verifier


def check_assignments(report, sensors, start):
    """Every assigned id names a sensor of the instance and starts at a
    time >= 1; the offending ids are the witness."""
    known = {s.id for s in sensors}
    bad = [sid for sid in start if sid not in known or start[sid] < 1]
    report.add("assignments-valid", not bad, bad or None)


def _active_times(instance, schedule):
    """sensor -> (start, end) inclusive, assigned only."""
    out = {}
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is not None:
            out[s.id] = (s, t0, t0 + s.d - 1)
    return out


def _range_sums(m, weighted):
    """Index x in 1..m -> total weight of the (sensor, weight) pairs whose
    range holds x, by a difference array."""
    diff = [0] * (m + 2)
    for s, w in weighted:
        diff[s.l] += w
        diff[s.r + 1] -= w
    return list(accumulate(diff))


def _prefix_end(spans):
    """Last time of the run 1, 2, ... that the (start, end) spans cover."""
    t = 0
    for a, b in sorted(spans):
        if a > t + 1:
            break
        if b > t:
            t = b
    return t


def _first_overload(spans, cap):
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


def verify_rsc(instance, schedule):
    """Check the scheduler's four guarantees from each coordinate's list of
    (start, end) spans; cost follows sensors and ranges, not durations."""
    report = VerificationReport()
    check_assignments(report, instance.sensors, schedule.start)
    active = _active_times(instance, schedule)
    m = instance.m

    spans = [[] for _ in range(m + 1)]
    for (s, t0, t1) in active.values():
        for x in range(s.l, s.r + 1):
            spans[x].append((t0, t1))
    m_at = [_prefix_end(sp) for sp in spans]  # index 0 unused
    m_s = min(m_at[1:], default=0)
    report.stats["M"] = m_s

    witness = None
    for x in range(1, m + 1):
        hit = _first_overload(spans[x], 5)
        if hit:
            witness = {"x": x, "t": hit[0], "coverage": hit[1]}
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

    per = _range_sums(m, ((s, s.d) for s in instance.sensors))
    L = min(per[1:m + 1]) if m else 0
    report.stats["L"] = L
    need = L // 5 if schedule.stop_at is None else min(schedule.stop_at,
                                                       L // 5)
    report.add("duration-at-least-load-over-5", m_s >= need,
               None if m_s >= need else {"M": m_s, "needed": need})

    d_max = max((s.d for s in instance.sensors), default=0)
    t_eff = schedule.stop_at if schedule.stop_at is not None else m_s
    bound = 5 * (t_eff + d_max)
    assigned_live = _range_sums(m, ((s, s.d)
                                    for (s, _, _) in active.values()))
    witness = None
    for x in range(1, m + 1):
        if assigned_live[x] > bound:
            witness = {"x": x, "assigned_live_duration": assigned_live[x],
                       "bound": bound}
            break
    report.add("stopped-load-bound", witness is None, witness)

    # closing semantics: replay the event log, merged spans per coordinate
    witness = None
    replay = [[] for _ in range(m + 1)]
    sensor_of = {s.id: s for s in instance.sensors}
    for ev in schedule.events:
        s = sensor_of[ev.id]
        if _holds(replay[ev.closes], ev.t):
            witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                       "reason": "already covered"}
            break
        for x in range(s.l, s.r + 1):
            _add_span(replay[x], ev.t, ev.t + s.d - 1)
        if not _holds(replay[ev.closes], ev.t):
            witness = {"id": ev.id, "t": ev.t, "closes": ev.closes,
                       "reason": "still uncovered"}
            break
    report.add("closing-semantics", witness is None, witness)

    stopped = schedule.stop_at is not None and m_s >= schedule.stop_at
    if not stopped:
        free = _range_sums(m, ((s, 1) for s in instance.sensors
                               if s.id not in schedule.start))
        blocked = [x for x in range(1, m + 1)
                   if m_at[x] == m_s and not free[x]]
        report.add("termination-blocked-coordinate", bool(blocked) or m == 0,
                   None if blocked or m == 0 else {"M": m_s})
    report.ratio = (m_s / L) if L else None
    return report
