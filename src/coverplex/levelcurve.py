"""Level curves of wedge loads, their canonical positions, and each point's
range of positions.

Everything runs in a sheared coordinate frame per (polygon, vertex): the two
cone rays of the wedge become the positive axes, so "point p lies in the
wedge with apex a" turns into componentwise dominance  u(p) >= u(a) and
v(p) >= v(a).  Coordinates are cross products against the integer cone
rays, doubled so that midpoints of integer points stay integral (rational
points give Fractions, halved exactly), and carry a symbolic epsilon term
that realizes the deterministic general-position rule: point with id t
behaves as if shifted by t*eps*delta for an infinitesimal eps > 0 and a
fixed generic integer direction delta.

A coordinate is a pair (main, eps_coefficient); comparison is lexicographic.
Infinite ray positions use float infinities in the main slot, which compare
correctly against ints.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from operator import floordiv

from .geometry import ConvexPolygon, cross, int_scaled, perturbation_direction

NEG_INF = (float("-inf"), 0)
POS_INF = (float("inf"), 0)


class EmptyLevelCurveError(ValueError):
    """Raised when the requested level exceeds the total available load."""


class WedgeFrame:
    """Shear frame mapping the cone at vertex i onto the dominance quadrant."""

    def __init__(self, poly: ConvexPolygon, i: int, delta=None):
        self.poly = poly
        self.i = i % poly.n
        d1, d2 = poly.cone_dirs(i)
        self.e1 = int_scaled(*d1)
        self.e2 = int_scaled(*d2)
        c = cross(self.e1, self.e2)
        if c == 0:
            raise ValueError("degenerate cone at vertex %d" % i)
        self.sigma = 1 if c > 0 else -1
        self.absc = abs(c)
        self.delta = delta if delta is not None else perturbation_direction(poly)
        # doubled scale keeps midpoints of point coordinates integral
        self._u_eps = 2 * self.sigma * cross(self.delta, self.e2)
        self._v_eps = 2 * self.sigma * cross(self.e1, self.delta)

    def ucoord(self, p, pid=0):
        return (2 * self.sigma * (p[0] * self.e2[1] - p[1] * self.e2[0]),
                self._u_eps * pid)

    def vcoord(self, p, pid=0):
        return (2 * self.sigma * (self.e1[0] * p[1] - self.e1[1] * p[0]),
                self._v_eps * pid)

    def to_real(self, u_main, v_main):
        """Real-plane point for sheared coords, epsilon term dropped."""
        u = Fraction(u_main, 2 * self.absc)
        v = Fraction(v_main, 2 * self.absc)
        return (u * self.e1[0] + v * self.e2[0],
                u * self.e1[1] + v * self.e2[1])

    def items(self, points, weights=None, ids=None):
        """Sheared (U, V, pid, w) records for a point collection: the
        coordinates of ucoord and vcoord with epsilon index pid + 1."""
        s2 = 2 * self.sigma
        (e1x, e1y), (e2x, e2y) = self.e1, self.e2
        u_eps, v_eps = self._u_eps, self._v_eps
        return [((s2 * (x * e2y - y * e2x), u_eps * (pid + 1)),
                 (s2 * (e1x * y - e1y * x), v_eps * (pid + 1)), pid, w)
                for (x, y), pid, w in zip(
                    points, range(len(points)) if ids is None else ids,
                    repeat(1) if weights is None else weights)]


def walk_key(pos):
    """Total order of curve positions from head (small u, large v) to tail."""
    (u, v) = pos
    return (u[0], u[1], -v[0], -v[1])


class LevelCurve:
    """Monotone staircase bounding the apex region of wedge load >= level.

    ``drops`` lists the vertical edges head-to-tail as (u, v_above, v_below);
    the head ray sits at level drops[0][1], the tail ray is the last drop,
    whose v_below is -infinity.
    """

    def __init__(self, frame: WedgeFrame, level, items):
        if level <= 0:
            raise ValueError("level must be positive")
        total = sum(w for (_, _, _, w) in items)
        if total < level:
            raise EmptyLevelCurveError(
                "total load %s below level %s" % (total, level))
        self.frame = frame
        self.level = level
        self.items = sorted(items, key=lambda it: it[0])

        n = len(self.items)
        # thr[j]: staircase level over apex u in (U_{j-1}, U_j], i.e. the
        # largest v such that weight{p in items[j:] : V_p >= v} >= level;
        # None once the suffix is too light.  Scanned right to left with the
        # minimal "top set" kept in a min-heap on V.
        thr = [None] * n
        heap = []
        top_w = 0
        for j in range(n - 1, -1, -1):
            _, V, _, w = self.items[j]
            if top_w < level or V > heap[0][0]:
                heapq.heappush(heap, (V, w))
                top_w += w
                while top_w - heap[0][1] >= level:
                    top_w -= heap[0][1]
                    heapq.heappop(heap)
            if top_w >= level:
                thr[j] = heap[0][0]
        last_j = max(j for j in range(n) if thr[j] is not None)
        us = [it[0] for it in self.items]
        drops = []
        prev = thr[0]
        for j in range(1, last_j + 1):
            if thr[j] != prev:
                drops.append((us[j - 1], prev, thr[j]))
                prev = thr[j]
        drops.append((us[last_j], prev, NEG_INF))
        self.drops = drops
        self._drop_us = [d[0] for d in drops]
        # v_below tail to head: strictly increasing, for bisect
        self._vlos_rev = [d[2] for d in reversed(drops)]
        self.head = (drops[0][0], drops[0][1])
        tail_candidates = [self.items[j][1] for j in range(last_j, n)]
        self.tail = (us[last_j], min([thr[last_j]] + tail_candidates))
        self._base = None

    def _base_positions(self):
        """The head-ray representative, the head, every staircase corner,
        the tail and the tail-ray representative; listed on first use."""
        if self._base is None:
            head_u, head_level = self.head
            tail_u, tail_v = self.tail
            base = [((head_u[0] - 2, head_u[1]), head_level), self.head]
            for (du, v_hi, v_lo) in self.drops:
                base.append((du, v_hi))
                if v_lo != NEG_INF:
                    base.append((du, v_lo))
            base += [self.tail, (tail_u, (tail_v[0] - 2, tail_v[1]))]
            self._base = base
        return self._base

    # -- queries ---------------------------------------------------------

    def _ends(self, U_q, V_q):
        """Closed range (lo, hi) of curve positions whose wedge contains the
        point with sheared coords (U_q, V_q); None when empty."""
        drops = self.drops
        # latest position with u <= U_q
        idx = bisect_left(self._drop_us, U_q)
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
            a = len(drops) - bisect_right(self._vlos_rev, V_q)
            lo = (drops[a][0], V_q)
        if lo[0] > U_q:
            return None
        return lo, hi

    def chain_real(self):
        """Finite staircase vertices in the real plane, head to tail."""
        pts = []
        f = self.frame
        for (du, v_hi, v_lo) in self.drops:
            pts.append(f.to_real(du[0], v_hi[0]))
            if v_lo != NEG_INF:
                pts.append(f.to_real(du[0], v_lo[0]))
        return pts


def build_level_curve(poly, i, points, level, weights=None):
    frame = WedgeFrame(poly, i)
    return LevelCurve(frame, level, frame.items(points, weights))


def _positions_and_ends(curve: LevelCurve, items):
    """Canonical positions, each interval end's index among them, and per
    item the two ends of its interval (None when empty), from one interval
    pass.

    A ray end is the ray itself, (NEG_INF, head level) or (tail u,
    NEG_INF), and indexes the ray representative at that end.  Equal ends
    are kept as one tuple, so the ends add no objects for the garbage
    collector to count beyond the distinct positions.
    """
    canon = {pos: pos for pos in curve._base_positions()}
    los, his = [], []
    for (U, V, _pid, _w) in items:
        iv = curve._ends(U, V)
        if iv is None:
            los.append(None)
            his.append(None)
            continue
        lo, hi = iv
        los.append(canon.setdefault(lo, lo))
        his.append(canon.setdefault(hi, hi))
    rays = ((NEG_INF, curve.drops[0][1]), (curve.drops[-1][0], NEG_INF))
    ordered = sorted((pos for pos in canon if pos not in rays), key=walk_key)
    # gap representatives at exact midpoints, so strictly inside: integer
    # coordinates and every epsilon term are even, so floor division halves
    # them exactly; rational coordinates are halved as Fractions
    halve = (floordiv if all(type(u[0]) is int and type(v[0]) is int
                             for u, v in ordered) else Fraction)
    positions = []
    index_of = {rays[0]: 0}
    for a, b in zip(ordered, ordered[1:]):
        index_of[a] = len(positions)
        positions.append(a)
        (au, av), (bu, bv) = a, b
        # the walk runs down a vertical segment and right along a
        # horizontal one
        if au == bu:
            positions.append(
                (au, (halve(av[0] + bv[0], 2), (av[1] + bv[1]) // 2)))
        elif av == bv:
            positions.append(
                ((halve(au[0] + bu[0], 2), (au[1] + bu[1]) // 2), av))
        else:
            raise AssertionError("gap straddles a staircase corner")
    index_of[ordered[-1]] = len(positions)
    positions.append(ordered[-1])
    index_of[rays[1]] = len(positions) - 1
    return positions, index_of, los, his


def canonical_positions(curve: LevelCurve, q_items):
    """Finitely many curve positions such that the wedge content from the
    given points is constant strictly between consecutive ones.

    Includes every interval endpoint, every staircase corner, head and tail,
    one representative out on each infinite ray, and one representative
    strictly inside each remaining gap.
    """
    return _positions_and_ends(curve, q_items)[0]


def position_index_ranges(curve: LevelCurve, items):
    """Canonical positions of the curve plus, per item, the closed index
    range of positions whose wedge contains it (None when empty).

    Interval endpoints are themselves canonical, so the snapping is exact;
    infinite ray endpoints snap to the ray representatives at the ends.
    Items with the same interval share one range tuple, so an index held
    through a whole vertex loop stays small.
    """
    positions, index_of, los, his = _positions_and_ends(curve, items)
    ranges = {}
    span_of = {(None, None): None}  # interval ends -> shared range
    for (_, _, pid, _w), lo, hi in zip(items, los, his):
        ends = lo, hi
        if ends not in span_of:
            span_of[ends] = (index_of[lo], index_of[hi])
        ranges[pid] = span_of[ends]
    return positions, ranges


def index_load_diff(index, items):
    """Difference array of the load over the positions of ``index``
    (positions, ranges from position_index_ranges), one entry past the
    last position: the weight of each item joins at the first position of
    its range and leaves after the last."""
    positions, ranges = index
    diff = [0] * (len(positions) + 1)
    for (_, _, pid, w) in items:
        rng = ranges[pid]
        if rng is not None:
            diff[rng[0]] += w
            diff[rng[1] + 1] -= w
    return diff


def index_min_load(index, items):
    """Minimum load over the positions of ``index``: the load at a position
    is the weight of the items whose range contains it."""
    return min(accumulate(index_load_diff(index, items)[:-1]))


class _Fenwick:
    def __init__(self, n):
        self.n = n
        self.t = [0] * (n + 1)

    def add(self, i, w):
        i += 1
        while i <= self.n:
            self.t[i] += w
            i += i & -i

    def prefix(self, i):
        s = 0
        while i > 0:
            s += self.t[i]
            i -= i & -i
        return s

    def longest_prefix_within(self, rem):
        """Largest x with prefix(x) <= rem, for non-negative weights."""
        t = self.t
        pos = 0
        step = 1 << self.n.bit_length()
        while step:
            nxt = pos + step
            if nxt <= self.n and t[nxt] <= rem:
                rem -= t[nxt]
                pos = nxt
            step >>= 1
        return pos


def min_load_on_curve(curve: LevelCurve, q_items):
    """Minimum load over the canonical positions of the curve with respect to
    the given items; correct because the load is piecewise constant between
    canonical positions."""
    return index_min_load(position_index_ranges(curve, q_items), q_items)
