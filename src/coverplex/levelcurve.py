"""Level curves of wedge loads, their canonical positions, and each point's
range of positions.

Everything runs in a sheared coordinate frame per (polygon, vertex): the two
cone rays of the wedge become the positive axes, so "point p lies in the
wedge with apex a" turns into componentwise dominance  u(p) >= u(a) and
v(p) >= v(a).  Coordinates are scaled to integers (cross products against the
integer cone rays, doubled so that midpoints stay integral) and carry a
symbolic epsilon term that realizes the deterministic general-position rule:
point with id t behaves as if shifted by t*eps*delta for an infinitesimal
eps > 0 and a fixed generic integer direction delta.

A coordinate is a pair (main, eps_coefficient); comparison is lexicographic.
Infinite ray positions use float infinities in the main slot, which compare
correctly against ints.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

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
        """Sheared (U, V, pid, w) records for a point collection."""
        out = []
        for idx, p in enumerate(points):
            pid = ids[idx] if ids is not None else idx
            w = 1 if weights is None else weights[idx]
            out.append((self.ucoord(p, pid + 1), self.vcoord(p, pid + 1), pid, w))
        return out


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

    def _keyed_base(self):
        """{walk key: position} of the head-ray representative, the head,
        every staircase corner, the tail and the tail-ray representative;
        keyed on first use."""
        if self._base is None:
            head_u, head_level = self.head
            tail_u, tail_v = self.tail
            base = [((head_u[0] - 2, head_u[1]), head_level), self.head]
            for (du, v_hi, v_lo) in self.drops:
                base.append((du, v_hi))
                if v_lo != NEG_INF:
                    base.append((du, v_lo))
            base += [self.tail, (tail_u, (tail_v[0] - 2, tail_v[1]))]
            self._base = {walk_key(pos): pos for pos in base}
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


# bisect keys of the infinite interval ends: before and after every position
_BEFORE_ALL = (float("-inf"),)
_AFTER_ALL = (float("inf"),)


def _keyed_positions(curve: LevelCurve, items):
    """Canonical positions, their walk keys, and per item the walk keys of
    its interval's two ends (None when empty), from one interval pass.

    A ray end gets a shared key below or above every position, and any other
    end's key is, repeats aside, the one ``seen`` holds: keeping the keys
    adds almost no objects for the garbage collector to count.
    """
    seen = dict(curve._keyed_base())
    lo_keys, hi_keys = [], []
    for (U, V, _pid, _w) in items:
        iv = curve._ends(U, V)
        if iv is None:
            lo_keys.append(None)
            hi_keys.append(None)
            continue
        lo, hi = iv
        if lo[0] == NEG_INF:
            lo_keys.append(_BEFORE_ALL)
        else:
            key = walk_key(lo)
            seen[key] = lo
            lo_keys.append(key)
        if hi[1] == NEG_INF:
            hi_keys.append(_AFTER_ALL)
        else:
            key = walk_key(hi)
            seen[key] = hi
            hi_keys.append(key)
    # gap representatives; all base positions have even coordinates, so the
    # integer midpoint is exact and strictly inside
    positions, keys = [], []
    ordered = sorted(seen)
    for ka, kb in zip(ordered, ordered[1:]):
        a, b = seen[ka], seen[kb]
        positions.append(a)
        keys.append(ka)
        if a[0] == b[0]:
            mid = (a[0], ((a[1][0] + b[1][0]) // 2, (a[1][1] + b[1][1]) // 2))
        elif a[1] == b[1]:
            mid = (((a[0][0] + b[0][0]) // 2, (a[0][1] + b[0][1]) // 2), a[1])
        else:
            raise AssertionError("gap straddles a staircase corner")
        km = walk_key(mid)
        if ka < km < kb:
            positions.append(mid)
            keys.append(km)
    positions.append(seen[ordered[-1]])
    keys.append(ordered[-1])
    return positions, keys, lo_keys, hi_keys


def canonical_positions(curve: LevelCurve, q_items):
    """Finitely many curve positions such that the wedge content from the
    given points is constant strictly between consecutive ones.

    Includes every interval endpoint, every staircase corner, head and tail,
    one representative out on each infinite ray, and one representative
    strictly inside each remaining gap.
    """
    return _keyed_positions(curve, q_items)[0]


def position_index_ranges(curve: LevelCurve, items):
    """Canonical positions of the curve plus, per item, the closed index
    range of positions whose wedge contains it (None when empty).

    Interval endpoints are themselves canonical, so the snapping is exact;
    infinite ray endpoints snap to the ray representatives at the ends.
    """
    positions, keys, lo_keys, hi_keys = _keyed_positions(curve, items)
    ranges = {}
    for (_, _, pid, _w), lo, hi in zip(items, lo_keys, hi_keys):
        ranges[pid] = None if lo is None else (
            bisect_left(keys, lo), bisect_right(keys, hi) - 1)
    return positions, ranges


def index_min_load(index, items):
    """Minimum load over the positions of ``index`` (positions, ranges from
    position_index_ranges): the load at a position is the weight of the
    items whose range contains it, summed by a difference array."""
    positions, ranges = index
    diff = [0] * (len(positions) + 1)
    for (_, _, pid, w) in items:
        rng = ranges[pid]
        if rng is not None:
            diff[rng[0]] += w
            diff[rng[1] + 1] -= w
    diff.pop()
    return min(accumulate(diff))


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
