"""Level curves of wedge loads, their canonical positions, and each point's
range of positions.

Everything runs in a sheared coordinate frame per (polygon, vertex): the two
cone rays of the wedge become the positive axes, so "point p lies in the
wedge with apex a" turns into componentwise dominance  u(p) >= u(a) and
v(p) >= v(a).  Coordinates are cross products against the integer cone
rays, doubled so that midpoints of points stay exact, and carry a symbolic
epsilon term that realizes the deterministic general-position rule: point
with id t behaves as if shifted by t*eps*delta for an infinitesimal
eps > 0 and a fixed generic integer direction delta.

A coordinate (main, eps) is one int, the flat key (D*main)*B + eps: D
clears the point set's denominators and B is a power of two above twice
its largest |eps|, so keys order as the pairs do, lexicographically.  A
frame's U is the key along the edge leaving its vertex and its V the key
along the edge entering it, so the vertex loop (vertex_items) keys each
edge once, for two frames, at one D and B for all of its frames.  The
rays' infinite ends are float infinities, which compare right with ints;
they never meet an int in arithmetic, which would round it to a float.

A position (u, v) on a staircase is named by one int, its walk coordinate
u - v: along the walk from head to tail v falls on the vertical segments
and u rises on the horizontal ones, so the walk coordinate strictly
increases, and the segment it falls on gives back u and v.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import lcm
from operator import attrgetter, itemgetter, sub

from .geometry import (ConvexPolygon, EmptyLevelCurveError, _norm,
                       cross, int_scaled, perturbation_direction)

NEG_INF, INF = float("-inf"), float("inf")


class WedgeFrame:
    """Shear frame mapping the cone at vertex i onto the dominance quadrant,
    with the D (``scale``) and B (``base``) of its flat keys; vertex_items
    builds every frame of a polygon and keys the points in them."""

    def __init__(self, poly: ConvexPolygon, i: int, delta, scale, base):
        self.poly = poly
        self.i = i % poly.n
        d1, d2 = poly.cone_dirs(i)
        self.e1 = int_scaled(*d1)
        self.e2 = int_scaled(*d2)
        # a strictly convex CCW polygon turns clockwise from e1 to e2
        self.absc = -cross(self.e1, self.e2)
        self.delta = delta
        self.scale, self.base = scale, base

    def split(self, key):
        """The (main, eps) pair of a flat key, main an int or a Fraction."""
        dm, eps = divmod(key + self.base // 2, self.base)
        return _norm(Fraction(dm, self.scale)), eps - self.base // 2

    def to_real(self, u, v):
        """Real-plane point at flat keys u, v, epsilon term dropped."""
        u, v = (Fraction(self.split(c)[0], 2 * self.absc) for c in (u, v))
        return (u * self.e1[0] + v * self.e2[0],
                u * self.e1[1] + v * self.e2[1])


def vertex_items(poly, points, weights=None, ids=None):
    """Every vertex's WedgeFrame, all at one D and B, and each frame's
    sheared (U, V, pid, w) records: flat keys with epsilon index pid + 1,
    U along the edge leaving the vertex (e2) and V along the edge entering
    it (-e1).

    Edge j's key column holds -2*cross(B*D*p + (pid + 1)*delta, e) for
    the edge vector e: frame j's U and frame j + 1's V, whose -e1 is the
    same e.  Frame i's items zip the columns of edges i and i - 1 with the
    ids and the weights.  D clears the points' denominators, 1 when every
    coordinate is an int; points with any other coordinate are rescaled
    to ints, also when D is 1 (whole Fractions), so every key is an int.
    B is the least power of two above twice the largest |epsilon term| of
    any frame."""
    delta = perturbation_direction(poly)
    edges = [int_scaled(*poly.edge_vec(j)) for j in range(poly.n)]
    if ids is None:
        ids, far = range(len(points)), len(points)
    else:  # the largest |pid + 1|
        far = max(max(ids) + 1, -1 - min(ids)) if len(ids) else 0
    base = 1 << (4 * far * max(abs(cross(delta, e)) for e in edges)
                 ).bit_length()
    scale = 1
    if not all(map(int.__instancecheck__, chain.from_iterable(points))):
        scale = lcm(*set(map(attrgetter("denominator"),
                             chain.from_iterable(points))))
        points = [(int(x * scale), int(y * scale)) for x, y in points]
    frames = [WedgeFrame(poly, i, delta, scale, base) for i in range(poly.n)]
    dx, dy = delta
    shifted = [(base * x + dx * s, base * y + dy * s)
               for (x, y), s in zip(points, map((1).__add__, ids))]
    keys = [[x * a + y * b for x, y in shifted]
            for a, b in ((-2 * ey, 2 * ex) for ex, ey in edges)]
    ws = repeat(1) if weights is None else weights
    return frames, [list(zip(keys[i], keys[i - 1], ids, ws))
                    for i in range(poly.n)]


class LevelCurve:
    """Monotone staircase bounding the apex region of wedge load >= level.

    ``drops`` lists the vertical edges head-to-tail as (u, v_above, v_below);
    the head ray sits at level drops[0][1], the tail ray is the last drop,
    whose v_below is -infinity.
    """

    def __init__(self, frame: WedgeFrame, level, items):
        if level <= 0:
            raise ValueError("level must be positive")
        self.frame = frame
        self.items = items = sorted(items, key=itemgetter(0))
        # suffix weights, tail first: the shortest U-sorted suffix whose
        # weight reaches the level starts at last_j, the tail's u
        reach = list(accumulate(map(itemgetter(3), reversed(items))))
        total = reach[-1] if reach else 0
        if total < level:
            raise EmptyLevelCurveError(
                "total load %s below level %s" % (total, level))
        last_j = len(items) - 1 - bisect_left(reach, level)
        # the staircase level over apex u in (U_{j-1}, U_j] is the lowest V
        # of the minimal top set of items[j:] that reaches the level, kept
        # in a min-heap on V: the suffix at last_j in bulk, then the scan
        # from right to left, one drop wherever the level changes
        heap = list(map(itemgetter(1, 3), items[last_j:]))
        heapq.heapify(heap)
        self.tail = (items[last_j][0], heap[0][0])
        top_w = reach[-1 - last_j]
        while top_w - heap[0][1] >= level:
            top_w -= heapq.heappop(heap)[1]
        low = heap[0][0]
        drops = [(items[last_j][0], low, NEG_INF)]
        for j in range(last_j - 1, -1, -1):
            U, V, _, w = items[j]
            if V > low:
                heapq.heappush(heap, (V, w))
                top_w += w
                while top_w - heap[0][1] >= level:
                    top_w -= heapq.heappop(heap)[1]
                if heap[0][0] != low:
                    drops.append((U, heap[0][0], low))
                    low = heap[0][0]
        drops.reverse()
        self.drops = drops
        # the staircase's v: the head level, then each drop's v_below; the
        # last position with u <= U is at v = _steps_v[bisect_right(_us,
        # U)].  Reversed, v increases, and the first position with v <= V
        # is on the drop whose u is at the same reversed index (after a
        # pad) as the last v <= V, or out on the head ray, whose u is -inf
        self._us = us = [d[0] for d in drops]
        self._steps_v = steps_v = [drops[0][1], *map(itemgetter(2), drops)]
        self._steps_v_rev = steps_v[::-1]
        self._us_rev = [None, *reversed(us), NEG_INF]
        self.head = (drops[0][0], drops[0][1])

    def _walk(self, ends):
        """Sorted walk coordinates of the head-ray representative, the
        tail, the tail-ray representative, every staircase corner (each
        drop's top, the head among them, and each bottom but the tail
        drop's, out at +inf) and the finite interval ``ends``."""
        ray = 2 * self.frame.scale * self.frame.base  # main - 2
        head_u, head_level = self.head
        tail_u, tail_v = self.tail
        us, steps_v = self._us, self._steps_v
        walk = {head_u - head_level - ray, tail_u - tail_v,
                tail_u - tail_v + ray, *map(sub, us, steps_v),
                *map(sub, us, steps_v[1:-1]), *ends}
        walk -= {NEG_INF, INF}
        return sorted(walk)

    # -- queries ---------------------------------------------------------

    def _ends(self, U_q, V_q):
        """Walk coordinates (lo, hi) of the closed range of curve positions
        whose wedge contains the point with sheared coords (U_q, V_q), a
        ray end as -inf or +inf; None when empty."""
        hi_v = self._steps_v[bisect_right(self._us, U_q)]
        if V_q < hi_v:
            return None
        lo_u = self._us_rev[bisect_right(self._steps_v_rev, V_q)]
        if lo_u > U_q:
            return None
        return (NEG_INF if lo_u is NEG_INF else lo_u - V_q,
                INF if hi_v is NEG_INF else U_q - hi_v)

    def chain_real(self):
        """Finite staircase vertices in the real plane, head to tail."""
        return [self.frame.to_real(du, v) for du, v_hi, v_lo in self.drops
                for v in (v_hi, v_lo) if v != NEG_INF]


def build_level_curve(poly, i, points, level):
    frames, items = vertex_items(poly, points)
    return LevelCurve(frames[i], level, items[i])


def canonical_positions(curve: LevelCurve, q_items):
    """The K positions that position_index_ranges(curve, q_items) indexes,
    head to tail, as (u, v) flat-key pairs; the wedge content of q_items
    is constant strictly between consecutive ones.  Position 2r is at the
    r-th walk coordinate s of LevelCurve._walk, and 2r + 1 at the
    midpoint of 2r and 2r + 2, exact as D*main and every epsilon term are
    even.  On drop j's vertical segment u is the drop's u and v = u - s;
    on the horizontal one after it (or the head ray) v is its v_below (or
    the head level) and u = s + v.
    """
    ends = map(curve._ends, map(itemgetter(0), q_items),
               map(itemgetter(1), q_items))
    walk = curve._walk(chain.from_iterable(filter(None, ends)))
    seq = [0] * (2 * len(walk) - 1)
    seq[::2] = walk
    seq[1::2] = [(a + b) // 2 for a, b in zip(walk, walk[1:])]
    us, steps_v = curve._us, curve._steps_v
    tops, last = list(map(sub, us, steps_v)), len(us) - 1
    positions = []
    for s in seq:
        j = bisect_right(tops, s) - 1
        if j >= 0 and (j == last or s <= us[j] - steps_v[j + 1]):
            positions.append((us[j], us[j] - s))
        else:
            v = steps_v[j + 1]  # the head level when j is -1
            positions.append((s + v, v))
    return positions


def position_index_ranges(curve: LevelCurve, items):
    """The number K of canonical positions of the curve plus, per item,
    the closed index range of positions whose wedge contains it (None when
    empty), and the items' load difference array over those positions, one
    entry past the last, from the same walk: ((K, ranges), diff).  No
    position is decoded; canonical_positions names them.

    An item with U >= tail u and V >= head level holds both rays, so every
    position: one pass splits these whole-curve items off, settled without
    an interval query.  Each other item's interval ends are walk
    coordinates from LevelCurve._ends.  They, the staircase corners, head,
    tail and the two ray representatives are the positions at even
    indexes (LevelCurve._walk), so one sort of ints orders them and an
    end's index is twice its rank; a ray end, -inf or +inf, indexes the
    ray representative at that end.  Interval endpoints are themselves
    canonical, so the snapping is exact.  Items with the same interval
    share one range tuple, so an index held through a whole vertex loop
    stays small.
    """
    head_level, tail_u = curve.drops[0][1], curve.drops[-1][0]
    whole, part = {}, []
    for it in items:
        if it[0] < tail_u or it[1] < head_level:
            part.append(it)
        else:
            whole[it[2]] = it[3]
    Us, Vs, pids, ws = [*zip(*part)] or [()] * 4
    ends = list(map(curve._ends, Us, Vs))
    hits = list(filter(None, ends))
    los, his = [*zip(*hits)] or [(), ()]
    walk = curve._walk(chain(los, his))
    K = 2 * len(walk) - 1
    index_of = dict(zip(walk, range(0, K + 1, 2)))
    index_of[NEG_INF], index_of[INF] = 0, K - 1
    # equal ends keep the first as key and the last range as value
    span_of = dict(zip(hits, zip(map(index_of.__getitem__, los),
                                 map(index_of.__getitem__, his))))
    spans = list(map(span_of.get, ends))
    ranges = dict.fromkeys(whole, (0, K - 1))
    ranges.update(zip(pids, spans))
    whole_w = sum(whole.values())
    diff = [whole_w] + [0] * (K - 1) + [-whole_w]
    for (lo, hi), w in zip(filter(None, spans), compress(ws, spans)):
        diff[lo] += w
        diff[hi + 1] -= w
    return (K, ranges), diff


def min_load_on_curve(curve: LevelCurve, q_items):
    """Minimum load over the canonical positions of the curve with respect to
    the given items; correct because the load is piecewise constant between
    canonical positions."""
    _, diff = position_index_ranges(curve, q_items)
    return min(accumulate(diff[:-1]))
