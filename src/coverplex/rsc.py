"""Greedy scheduler for the restricted strip cover problem.

Sensors are integer intervals [l, r] in a universe {1..m} with positive
integer durations.  The scheduler assigns start times one sensor per
iteration, always extending the currently shortest-covered coordinate, and
never overlaps more than a bounded number of sensors at one point in time.

Coverage is kept per segment, a run of coordinates of which every sensor
range holds all or none: the elementary segments between sensor endpoints.
There are at most 2n + 1 of them, whatever the value of m.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import NamedTuple

INF = float("inf")

_ID, _L, _R = itemgetter(0), itemgetter(1), itemgetter(2)


class Sensor(NamedTuple):
    id: int
    l: int
    r: int
    d: int


def segment_cuts(rows, first, end):
    """Sorted segment starts of (id, l, r, d) rows over coordinates
    first .. end - 1, then ``end``: each l and each r + 1."""
    return sorted({first, end}.union(map(_L, rows),
                                     map((1).__add__, set(map(_R, rows)))))


class RscInstance:
    def __init__(self, m, sensors):
        self.m = int(m)
        self.sensors = [s if isinstance(s, Sensor) else Sensor(*s)
                        for s in sensors]
        if self.m < 1:
            raise ValueError("universe must be non-empty")
        if len(set(map(_ID, self.sensors))) != len(self.sensors):
            raise ValueError("sensor ids must be unique")
        for sid, l, r, d in self.sensors:
            if not (1 <= l <= r <= self.m):
                raise ValueError("sensor %d range outside universe" % sid)
            if d < 1:
                raise ValueError("sensor %d needs positive duration" % sid)

    @cached_property
    def _segments(self):
        """First coordinates of the segments in order, then m + 1; and the
        index of each of those coordinates, so a sensor holds segments
        seg[l] .. seg[r + 1] - 1.  Built once per instance."""
        cuts = segment_cuts(self.sensors, 1, self.m + 1)
        return cuts, dict(zip(cuts, range(len(cuts))))


@dataclass
class Assignment:
    id: int
    t: int
    closes: int
    direction: str  # "right" or "left"
    interval: tuple


@dataclass
class Schedule:
    """Partial schedule: start times for a subset of the sensors, plus the
    per-iteration event log in assignment order."""

    start: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    stop_at: int | None = None


def load(instance: RscInstance):
    """Load profile and its minimum L.  The profile is one (lo, hi, total)
    triple per segment: the total duration of the sensors holding each
    coordinate lo..hi, in order from 1 to m."""
    cuts, seg = instance._segments
    diff = [0] * len(cuts)
    for _, l, r, d in instance.sensors:
        diff[seg[l]] += d
        diff[seg[r + 1]] -= d
    totals = list(accumulate(diff[:-1]))
    return list(zip(cuts, map((-1).__add__, cuts[1:]), totals)), min(totals)


def _max_tree(values):
    """Flat binary max-tree over ``values``, padded with -INF to a power of
    two: node 1 is the root, node k has children 2k and 2k + 1, and value
    k is the leaf size + k."""
    size = 1 << (len(values) - 1).bit_length()
    row = values + [-INF] * (size - len(values))
    levels = [row]
    while len(row) > 1:
        row = [x if x >= y else y for x, y in zip(row[0::2], row[1::2])]
        levels.append(row)
    return [-INF, *chain.from_iterable(reversed(levels))]


def _prefix_max(tree, p):
    """Largest of values 0 .. p - 1, from one node per set bit of p."""
    size = len(tree) >> 1
    best = -INF
    k = 0
    h = size
    while h:
        if p & h:
            value = tree[(size + k) // h]
            if value > best:
                best = value
            k += h
        h >>= 1
    return best


def _leftmost_at_least(tree, p, x):
    """Least k < p whose value is at least x: the first of the prefix's
    nodes (one per set bit of p) whose maximum is at least x, descended to
    its leftmost such leaf; -1 when there is none."""
    size = len(tree) >> 1
    k = 0
    h = size
    while h:
        if p & h:
            node = (size + k) // h
            if tree[node] >= x:
                while node < size:
                    node *= 2
                    if tree[node] < x:
                        node += 1
                return node - size
            k += h
        h >>= 1
    return -1


def _set_leaf(tree, k, value):
    """Set value k of a max-tree and the maxima above it, up to the first
    that stays."""
    node = (len(tree) >> 1) + k
    tree[node] = value
    while node > 1:
        node >>= 1
        a, b = tree[2 * node], tree[2 * node + 1]
        if a < b:
            a = b
        if tree[node] == a:
            break
        tree[node] = a


def greedy_schedule(instance: RscInstance, stop_at=None) -> Schedule:
    """The greedy schedule, stopped once every coordinate is covered up to
    ``stop_at`` (if given): ``_greedy`` over the instance's sensors and
    segments."""
    start, events = _greedy(instance.sensors, instance._segments[0], stop_at)
    return Schedule(start=start, events=events, stop_at=stop_at)


def _greedy(rows, cuts, stop_at):
    """The greedy's pick loop over (id, l, r, d) rows with unique ids and
    the segment starts ``cuts``, then one past the last coordinate, where
    every l and every r + 1 is a cut (``segment_cuts``); returns ({id:
    start}, events).  Starts do not change when every coordinate shifts.

    Set-up sorts the rows once.  Each pick is O(log n) tree descents, two
    byte searches for the minimum's first run, and a covered-until update
    over the chosen range at C speed; only a rise of the minimum takes
    passes over all S <= 2n + 1 segments."""
    start, events = {}, []
    # Every start is t = min covered_until + 1 <= covered_until[x] + 1 at each
    # coordinate x of the chosen range, so the times covered at x are always
    # the prefix 1..covered_until[x]: one number per segment, no timeline.
    # One INF past the last segment is the neighbour of both ends.
    S = len(cuts) - 1
    covered_until = [0] * S + [INF]
    # at_low[k] is 1 iff segment k is at the minimum low, and a 0 ends the
    # last run.  A pick starts at low + 1 and holds segment a, so it lifts
    # every segment it holds above low; the minimum rises only once no flag
    # is left.
    low = 0
    at_low = bytearray(b"\x01") * S + b"\x00"
    a = 0
    stop = INF if stop_at is None else stop_at
    # The sensors in the tie rule for extending left: smallest l, then
    # largest r, then id.  The sensors of one l form a bucket, and a
    # bucket's first unassigned sensor, its head, has the bucket's largest
    # r.  Both picks take a head, so the unassigned sensors of a bucket
    # stay a suffix of it, and a max-tree over the heads' r finds a pick.
    order = sorted(rows, key=_ID)
    order.sort(key=_R, reverse=True)
    order.sort(key=_L)
    ls = list(map(_L, order))
    bucket_l = sorted(set(ls))
    head = [bisect_left(ls, l) for l in bucket_l]
    bucket_end = head[1:] + [len(order)]
    heads_r = _max_tree([order[k][2] for k in head])

    while True:
        t = low + 1
        # segments at the minimum are exactly the ones uncovered at time t;
        # a..b - 1 is the first run of them
        b = at_low.find(0, a)
        i, j = cuts[a], cuts[b] - 1

        # Tie rule for extending right: largest r, then smallest l, then id.
        # The sensors live at i are in the buckets with l <= i whose head
        # reaches i: the leftmost bucket whose head has their largest r.
        p = bisect_right(bucket_l, i)
        r_max = _prefix_max(heads_r, p)
        if r_max < i:
            break
        k = _leftmost_at_least(heads_r, p, r_max)
        direction, closes = "right", i
        if r_max >= j and covered_until[a - 1] < covered_until[b]:
            # the leftmost bucket whose head reaches j; the right pick is
            # live at j, so there is one
            k = _leftmost_at_least(heads_r, bisect_right(bucket_l, j), j)
            direction, closes = "left", j

        sid, l, r, d = order[head[k]]
        head[k] += 1
        _set_leaf(heads_r, k, order[head[k]][2] if head[k] < bucket_end[k]
                  else -INF)
        start[sid] = t
        events.append(Assignment(sid, t, closes, direction, (i, j)))
        end = t + d - 1
        lo, hi = bisect_left(cuts, l), bisect_left(cuts, r + 1)
        covered_until[lo:hi] = [x if x > end else end
                                for x in covered_until[lo:hi]]
        at_low[lo:hi] = bytes(hi - lo)
        a = at_low.find(1)
        if a < 0:
            low = min(covered_until)
            if low < stop:
                # flag the new minimum's segments, from the first one on
                a = x = covered_until.index(low)
                at_low[a] = 1
                for _ in range(covered_until.count(low) - 1):
                    x = covered_until.index(low, x + 1)
                    at_low[x] = 1
        if low >= stop:
            break
    return start, events


def duration(schedule: Schedule, instance: RscInstance):
    """M(S) = min over coordinates x of M(S, x), the run of times 1, 2, ...
    at which x is covered: per segment, the (start, end) spans of the
    assigned sensors that hold it, merged in start order."""
    cuts, seg = instance._segments
    spans = [[] for _ in range(len(cuts) - 1)]
    for sid, l, r, d in instance.sensors:
        t0 = schedule.start.get(sid)
        if t0 is not None:
            span = (t0, t0 + d - 1)
            for k in range(seg[l], seg[r + 1]):
                spans[k].append(span)
    best = INF
    for held in spans:
        t = 0
        for a, b in sorted(held):
            if a > t + 1:
                break
            if b > t:
                t = b
        best = min(best, t)
    return best
