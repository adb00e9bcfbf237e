"""Greedy scheduler for the restricted strip cover problem.

Sensors are integer intervals [l, r] in a universe {1..m} with positive
integer durations.  The scheduler assigns start times one sensor per
iteration, always extending the currently shortest-covered coordinate, and
never overlaps more than a bounded number of sensors at one point in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

INF = float("inf")


def right_key(s):
    """Tie rule for extending right: largest r, then smallest l, then id."""
    return (-s.r, s.l, s.id)


def left_key(s):
    """Tie rule for extending left: smallest l, then largest r, then id."""
    return (s.l, -s.r, s.id)


@dataclass(frozen=True)
class Sensor:
    id: int
    l: int
    r: int
    d: int


class RscInstance:
    def __init__(self, m, sensors):
        self.m = int(m)
        self.sensors = [s if isinstance(s, Sensor) else Sensor(*s)
                        for s in sensors]
        if self.m < 1:
            raise ValueError("universe must be non-empty")
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ValueError("sensor ids must be unique")
        for s in self.sensors:
            if not (1 <= s.l <= s.r <= self.m):
                raise ValueError("sensor %d range outside universe" % s.id)
            if s.d < 1:
                raise ValueError("sensor %d needs positive duration" % s.id)


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
    """Per-coordinate total durations and their minimum L."""
    diff = [0] * (instance.m + 2)
    for s in instance.sensors:
        diff[s.l] += s.d
        diff[s.r + 1] -= s.d
    per_coord = list(accumulate(diff[1:instance.m + 1]))
    return per_coord, min(per_coord)


def _first_live(ordered, start, x):
    """First sensor of `ordered` (sorted by a tie rule) that is unassigned
    and live at x, or None."""
    for s in ordered:
        if s.l <= x <= s.r and s.id not in start:
            return s
    return None


def greedy_schedule(instance: RscInstance, stop_at=None) -> Schedule:
    m = instance.m
    # Every start is t = min covered_until + 1 <= covered_until[x] + 1 at each
    # coordinate x of the chosen range, so the times covered at x are always
    # the prefix 1..covered_until[x]: one number per coordinate, no timeline.
    covered_until = [0] * (m + 2)
    by_right = sorted(instance.sensors, key=right_key)
    by_left = sorted(instance.sensors, key=left_key)
    sched = Schedule(stop_at=stop_at)

    def current_duration():
        return min(covered_until[1:m + 1])

    while True:
        t = current_duration() + 1
        # coordinates achieving the minimum are exactly the ones uncovered
        # at time t
        i = covered_until.index(t - 1, 1)
        j = i
        while j + 1 <= m and covered_until[j + 1] < t:
            j += 1

        s_right = _first_live(by_right, sched.start, i)
        if s_right is None:
            break
        if s_right.r < j:
            chosen, direction, closes = s_right, "right", i
        else:
            m_left = covered_until[i - 1] if i > 1 else INF
            m_right = covered_until[j + 1] if j < m else INF
            if m_left >= m_right:
                chosen, direction, closes = s_right, "right", i
            else:
                chosen, direction, closes = (
                    _first_live(by_left, sched.start, j), "left", j)

        sched.start[chosen.id] = t
        sched.events.append(Assignment(id=chosen.id, t=t, closes=closes,
                                       direction=direction, interval=(i, j)))
        end = t + chosen.d - 1
        for x in range(chosen.l, chosen.r + 1):
            if covered_until[x] < end:
                covered_until[x] = end
        if stop_at is not None and current_duration() >= stop_at:
            break
    return sched


def _coordinate_spans(schedule: Schedule, instance: RscInstance):
    """Index x in 1..m -> (start, end) spans of the assigned sensors live
    at x."""
    spans = [[] for _ in range(instance.m + 1)]
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is not None:
            span = (t0, t0 + s.d - 1)
            for x in range(s.l, s.r + 1):
                spans[x].append(span)
    return spans


def _covered_prefix(spans):
    """Length of the run of times 1, 2, ... covered by (start, end) spans."""
    t = 0
    for a, b in sorted(spans):
        if a > t + 1:
            break
        if b > t:
            t = b
    return t


def duration_at(schedule: Schedule, instance: RscInstance, x: int):
    """M(S, x): longest prefix of times 1, 2, ... at which x is covered.
    Boundary coordinates 0 and m+1 count as always covered."""
    if x < 1 or x > instance.m:
        return INF
    return _covered_prefix(_coordinate_spans(schedule, instance)[x])


def duration(schedule: Schedule, instance: RscInstance):
    """M(S) = min over coordinates of M(S, x)."""
    return min(map(_covered_prefix, _coordinate_spans(schedule, instance)[1:]))


def dominant_right(instance: RscInstance, schedule: Schedule, x: int):
    """Unassigned sensor live at x first under ``right_key``, or None."""
    live = [s for s in instance.sensors
            if s.id not in schedule.start and s.l <= x <= s.r]
    return min(live, key=right_key, default=None)


def dominant_left(instance: RscInstance, schedule: Schedule, x: int):
    """Unassigned sensor live at x first under ``left_key``, or None."""
    live = [s for s in instance.sensors
            if s.id not in schedule.start and s.l <= x <= s.r]
    return min(live, key=left_key, default=None)


def coverage_profile(schedule: Schedule, instance: RscInstance):
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
