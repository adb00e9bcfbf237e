"""Greedy scheduler for the restricted strip cover problem.

Sensors are integer intervals [l, r] in a universe {1..m} with positive
integer durations.  The scheduler assigns start times one sensor per
iteration, always extending the currently shortest-covered coordinate, and
never overlaps more than a bounded number of sensors at one point in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    per = [0] * (instance.m + 1)
    for s in instance.sensors:
        for x in range(s.l, s.r + 1):
            per[x] += s.d
    per_coord = per[1:]
    return per_coord, min(per_coord)


def greedy_schedule(instance: RscInstance, stop_at=None) -> Schedule:
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


def duration_at(schedule: Schedule, instance: RscInstance, x: int):
    """M(S, x): longest prefix of times 1, 2, ... at which x is covered.
    Boundary coordinates 0 and m+1 count as always covered."""
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


def duration(schedule: Schedule, instance: RscInstance):
    """M(S) = min over coordinates of M(S, x)."""
    return min(duration_at(schedule, instance, x)
               for x in range(1, instance.m + 1))


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
