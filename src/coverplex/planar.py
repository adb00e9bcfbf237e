"""Scheduling translates of a convex polygon to keep a planar point set
covered for as long as possible.

The planar problem reduces to the 1-D interval scheduler: translate centers
become points against the reflected polygon, each grid cell is handled
independently, and for each polygon vertex a duration-weighted level curve
turns the cell's sensors into 1-D sensors over the curve's canonical
positions.  All blocks share one global timeline; the achieved duration is
certified only by full simulation (verify_planar), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cover import _grid_cells
from .geometry import ConvexPolygon
from .rsc import RscInstance, Sensor, greedy_schedule
from .verify import VerificationReport, check_assignments

# unused here; perfbench/tracer.py patches these names in this module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .cover import _reserved_filter  # noqa: F401
from .geometry import cell_partition  # noqa: F401
from .levelcurve import LevelCurve, min_load_on_curve  # noqa: F401
from .levelcurve import position_index_ranges  # noqa: F401


class PlanarSensor(NamedTuple):
    id: int
    center: tuple
    d: int


@dataclass
class PlanarInstance:
    polygon: ConvexPolygon
    sensors: list
    universe: list

    def __post_init__(self):
        self.sensors = [s if isinstance(s, PlanarSensor) else PlanarSensor(*s)
                        for s in self.sensors]
        if len({s[0] for s in self.sensors}) != len(self.sensors):
            raise ValueError("sensor ids must be unique")
        for sid, _, d in self.sensors:
            if d < 1:
                raise ValueError("sensor %d needs positive duration" % sid)


@dataclass
class PlanarSchedule:
    start: dict = field(default_factory=dict)
    trivial: bool = False
    info: dict = field(default_factory=dict)


def planar_load(instance: PlanarInstance):
    """Per-universe-point total durations and their minimum L, by direct
    point-in-translate tests."""
    poly = instance.polygon
    # one membership test per distinct center
    weight_at = {}
    for _, center, d in instance.sensors:
        weight_at[center] = weight_at.get(center, 0) + d
    loads = [sum(w for c, w in weight_at.items()
                 if poly.contains(u, center=c))
             for u in instance.universe]
    return loads, (min(loads) if loads else 0)


def curve_rsc_instance(index, items):
    """1-D scheduling instance over the canonical positions of ``index``,
    position_index_ranges(curve, A)[0] for an item set A that holds ``items``.

    Each item (a sensor's center in sheared coordinates, weight = duration)
    becomes a 1-D sensor, with the same id, whose range is the index range
    of positions whose wedge contains it.  Items outside every curve wedge
    are dropped.  A's positions only split the stretches between those of
    ``items``, on which the live sensors are constant, so the greedy
    chooses the same starts.
    """
    positions, ranges = index
    sensors = []
    for (_, _, pid, w) in items:
        rng = ranges[pid]
        if rng is None:
            continue
        sensors.append(Sensor(pid, rng[0] + 1, rng[1] + 1, w))
    return RscInstance(len(positions), sensors)


def _schedule_block(index, items, t: int):
    """Block solver of the planar vertex loop: the greedy 1-D schedule of
    the curve instance, stopped once it covers t; {sensor id: start}."""
    return greedy_schedule(curve_rsc_instance(index, items), stop_at=t).start


def plan_schedule(instance: PlanarInstance) -> PlanarSchedule:
    """Assign start times to (a subset of) the sensors.

    Per grid cell of ``cover``'s cell loop at level L, with durations as
    weights, per polygon vertex: compute the weighted load floor over the
    remaining curves, reserve the extreme-duration prefixes, and run the
    greedy 1-D scheduler on the curve instance, stopped at the per-iteration
    target.  Every block schedules into the shared global timeline, so a
    universe point is protected during times 1..t_i by whichever block is
    responsible for it.
    """
    sensors = instance.sensors
    _, L = planar_load(instance)
    grid, ran = _grid_cells(instance.polygon, [s.center for s in sensors], L,
                            _schedule_block, weights=[s.d for s in sensors],
                            ids=[s.id for s in sensors])
    sched = PlanarSchedule(info={"L": L, **grid})
    if grid["k_cell"] < 1:
        sched.trivial = True
        sched.start = {s.id: 1 for s in sensors}
        return sched
    for name, _, starts, records in ran:
        sched.info["cells"][name]["iterations"] = [
            dict(zip(("i", "L", "t", "x_size", "assigned"), r))
            for r in records]
        sched.start.update(starts)
    return sched


def verify_planar(instance: PlanarInstance,
                  schedule: PlanarSchedule) -> VerificationReport:
    """Ground-truth check by full simulation: for every universe point, its
    load and the longest prefix of time steps during which some assigned
    sensor's translate contains it, from one membership test per distinct
    sensor center.  Reports M_achieved and the ratio to the minimum L."""
    report = VerificationReport()
    poly = instance.polygon
    check_assignments(report, instance.sensors, schedule.start)
    at_center = {}
    for s in instance.sensors:
        at_center.setdefault(s.center, []).append(s)

    L = None
    m_achieved = None
    witness = None
    for u in instance.universe:
        load = 0
        spans = []
        for center, group in at_center.items():
            if not poly.contains(u, center=center):
                continue
            for sid, _, d in group:
                load += d
                t0 = schedule.start.get(sid)
                if t0 is not None:
                    spans.append((t0, t0 + d - 1))
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
