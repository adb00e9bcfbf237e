"""Scheduling translates of a convex polygon to keep a planar point set
covered for as long as possible.

The planar problem reduces to the 1-D interval scheduler: translate centers
become points against the reflected polygon, each grid cell is handled
independently, and for each polygon vertex a duration-weighted level curve
turns the cell's sensors into 1-D sensors over the curve's canonical
positions, handed to the 1-D greedy's pick loop as rows read off the
curve's position index.  All blocks share one global timeline; the
achieved duration is certified only by full simulation
(verify.verify_planar, which has its own membership test and is also
importable from here), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cover import _grid_cells
from .geometry import ConvexPolygon
from .rsc import RscInstance, Sensor, _greedy, segment_cuts

# unused here; perfbench patches (or calls) these names in this module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .cover import _reserved_filter  # noqa: F401
from .geometry import cell_partition  # noqa: F401
from .levelcurve import LevelCurve, min_load_on_curve  # noqa: F401
from .levelcurve import position_index_ranges  # noqa: F401
from .rsc import greedy_schedule  # noqa: F401
from .verify import verify_planar  # noqa: F401


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
    """1-D scheduling instance over the K canonical positions of ``index``,
    (K, ranges) = position_index_ranges(curve, A)[0] for an item set A that
    holds ``items``.

    Each item (a sensor's center in sheared coordinates, weight = duration)
    becomes a 1-D sensor, with the same id, whose range is the index range
    of positions whose wedge contains it.  Items outside every curve wedge
    are dropped.  A's positions only split the stretches between those of
    ``items``, on which the live sensors are constant, so the greedy
    chooses the same starts.  ``_schedule_block`` schedules this instance
    without building it; the tests use this one as its oracle.
    """
    K, ranges = index
    sensors = []
    for (_, _, pid, w) in items:
        rng = ranges[pid]
        if rng is None:
            continue
        sensors.append(Sensor(pid, rng[0] + 1, rng[1] + 1, w))
    return RscInstance(K, sensors)


def _schedule_block(index, items, t: int):
    """Block solver of the planar vertex loop: the greedy 1-D schedule of
    curve_rsc_instance(index, items), stopped once it covers t; {sensor id:
    start}.  The rows go to the greedy's pick loop straight from the index
    ranges, at 0-based positions (a shift moves no start), so no 1-D
    instance is built: the ranges lie within 0..K-1 of index (K, ranges)
    and a cell's ids are unique by construction."""
    K, ranges = index
    rows = [(pid, rng[0], rng[1], w) for (_, _, pid, w) in items
            if (rng := ranges[pid]) is not None]
    return _greedy(rows, segment_cuts(rows, 0, K), t)[0]


def plan_schedule(instance: PlanarInstance) -> PlanarSchedule:
    """Assign start times to (a subset of) the sensors.

    Per grid cell of ``cover``'s cell loop at level L, with durations as
    weights, per polygon vertex: compute the weighted load floor over the
    remaining curves, reserve the extreme-duration prefixes, and run the
    greedy 1-D scheduler on the surviving items' index ranges
    (``_schedule_block``), stopped at the per-iteration target.  Every
    block schedules into the shared global timeline, so a universe point is
    protected during times 1..t_i by whichever block is responsible for it.
    When no block assigns a sensor (k_cell < 1, or every t_i is 0) the
    schedule is the trivial one, every sensor at t = 1.
    """
    sensors = instance.sensors
    _, L = planar_load(instance)
    grid, ran = _grid_cells(instance.polygon, [s.center for s in sensors], L,
                            _schedule_block, weights=[s.d for s in sensors],
                            ids=[s.id for s in sensors])
    sched = PlanarSchedule(info={"L": L, **grid})
    for name, _, starts, records in ran:
        sched.info["cells"][name]["iterations"] = [
            dict(zip(("i", "L", "t", "x_size", "assigned"), r))
            for r in records]
        sched.start.update(starts)
    if not sched.start:  # k_cell < 1, or no block assigned a sensor
        sched.trivial = True
        sched.start = {s.id: 1 for s in sensors}
    return sched
