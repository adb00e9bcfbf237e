"""Benchmark workloads: seeded inputs, the CLI commands that solve and
verify them, and the quality figures read from the verifiers.

Every function takes ``cp``, a namespace of freshly imported ``coverplex``
modules, because the benchmark re-imports the package for each set-up
repetition.  Instance ``j`` of a run with seed ``s`` is generated from seed
``s + j``; the program only ever sees the JSON written from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

POLYGON_CYCLE = ("triangle", "square", "hexagon")


@dataclass(frozen=True)
class Workload:
    name: str
    solve: tuple            # CLI argv before --in/--out
    verify: tuple
    # The first ``quality_set`` instances run in every pass, whatever the
    # time budget, so quality and the trivial baseline are taken over a fixed
    # set and do not depend on how fast the program is.
    quality_set: int
    full: dict              # generator parameters of a measured run
    tiny: dict              # generator parameters of the self-test
    make: Callable          # (cp, seed, **params) -> instance document
    verify_doc: Callable    # (instance doc, solve output) -> verify input
    quality: Callable       # verify output -> float, higher is better
    baseline: Callable      # (cp, instance doc) -> trivial-solution quality


def _schedule_verify_doc(inst, out):
    return {"instance": inst, "schedule": out}


def _ratio(vout):
    return float(vout["ratio"] or 0.0)


# -- planar -----------------------------------------------------------------

def _make_planar(cp, seed, n_sensors):
    inst = cp.generate.gen_planar(seed, n_sensors=n_sensors, d_max=7,
                                  spread=2, universe_size=5)
    return cp.jsonio.planar_instance_to_json(inst)


def _planar_baseline(cp, doc):
    """M/L when every sensor starts at t=1, by full simulation."""
    inst = cp.jsonio.planar_instance_from_json(doc)
    sched = cp.planar.PlanarSchedule(start={s.id: 1 for s in inst.sensors})
    return float(cp.planar.verify_planar(inst, sched).ratio or 0.0)


# -- point decomposition ----------------------------------------------------

def _make_points(cp, seed, per_vertex):
    poly = cp.generate.polygon(POLYGON_CYCLE[seed % 3])
    k = per_vertex * poly.n
    points = cp.generate.gen_points(seed, size=k + k // 8, span=60)
    return cp.jsonio.decomp_instance_to_json(poly, points, k)


def _points_verify_doc(inst, out):
    return dict(inst, colors=out["colors"], T=out["T"])


def _points_quality(vout):
    """T/k, i.e. 1/alpha; zero when no common color exists."""
    return 1.0 / vout["alpha"] if vout["alpha"] else 0.0


def _points_baseline(cp, doc):
    """T=1: every point in the single class, checked by verify_coloring."""
    poly, points, k = cp.jsonio.decomp_instance_from_json(doc)
    asg = cp.cover.ColorAssignment(
        colors=dict.fromkeys(range(len(points)), 1), T=1)
    report = cp.verify.verify_coloring(poly, points, asg, k)
    return 1.0 / k if report.ok() else 0.0


# -- 1-D scheduling ---------------------------------------------------------

def _make_rsc(cp, seed, n, m, d_max):
    return cp.jsonio.rsc_instance_to_json(
        cp.generate.gen_rsc(seed, n=n, m=m, d_max=d_max))


def _rsc_baseline(cp, doc):
    """M/L when every sensor starts at t=1, by verify_rsc's simulation."""
    inst = cp.jsonio.rsc_instance_from_json(doc)
    sched = cp.rsc.Schedule(start={s.id: 1 for s in inst.sensors})
    return float(cp.verify.verify_rsc(inst, sched).ratio or 0.0)


WORKLOADS = {w.name: w for w in [
    # criterion-10 family: geometry-bound (contains via planar_load), reserved
    # filter on weighted curves, thread pool over 4 cells
    Workload(
        name="planar-clustered",
        solve=("plan", "solve"), verify=("plan", "verify"), quality_set=4,
        full={"n_sensors": 2600}, tiny={"n_sensors": 400},
        make=_make_planar, verify_doc=_schedule_verify_doc,
        quality=_ratio, baseline=_planar_baseline),
    # criterion-8 family: level curves dominate, no contains calls, no 1-D
    # scheduler and no pool; bypasses geometry and scheduler
    Workload(
        name="decomp-points",
        solve=("decomp", "points"), verify=("decomp", "verify"),
        quality_set=6, full={"per_vertex": 256}, tiny={"per_vertex": 64},
        make=_make_points, verify_doc=_points_verify_doc,
        quality=_points_quality, baseline=_points_baseline),
    # 1-D scheduling whose cost grows with the duration values (d up to
    # 20000); verify_rsc and greedy_schedule dominate.  Run by the
    # all-workloads form but not gated in BENCHMARK.json: an instance's cost
    # follows the seed-drawn load of its least-covered point (3x apart
    # across seeds), so the median of one run moves 10-20% between seeds.
    Workload(
        name="rsc-long",
        solve=("rsc", "solve"), verify=("rsc", "verify"), quality_set=6,
        full={"n": 60, "m": 10, "d_max": 20000},
        tiny={"n": 20, "m": 6, "d_max": 300},
        make=_make_rsc, verify_doc=_schedule_verify_doc,
        quality=_ratio, baseline=_rsc_baseline),
    # 1-D scheduling whose cost grows with the sensor count, short durations;
    # CLI parsing and JSON are a large share
    Workload(
        name="rsc-dense",
        solve=("rsc", "solve"), verify=("rsc", "verify"), quality_set=8,
        full={"n": 2000, "m": 100, "d_max": 8},
        tiny={"n": 200, "m": 20, "d_max": 8},
        make=_make_rsc, verify_doc=_schedule_verify_doc,
        quality=_ratio, baseline=_rsc_baseline),
]}
