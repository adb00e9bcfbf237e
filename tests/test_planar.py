import random

import pytest

from coverplex import levelcurve
from coverplex.cover import decompose_translates
from coverplex.generate import gen_planar, polygon
from coverplex.geometry import perturbation_direction, reflect
from coverplex.levelcurve import (LevelCurve, WedgeFrame, canonical_positions,
                                  position_index_ranges)
from coverplex.planar import (PlanarInstance, PlanarSchedule,
                              curve_rsc_instance, plan_schedule, planar_load,
                              verify_planar)

TRIANGLE = polygon("triangle")


def test_instance_validation():
    with pytest.raises(ValueError):
        PlanarInstance(TRIANGLE, [(0, (0, 0), 1), (0, (1, 1), 2)], [(0, 0)])
    with pytest.raises(ValueError):
        PlanarInstance(TRIANGLE, [(0, (0, 0), 0)], [(0, 0)])


def test_planar_load_examples():
    # translates are centered on the centroid, so a sensor at c covers c
    inst = PlanarInstance(TRIANGLE, [(0, (0, 0), 3), (1, (0, 0), 2)],
                          [(0, 0), (100, 100)])
    loads, L = planar_load(inst)
    assert loads == [5, 0] and L == 0
    assert planar_load(PlanarInstance(TRIANGLE, [], []))[1] == 0


def test_planar_load_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(20):
        sensors = [(sid, (rng.randint(0, 8), rng.randint(0, 8)),
                    rng.randint(1, 4)) for sid in range(15)]
        universe = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(6)]
        inst = PlanarInstance(TRIANGLE, sensors, universe)
        loads, L = planar_load(inst)
        for u, got in zip(universe, loads):
            want = sum(d for (_, c, d) in sensors
                       if TRIANGLE.contains(u, center=c))
            assert got == want
        assert L == min(loads)


def test_curve_rsc_instance_membership():
    # a 1-D sensor is live at a canonical position exactly when that
    # position's wedge contains the sensor's center
    rng = random.Random(1)
    refl = reflect(TRIANGLE)
    delta = perturbation_direction(refl)
    centers = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(20)]
    durs = [rng.randint(1, 4) for _ in range(20)]
    frame = WedgeFrame(refl, 0, delta)
    items = frame.items(centers, weights=durs)
    curve = LevelCurve(frame, 10, items)
    rinst = curve_rsc_instance(position_index_ranges(curve, items)[0], items)
    positions = canonical_positions(curve, items)
    assert rinst.m == len(positions)
    ranged = {s.id: (s.l, s.r, s.d) for s in rinst.sensors}
    for (U, V, pid, w) in items:
        member = [x + 1 for x, (u, v) in enumerate(positions)
                  if u <= U and v <= V]
        if pid not in ranged:
            assert member == []
            continue
        l, r, d = ranged[pid]
        assert member == list(range(l, r + 1))
        assert d == w


def test_plan_schedule_trivial_low_load():
    inst = PlanarInstance(TRIANGLE, [(0, (1, 1), 2)], [(1, 1)])
    sched = plan_schedule(inst)
    assert sched.trivial
    assert sched.start == {0: 1}
    report = verify_planar(inst, sched)
    assert report.ok()
    assert report.stats["M_achieved"] == 2


def test_plan_schedule_identical_sensors():
    n = 1200
    inst = PlanarInstance(TRIANGLE, [(i, (5, 5), 3) for i in range(n)],
                          [(5, 5), (4, 4)])
    sched = plan_schedule(inst)
    report = verify_planar(inst, sched)
    assert report.ok()
    assert report.stats["L"] == 3 * n
    assert report.stats["M_achieved"] >= 1


def test_plan_schedule_clustered_instances():
    # above the load threshold (64 * vertices * grid factor) the schedule
    # always achieves a positive duration
    threshold = 64 * TRIANGLE.n * 16
    for seed in range(3):
        inst = gen_planar(seed, n_sensors=2600, d_max=6, spread=2,
                          universe_size=5)
        _, L = planar_load(inst)
        assert L >= threshold, seed
        sched = plan_schedule(inst)
        report = verify_planar(inst, sched)
        assert report.ok(), seed
        assert report.stats["M_achieved"] >= 1, seed


def test_verify_planar_empty_schedule():
    inst = gen_planar(7, n_sensors=30)
    report = verify_planar(inst, PlanarSchedule())
    assert report.stats["M_achieved"] == 0


def test_verify_planar_flags_unknown_sensor():
    inst = PlanarInstance(TRIANGLE, [(0, (1, 1), 2)], [(1, 1)])
    report = verify_planar(inst, PlanarSchedule(start={5: 1}))
    assert not report.ok()


def test_plan_schedule_deterministic():
    inst = gen_planar(3, n_sensors=900, d_max=3, spread=3, universe_size=4)
    a = plan_schedule(inst)
    b = plan_schedule(inst)
    assert a.start == b.start
    assert a.info == b.info


def test_unit_duration_agrees_with_point_decomposition():
    # with all durations 1 the schedule length and the number of cover
    # classes answer the same question, up to rounding at the thresholds
    for seed in range(3):
        inst = gen_planar(seed + 20, n_sensors=1500, d_max=1, spread=2,
                          universe_size=4)
        _, L = planar_load(inst)
        sched = plan_schedule(inst)
        rep = verify_planar(inst, sched)
        centers = [s.center for s in inst.sensors]
        classes, info = decompose_translates(TRIANGLE, centers, max(L, 1))
        T = info.get("T", len(classes))
        assert abs(rep.stats["M_achieved"] - T) <= 1, seed


def test_plan_schedule_builds_each_curve_index_once_per_cell(monkeypatch):
    builds = []
    real = levelcurve._positions_and_ends

    def counted(curve, items):
        builds.append(len(items))
        return real(curve, items)

    monkeypatch.setattr(levelcurve, "_positions_and_ends", counted)
    inst = gen_planar(0, n_sensors=2600, d_max=7, spread=2, universe_size=5)
    sched = plan_schedule(inst)
    cells = [c for c in sched.info["cells"].values() if not c["skipped"]]
    assert any(it["t"] >= 1 for c in cells for it in c["iterations"])
    assert builds == [c["size"] for c in cells
                      for _ in range(TRIANGLE.n)]
