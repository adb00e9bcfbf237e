import ast
import random
import time
from fractions import Fraction
from importlib.util import resolve_name
from pathlib import Path

import pytest

import reference
from coverplex import (EmptyLevelCurveError, cover, levelcurve, planar, rsc,
                       verify)
from coverplex.cover import ColorAssignment, decompose_points
from coverplex.generate import gen_planar, gen_points, gen_rsc, polygon
from coverplex.geometry import ConvexPolygon, reflect
from coverplex.planar import PlanarInstance, PlanarSchedule, plan_schedule
from coverplex.rsc import (RscInstance, Schedule, duration, greedy_schedule,
                           load)
from coverplex.verify import (rsc_opt_bruteforce, verify_coloring, verify_rsc)

TRIANGLE = polygon("triangle")


def test_bruteforce_trivial_instances():
    # one sensor covering everything: optimum equals its duration
    assert rsc_opt_bruteforce(RscInstance(4, [(0, 1, 4, 3)])) == 3
    # two disjoint-in-time full-range sensors stack
    assert rsc_opt_bruteforce(RscInstance(3, [(0, 1, 3, 1),
                                              (1, 1, 3, 1)])) == 2
    # a gap coordinate forces zero
    assert rsc_opt_bruteforce(RscInstance(3, [(0, 1, 1, 4)])) == 0


def test_bruteforce_needs_alignment():
    # two half-ranges of duration 2 plus one full range of duration 1:
    # load is 3 everywhere but the halves cannot both stay aligned with
    # the full sensor, so the optimum is 3 only if starts line up
    inst = RscInstance(2, [(0, 1, 1, 2), (1, 2, 2, 2), (2, 1, 2, 1)])
    assert rsc_opt_bruteforce(inst) == 3


def test_bruteforce_rejects_large():
    with pytest.raises(ValueError):
        rsc_opt_bruteforce(RscInstance(9, [(i, 1, 9, 1) for i in range(9)]))


def test_greedy_within_factor_five_of_opt():
    for seed in range(150):
        inst = gen_rsc(seed, n=1 + seed % 7, m=1 + seed % 8, d_max=4)
        opt = rsc_opt_bruteforce(inst)
        _, L = load(inst)
        assert opt <= L
        got = duration(greedy_schedule(inst), inst)
        assert got * 5 >= opt, seed
        assert got <= opt


def test_verify_rsc_accepts_greedy():
    for seed in range(40):
        inst = gen_rsc(seed, n=14, m=10, d_max=5)
        report = verify_rsc(inst, greedy_schedule(inst))
        assert report.ok(), (seed, report.to_json())


def test_verify_rsc_catches_overlap():
    # six identical sensors all started at the same time exceed the
    # overlap bound
    inst = RscInstance(3, [(i, 1, 3, 2) for i in range(6)])
    sched = Schedule(start={i: 1 for i in range(6)})
    report = verify_rsc(inst, sched)
    names = {c.name: c.passed for c in report.checks}
    assert not names["coverage-at-most-5"]


def test_verify_rsc_catches_nested_overlap():
    inst = RscInstance(5, [(0, 1, 5, 2), (1, 2, 4, 2)])
    sched = Schedule(start={0: 1, 1: 2})
    report = verify_rsc(inst, sched)
    names = {c.name: c.passed for c in report.checks}
    assert not names["nested-ranges-sequential"]


def test_verify_rsc_catches_bad_closing_event():
    from coverplex.rsc import Assignment
    inst = RscInstance(3, [(0, 1, 3, 2)])
    sched = Schedule(start={0: 1},
                     events=[Assignment(id=0, t=2, closes=1,
                                        direction="right",
                                        interval=(1, 3))])
    # claimed closing time 2 is covered only because of the event itself;
    # replay with t=2 while coverage already reaches 2 must fail
    sched.events.insert(0, Assignment(id=0, t=1, closes=1,
                                      direction="right", interval=(1, 3)))
    report = verify_rsc(inst, sched)
    names = {c.name: c.passed for c in report.checks}
    assert not names["closing-semantics"]


def test_verify_rsc_reports_stats_and_ratio():
    inst = RscInstance(4, [(0, 1, 4, 5)])
    sched = greedy_schedule(inst)
    report = verify_rsc(inst, sched)
    assert report.stats["L"] == 5
    assert report.stats["M"] == 5
    assert report.ratio == 1.0


def test_verify_coloring_accepts_decomposition():
    pts = gen_points(11, size=500, span=40)
    k = 450
    asg, _ = decompose_points(TRIANGLE, pts, k)
    assert asg.T >= 1
    report = verify_coloring(TRIANGLE, pts, asg, k)
    assert report.ok()
    assert report.alpha == k / asg.T


def test_verify_coloring_catches_missing_class():
    pts = gen_points(12, size=500, span=40)
    k = 450
    asg, _ = decompose_points(TRIANGLE, pts, k)
    assert asg.T >= 1
    # wipe one whole color class: some wedge now misses it
    broken = dict(asg.colors)
    victim = 1
    for pid in [p for p, c in broken.items() if c == victim]:
        del broken[pid]

    class Fake:
        colors = broken
        T = asg.T

    report = verify_coloring(TRIANGLE, pts, Fake(), k)
    assert not report.ok()
    bad = [c for c in report.checks if not c.passed]
    assert bad and bad[0].witness["color"] == victim


def test_verify_coloring_witness_is_the_same_for_whole_fraction_points():
    # int points are keyed as they are; Fraction(n, 1) points are rescaled
    # to int keys too, so their witness carries ints.  Checked at a level
    # below the decomposition's, the coloring fails at a finite corner
    pts = gen_points(12, size=500, span=40)
    asg, _ = decompose_points(TRIANGLE, pts, 450)
    want = verify_coloring(TRIANGLE, pts, asg, 100).to_json()
    whole = [(Fraction(x), Fraction(y, 1)) for x, y in pts]
    got = verify_coloring(TRIANGLE, whole, asg, 100).to_json()
    assert got == want and not got["checks"][0]["pass"]
    witness = got["checks"][0]["witness"]
    assert witness["apex_u"][0] != -2
    assert all(type(c) is int for c in witness["apex_u"] + witness["apex_v"])


def test_verify_coloring_counts_only_colors_1_to_T():
    pts = gen_points(12, size=500, span=40)
    k = 450
    asg, _ = decompose_points(TRIANGLE, pts, k)
    assert asg.T >= 1
    # a relabelled last class must not stand in for class T
    for label in (-1, 0):
        colors = {p: (label if c == asg.T else c)
                  for p, c in asg.colors.items()}
        report = verify_coloring(TRIANGLE, pts,
                                 ColorAssignment(colors, asg.T), k)
        assert not report.ok()
        bad = [c for c in report.checks if not c.passed]
        assert bad[0].witness["color"] == asg.T
    report = verify_coloring(TRIANGLE, pts, ColorAssignment({}, -1), k)
    assert not report.ok()
    assert report.alpha is None


def test_verify_coloring_zero_classes_vacuous():
    class Empty:
        colors = {}
        T = 0

    report = verify_coloring(TRIANGLE, [(0, 0)], Empty(), 1)
    assert report.ok()
    assert report.alpha is None


@pytest.mark.parametrize("T", [0, 1])
def test_verify_coloring_level_above_point_count_is_empty_level_curve(T):
    asg = ColorAssignment({0: 1} if T else {}, T)
    with pytest.raises(EmptyLevelCurveError):
        verify_coloring(TRIANGLE, [(0, 0)], asg, 2)


def test_verify_coloring_scales_with_staircase_size():
    # in the frame of the triangle's vertex 0 every point is on the
    # staircase, so there are 16,001 corners to count: a scan of all the
    # points per corner would make 2.6e8 comparisons
    n = 16_000
    pts = [(i, n - i) for i in range(n)]
    asg = ColorAssignment(dict.fromkeys(range(n), 1), 1)
    t0 = time.perf_counter()
    report = verify_coloring(TRIANGLE, pts, asg, n // 2)
    assert time.perf_counter() - t0 < 3.0
    assert report.ok()


def test_verify_module_imports_only_geometry_from_the_package():
    """A verifier shares no code with the algorithms it checks."""
    imported = set()
    for node in ast.walk(ast.parse(Path(verify.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = resolve_name("." * node.level + (node.module or ""),
                                  "coverplex") if node.level else node.module
            imported |= ({module + "." + a.name for a in node.names}
                         if module == "coverplex" else {module})
    assert {name for name in imported if name.split(".")[0] == "coverplex"} \
        == {"coverplex.geometry"}


def _taken_from(module, source):
    """The names that ``module``'s imports take from the coverplex module
    ``source``; the module itself counts as the name "*"."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names |= {"*" for a in node.names if a.name == source}
        elif isinstance(node, ast.ImportFrom):
            frm = resolve_name("." * node.level + (node.module or ""),
                               "coverplex") if node.level else node.module
            names |= {a.name for a in node.names if frm == source}
            names |= {"*" for a in node.names
                      if frm + "." + a.name == source}
    return names


def test_algorithm_modules_take_only_verify_planar_from_verify():
    """The solvers share no code with their verifiers; planar only keeps
    the planar verifier importable under its old name."""
    for module in (cover, levelcurve, rsc):
        assert _taken_from(module, "coverplex.verify") == set(), module
    assert _taken_from(planar, "coverplex.verify") == {"verify_planar"}
    assert planar.verify_planar is verify.verify_planar


def _rational_planar_instance():
    """A reflected hexagon (rational vertices and centroid) with centers
    off the integer grid; the universe is the corners and edge midpoints
    of three of the translates, where membership is decided by equality,
    and shifted random points."""
    base = gen_planar(4, poly_name="hexagon", n_sensors=150, d_max=5,
                      spread=3, universe_size=12)
    poly = reflect(base.polygon)
    third, half = Fraction(1, 3), Fraction(1, 2)
    centers = [(x + third, y - half) for x, y in
               (s.center for s in base.sensors)]
    ox, oy = poly.centroid
    vs = poly.vertices
    ends = list(zip(vs, vs)) + list(zip(vs, vs[1:] + vs[:1]))
    rim = [(cx + Fraction(x0 + x1, 2) - ox, cy + Fraction(y0 + y1, 2) - oy)
           for cx, cy in list(dict.fromkeys(centers))[:3]
           for (x0, y0), (x1, y1) in ends]
    return PlanarInstance(
        poly, [(s.id, c, s.d) for s, c in zip(base.sensors, centers)],
        rim + [(x + half, y - third) for x, y in base.universe])


@pytest.mark.parametrize("make", [
    lambda: gen_planar(0, n_sensors=2600, d_max=7, spread=2,
                       universe_size=5),
    _rational_planar_instance], ids=["criterion-10", "rational-centers"])
def test_verify_planar_has_its_own_membership_test(monkeypatch, make):
    """verify.verify_planar never calls the solver's ConvexPolygon.contains
    (which also gives the L that plan_schedule solves against), and it
    agrees with the per-sensor oracle computed with that test, on the
    whole universe and on each of its points alone."""
    inst = make()
    scheds = [plan_schedule(inst), PlanarSchedule(
        start={s.id: 1 + s.id % 3 for s in inst.sensors if s.id % 5})]
    cases = [(inst, sched) for sched in scheds] + [
        (PlanarInstance(inst.polygon, inst.sensors, [u]), scheds[1])
        for u in inst.universe]
    refs = [reference.verify_planar(*case) for case in cases]
    assert refs[1].stats["M_achieved"] >= 1

    def refuse(*args, **kwargs):
        raise AssertionError("ConvexPolygon.contains called")
    monkeypatch.setattr(ConvexPolygon, "contains", refuse)
    for case, ref in zip(cases, refs):
        got = verify.verify_planar(*case)
        assert got.to_json() == ref.to_json()
        assert got.stats == ref.stats


def test_report_json_shape():
    inst = gen_rsc(3, n=10, m=8, d_max=4)
    report = verify_rsc(inst, greedy_schedule(inst))
    doc = report.to_json()
    assert set(doc) == {"checks", "alpha", "ratio"}
    for c in doc["checks"]:
        assert set(c) == {"name", "pass", "witness"}


def test_verify_rsc_without_event_log_lists_closing_semantics_not_run():
    inst = gen_rsc(3, n=10, m=8, d_max=4)
    sched = greedy_schedule(inst)
    report = verify_rsc(inst, Schedule(start=dict(sched.start)))
    assert "closing-semantics" not in [c.name for c in report.checks]
    assert report.not_run == ["closing-semantics"]
    assert report.to_json()["not_run"] == ["closing-semantics"]
    assert report.ok()
    # with the log, or with nothing assigned, the replay runs
    for full in (sched, Schedule()):
        report = verify_rsc(inst, full)
        assert "closing-semantics" in [c.name for c in report.checks]
        assert report.not_run == [] and "not_run" not in report.to_json()


def test_verify_rsc_flags_unknown_sensor_and_bad_start():
    inst = RscInstance(4, [(0, 1, 4, 3), (1, 1, 4, 2)])
    assert verify_rsc(inst, Schedule(start={0: 1, 1: 4})).ok()
    for start, bad in (({0: 1, 1: 4, 7: 1}, [7]), ({0: 0, 1: 4}, [0]),
                       ({0: 1, 1: -2}, [1])):
        report = verify_rsc(inst, Schedule(start=start))
        assert not report.ok()
        check = report.checks[0]
        assert check.name == "assignments-valid" and not check.passed
        assert check.witness == bad
