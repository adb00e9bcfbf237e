import random

import pytest

from coverplex.cover import ColorAssignment, decompose_points
from coverplex.generate import gen_points, gen_rsc, polygon
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


def test_report_json_shape():
    inst = gen_rsc(3, n=10, m=8, d_max=4)
    report = verify_rsc(inst, greedy_schedule(inst))
    doc = report.to_json()
    assert set(doc) == {"checks", "alpha", "ratio"}
    for c in doc["checks"]:
        assert set(c) == {"name", "pass", "witness"}


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
