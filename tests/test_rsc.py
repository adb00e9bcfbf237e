import random
import time
import tracemalloc

import pytest

from coverplex.generate import gen_rsc
from coverplex.rsc import (RscInstance, Schedule, duration, greedy_schedule,
                           load)
from coverplex.verify import verify_rsc
from reference import (coverage_profile, dominant_left, dominant_right,
                       load_profile)


def test_instance_validation():
    with pytest.raises(ValueError):
        RscInstance(3, [(0, 1, 4, 1)])
    with pytest.raises(ValueError):
        RscInstance(3, [(0, 1, 2, 0)])
    with pytest.raises(ValueError):
        RscInstance(3, [(0, 1, 2, 1), (0, 2, 3, 1)])


def test_load_examples():
    runs, L = load(RscInstance(4, [(0, 1, 4, 7)]))
    assert runs == [(1, 4, 7)] and L == 7
    runs, L = load(RscInstance(3, [(0, 1, 1, 4)]))
    assert runs == [(1, 1, 4), (2, 3, 0)] and L == 0
    rng = random.Random(0)
    inst = gen_rsc(1, n=15, m=10, d_max=6)
    runs, L = load(inst)
    per = load_profile(runs)
    assert len(per) == 10
    for x in range(1, 11):
        assert per[x - 1] == sum(s.d for s in inst.sensors
                                 if s.l <= x <= s.r)
    assert L == min(per)


def test_duration_examples():
    inst = RscInstance(4, [(0, 1, 4, 3)])
    empty = Schedule()
    assert duration(empty, inst) == 0
    s = Schedule(start={0: 1})
    assert duration(s, inst) == 3
    inst2 = RscInstance(4, [(0, 1, 4, 2), (1, 1, 4, 2)])
    s2 = Schedule(start={0: 1, 1: 2})
    assert duration(s2, inst2) == 3


def test_dominant_tie_rules():
    inst = RscInstance(5, [(0, 1, 5, 1), (1, 2, 5, 1)])
    empty = Schedule()
    # tie on r: prefer smaller l
    assert dominant_right(inst, empty, 2).id == 0
    dup = RscInstance(5, [(0, 2, 4, 1), (1, 2, 4, 1)])
    assert dominant_right(dup, empty, 3).id == 0
    assert dominant_left(dup, empty, 3).id == 0
    inst2 = RscInstance(5, [(0, 1, 4, 1), (1, 2, 5, 1)])
    assert dominant_left(inst2, empty, 3).id == 0
    assert dominant_right(inst2, empty, 3).id == 1
    assert dominant_right(inst2, Schedule(start={1: 1}), 3).id == 0
    assert dominant_right(inst2, Schedule(start={0: 1, 1: 1}), 3) is None


def test_greedy_stacks_identical_sensors():
    inst = RscInstance(6, [(i, 1, 6, 1) for i in range(5)])
    s = greedy_schedule(inst)
    assert sorted(s.start.values()) == [1, 2, 3, 4, 5]
    assert duration(s, inst) == 5 == load(inst)[1]


def test_greedy_no_live_sensor():
    inst = RscInstance(3, [(0, 2, 3, 4)])
    s = greedy_schedule(inst)
    assert s.start == {}
    assert duration(s, inst) == 0


def test_greedy_nested_outer_first():
    inst = RscInstance(5, [(0, 1, 5, 2), (1, 2, 4, 1)])
    s = greedy_schedule(inst)
    # the outer sensor is the only one live at coordinate 1
    assert s.start[0] == 1
    # the inner sensor can only be scheduled after the outer expires; here
    # the greedy loop stops first because coordinate 1 dies at time 3
    assert 1 not in s.start
    assert duration(s, inst) == 2


def test_greedy_closing_events_recorded():
    inst = RscInstance(4, [(0, 1, 4, 2), (1, 1, 2, 2), (2, 3, 4, 2)])
    s = greedy_schedule(inst)
    assert [e.id for e in s.events] == [0, 1, 2]
    for e in s.events:
        assert e.interval[0] <= e.closes <= e.interval[1]
        assert e.direction in ("right", "left")


def test_stop_at_halts_early():
    inst = RscInstance(3, [(i, 1, 3, 2) for i in range(6)])
    s = greedy_schedule(inst, stop_at=2)
    assert duration(s, inst) >= 2
    assert len(s.start) < 6
    assert s.stop_at == 2


def test_coverage_profile():
    inst = RscInstance(4, [(0, 1, 3, 2), (1, 2, 4, 2)])
    empty = Schedule()
    prof = coverage_profile(empty, inst)
    assert all(all(v == 0 for v in row) for row in prof)
    s = Schedule(start={0: 1, 1: 1})
    prof = coverage_profile(s, inst)
    assert prof[2][1] == 2 and prof[2][2] == 2
    assert prof[1][1] == 1 and prof[4][2] == 1


def test_greedy_meets_load_bound_random():
    for seed in range(300):
        inst = gen_rsc(seed, n=1 + seed % 25, m=1 + seed % 12, d_max=6)
        s = greedy_schedule(inst)
        _, L = load(inst)
        assert duration(s, inst) >= L // 5, seed


def test_greedy_coverage_bounded_random():
    for seed in range(100):
        inst = gen_rsc(seed, n=12, m=8, d_max=5)
        s = greedy_schedule(inst)
        prof = coverage_profile(s, inst)
        assert max((max(row) for row in prof), default=0) <= 5


def test_greedy_deterministic():
    inst = gen_rsc(99, n=30, m=20, d_max=8)
    a = greedy_schedule(inst)
    b = greedy_schedule(inst)
    assert a.start == b.start
    assert [(e.id, e.t, e.closes, e.direction) for e in a.events] == \
           [(e.id, e.t, e.closes, e.direction) for e in b.events]


def test_nested_family_is_nested():
    inst = gen_rsc(5, n=10, m=12, d_max=4, family="nested")
    ss = inst.sensors
    for a in ss:
        for b in ss:
            assert (a.l <= b.l and b.r <= a.r) or \
                   (b.l <= a.l and a.r <= b.r)


def test_greedy_and_verifier_scale_with_identical_sensors():
    """8,000 identical unit sensors, every one assigned: picks are tree
    descents and the nested-ranges check a sweep, so both together take
    well under 2 s (quadratic code took about 13 s)."""
    inst = RscInstance(1, [(sid, 1, 1, 1) for sid in range(8000)])
    t0 = time.perf_counter()
    sched = greedy_schedule(inst)
    report = verify_rsc(inst, sched)
    elapsed = time.perf_counter() - t0
    assert sorted(sched.start.values()) == list(range(1, 8001))
    assert report.ok() and report.stats == {"M": 8000, "L": 8000}
    assert elapsed < 2.0, elapsed


def nested_family(n, m=10 ** 9):
    """Ranges [min(j + 1, n), m - j] and n full ranges, every sensor
    assigned one after the other: the full ranges from time 1, then the
    nested ranges outer to inner.  Coordinate 1 is held by the full ranges
    and by j = 0 (d = 1) alone, so M = L = the full ranges' total + 1."""
    rows = [(n + k, 1, m, 1 + k % 4) for k in range(n)]
    rows += [(j, min(j + 1, n), m - j, 1 + j % 3) for j in range(n)]
    start, t = {}, 1
    for sid, _, _, d in rows:
        start[sid] = t
        t += d
    # no event log, as `rsc verify` reads a schedule
    return RscInstance(m, rows), Schedule(start=start), sum(
        1 + k % 4 for k in range(n)) + 1


def test_duration_and_verifier_scale_on_nested_family():
    """On the nested family a segment's span list holds up to 2n spans:
    at n = 1,000 the span lists took 2.2 s to verify, 0.36 s for the
    duration and 227 MB on a shared 2-core host.  One sweep with a count
    tree over the times takes each well under 1 s at n = 2,000.  Its
    memory is linear: at n = 250 the span lists peaked at 11.8 MB under
    tracemalloc, the sweep at 0.4 MB (tracemalloc slows the sweep about
    20-fold)."""
    inst, sched, M = nested_family(2000)
    t0 = time.perf_counter()
    report = verify_rsc(inst, sched)
    t1 = time.perf_counter()
    assert duration(sched, inst) == M
    t2 = time.perf_counter()
    assert report.stats == {"M": M, "L": M}
    assert report.ok() and report.not_run == ["closing-semantics"]
    assert t1 - t0 < 0.5 and t2 - t1 < 0.5, (t1 - t0, t2 - t1)
    inst, sched, M = nested_family(250)
    tracemalloc.start()
    try:
        assert verify_rsc(inst, sched).stats["M"] == duration(sched, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
