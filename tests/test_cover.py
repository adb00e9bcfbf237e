import random

import pytest

from coverplex import levelcurve
from coverplex.cover import (CoverPreconditionError, compute_cover,
                             decompose_points, decompose_translates)
from coverplex.generate import polygon
from coverplex.geometry import ConvexPolygon, reflect
from coverplex.levelcurve import (LevelCurve, WedgeFrame,
                                  canonical_positions,
                                  position_index_ranges)

SQUARE = ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
TRIANGLE = polygon("triangle")


def make_curve(points, level, poly=SQUARE, i=0):
    frame = WedgeFrame(poly, i)
    return frame, LevelCurve(frame, level, frame.items(points))


def test_compute_cover_zero_rounds():
    frame, curve = make_curve([(1, 3), (3, 1)], 1)
    items = frame.items([(5, 5)] * 4)
    assert compute_cover(position_index_ranges(curve, items), items, 0) == {}


def test_compute_cover_full_intervals():
    # 2t points whose intervals are the whole curve: one survivor per round
    frame, curve = make_curve([(1, 3), (3, 1)], 1)
    q = frame.items([(5, 5)] * 4, ids=[7, 8, 9, 10])
    colors = compute_cover(position_index_ranges(curve, q), q, 2)
    assert len(colors) == 2
    assert sorted(colors.values()) == [1, 2]


def test_compute_cover_precondition_error():
    frame, curve = make_curve([(1, 3), (3, 1)], 1)
    q = frame.items([(5, 5)] * 2, ids=[0, 1])
    with pytest.raises(CoverPreconditionError):
        compute_cover(position_index_ranges(curve, q), q, 2)


def _cover_postconditions(frame, curve, items, t, colors):
    positions, ranges = position_index_ranges(curve, items)
    by_pid = {pid: rng for pid, rng in ranges.items()}
    for idx in range(len(positions)):
        present = set()
        colored_here = 0
        for (_, _, pid, _w) in items:
            rng = by_pid[pid]
            if rng is None or not rng[0] <= idx <= rng[1]:
                continue
            c = colors.get(pid)
            if c is not None:
                present.add(c)
                colored_here += 1
        assert present >= set(range(1, t + 1)), idx
        assert colored_here <= 2 * t, idx


def test_compute_cover_random_postconditions():
    rng = random.Random(0)
    for trial in range(25):
        Y = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(30)]
        r = rng.randint(4, 12)
        frame, curve = make_curve(Y, r)
        items = frame.items(Y)
        t = r // 2
        if t == 0:
            continue
        colors = compute_cover(position_index_ranges(curve, items), items, t)
        _cover_postconditions(frame, curve, items, t, colors)


def test_compute_cover_respects_containment_order():
    # if one point's wedge contains another's, the dominating point is
    # colored whenever the dominated one is
    rng = random.Random(1)
    for trial in range(10):
        Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(24)]
        frame, curve = make_curve(Y, 8)
        items = frame.items(Y)
        items = frame.items(Y)
        colors = compute_cover(position_index_ranges(curve, items), items, 4)
        _, ranges = position_index_ranges(curve, items)
        for (U, V, pid, _w) in items:
            for (U2, V2, pid2, _w2) in items:
                if pid == pid2 or ranges[pid] is None or \
                        ranges[pid2] is None:
                    continue
                # pid's curve interval properly contains pid2's; then pid2
                # may be colored only if pid is
                proper = (ranges[pid][0] <= ranges[pid2][0]
                          and ranges[pid2][1] <= ranges[pid][1]
                          and ranges[pid] != ranges[pid2])
                if proper and pid2 in colors:
                    assert pid in colors, (pid, pid2)


def test_decompose_points_coincident_cluster():
    k = 400
    pts = [(1, 1)] * k
    asg, trace = decompose_points(TRIANGLE, pts, k)
    assert asg.T >= 1
    assert trace.records[0].t == k // (64 * TRIANGLE.n)
    assert not trace.below_threshold


def test_decompose_points_small_k():
    pts = [(3, 4), (8, 2), (1, 9)]
    asg, trace = decompose_points(TRIANGLE, pts, 1)
    assert asg.T == 0  # thresholds collapse for tiny instances
    assert trace.below_threshold


def test_decompose_points_invalid_k():
    with pytest.raises(ValueError):
        decompose_points(TRIANGLE, [(0, 0)], 0)


def test_decompose_points_all_colors_on_all_curves():
    rng = random.Random(2)
    pts = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(450)]
    k = 400
    asg, trace = decompose_points(TRIANGLE, pts, k)
    assert asg.T >= 1
    n = TRIANGLE.n
    for i in range(n):
        frame = WedgeFrame(TRIANGLE, i)
        items = frame.items(pts)
        curve = LevelCurve(frame, k, items)
        positions = canonical_positions(curve, items)
        for (u, v) in positions:
            present = {asg.colors.get(pid)
                       for (U, V, pid, _w) in items if U >= u and V >= v}
            assert set(range(1, asg.T + 1)) <= present, (i, u, v)


def test_decompose_trace_invariants():
    # reserved sets keep later iterations fed: the load floor decays slowly
    rng = random.Random(3)
    pts = [(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(700)]
    k = 600
    asg, trace = decompose_points(TRIANGLE, pts, k)
    n = TRIANGLE.n
    recs = trace.records
    for a, b in zip(recs, recs[1:]):
        if a.L >= 64 * n:
            assert b.L * 5 * n >= a.L, (a, b)
        # colored points per iteration stay within the budget
        assert a.colored <= len(pts)


def test_decompose_translates_trivial_k():
    classes, info = decompose_translates(TRIANGLE, [(0, 0)], 1)
    assert classes == [[0]]
    assert info["trivial"]


def test_decompose_translates_partition():
    rng = random.Random(4)
    centers = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(600)]
    k = 40 * 16  # comfortably above the grid factor
    classes, info = decompose_translates(TRIANGLE, centers, k)
    flat = sorted(idx for cls in classes for idx in cls)
    assert flat == list(range(len(centers)))
    if not info["trivial"] and info.get("T", 0) >= 2:
        assert len(classes) == info["T"]


def test_decompose_translates_classes_cover_heavy_points():
    # every plane point covered k times must be covered by each class;
    # checked at the universe points of a tight cluster
    rng = random.Random(5)
    centers = [(10 + rng.randint(0, 1), 10 + rng.randint(0, 1))
               for _ in range(800)]
    k = 45 * 16
    classes, info = decompose_translates(TRIANGLE, centers, k)
    if info["trivial"] or info.get("T", 0) < 2:
        pytest.skip("instance below decomposition threshold")
    probes = [(10, 10), (11, 11), (10, 11)]
    for probe in probes:
        cover_count = sum(1 for c in centers
                          if TRIANGLE.contains(probe, center=c))
        if cover_count < k:
            continue
        for cls in classes:
            assert any(TRIANGLE.contains(probe, center=centers[idx])
                       for idx in cls), probe


def count_position_builds(monkeypatch):
    """Patch the one function every canonical-position build runs through;
    returns the list that collects one entry per build."""
    builds = []
    real = levelcurve._positions_and_ends

    def counted(curve, items):
        builds.append(len(items))
        return real(curve, items)

    monkeypatch.setattr(levelcurve, "_positions_and_ends", counted)
    return builds


def test_decompose_points_builds_each_curve_index_once(monkeypatch):
    rng = random.Random(2)
    pts = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(450)]
    builds = count_position_builds(monkeypatch)
    asg, trace = decompose_points(TRIANGLE, pts, 400)
    assert all(r.t >= 1 for r in trace.records)  # every block solver ran
    assert builds == [len(pts)] * TRIANGLE.n
