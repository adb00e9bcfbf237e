import random
import time

import pytest

from coverplex import cover, levelcurve
from coverplex.cover import (CoverPreconditionError, compute_cover,
                             decompose_points, decompose_translates)
from coverplex.generate import gen_planar, polygon
from coverplex.geometry import ConvexPolygon, reflect, strict_support_edges
from coverplex.levelcurve import (LevelCurve, WedgeFrame, _Fenwick,
                                  canonical_positions,
                                  position_index_ranges)
from coverplex.planar import plan_schedule

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


def assert_round_chains(index, colors, t):
    """Each round's survivors, ordered by start, form a chain (strictly
    increasing starts and ends) from position 0 to the last position in
    which consecutive survivors meet and survivors two apart are
    disjoint, so every position lies in one or two of them."""
    positions, ranges = index
    for round_no in range(1, t + 1):
        spans = sorted(ranges[pid] for pid, c in colors.items()
                       if c == round_no)
        assert spans[0][0] == 0 and spans[-1][1] == len(positions) - 1
        for a, b in zip(spans, spans[1:]):
            assert a[0] < b[0] and a[1] < b[1] and b[0] <= a[1] + 1
        for a, c in zip(spans, spans[2:]):
            assert c[0] > a[1]


def sliding_windows(K, W, copies):
    """An index of K positions and ``copies`` items for every window
    [lo, lo + W] inside it; every window joins a round's kept chain."""
    ranges = {copy * K + lo: (lo, lo + W)
              for copy in range(copies) for lo in range(K - W)}
    return (list(range(K)), ranges), [(None, None, pid, 1) for pid in ranges]


def test_compute_cover_rounds_are_chains():
    rng = random.Random(2)
    for trial in range(25):
        Y = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(30)]
        frame, curve = make_curve(Y, rng.randint(4, 12))
        items = frame.items(Y)
        index = position_index_ranges(curve, items)
        t = rng.randint(1, 3)
        try:
            colors = compute_cover(index, items, t)
        except CoverPreconditionError:
            continue
        assert_round_chains(index, colors, t)
    for K, W, t in ((1, 0, 1), (9, 0, 2), (40, 7, 3), (40, 39, 4)):
        index, items = sliding_windows(K, W, 2 * t)
        assert_round_chains(index, compute_cover(index, items, t), t)


def test_compute_cover_scales_with_interval_count():
    # 32,000 windows of 8,001 positions: one sort and a sweep per round;
    # pruning position by position would take tens of seconds
    index, items = sliding_windows(16_000, 8_000, 4)
    start = time.perf_counter()
    colors = compute_cover(index, items, 2)
    assert time.perf_counter() - start < 1.0
    assert_round_chains(index, colors, 2)


def test_compute_cover_respects_containment_order():
    # if one point's wedge contains another's, the dominating point is
    # colored whenever the dominated one is
    rng = random.Random(1)
    for trial in range(10):
        Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(24)]
        frame, curve = make_curve(Y, 8)
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


def maximal_member_sets(index, items):
    """Number of maximal member sets over the positions of ``index``: runs
    of positions with one member set, kept when the set is not empty and
    not a proper subset of a neighbouring run's (for ranges, a set inside
    another's is inside a neighbour's)."""
    positions, ranges = index
    joins = [[] for _ in positions]
    leaves = [[] for _ in positions]
    for (_, _, pid, _w) in items:
        if ranges[pid] is not None:
            joins[ranges[pid][0]].append(pid)
            leaves[ranges[pid][1]].append(pid)
    runs, members = [], set()
    for c in range(len(positions)):
        members.update(joins[c])
        here = frozenset(members)
        if not runs or runs[-1] != here:
            runs.append(here)
        members.difference_update(leaves[c])
    return sum(1 for k, run in enumerate(runs)
               if run and not any(run < near for near in runs[max(k - 1, 0):
                                                               k + 2]))


def test_reserved_filter_descends_once_per_clique_and_direction(
        monkeypatch):
    descents = []
    real_descent = _Fenwick.longest_prefix_within

    def counted(tree, rem):
        descents.append(rem)
        return real_descent(tree, rem)

    calls = []
    real_filter = cover._reserved_filter

    def recorded(poly, i, delta, index, items, points, target):
        before = len(descents)
        out = real_filter(poly, i, delta, index, items, points, target)
        directions = len(strict_support_edges(poly, i))
        calls.append((len(descents) - before,
                      maximal_member_sets(index, items) * directions,
                      len(index[0]) * directions))
        return out

    monkeypatch.setattr(_Fenwick, "longest_prefix_within", counted)
    monkeypatch.setattr(cover, "_reserved_filter", recorded)
    # a criterion-10 instance: t = 1 at every vertex of its cells, so every
    # clique's load reaches the target and each one makes a descent
    plan_schedule(gen_planar(0, n_sensors=2600, d_max=7, spread=2,
                             universe_size=5))
    assert len(calls) >= 4
    assert [made for made, _, _ in calls] == [want for _, want, _ in calls]
    # far fewer cliques than canonical positions
    assert 3 * sum(want for _, want, _ in calls) < sum(k for _, _, k in calls)

