import random
import time
from fractions import Fraction

import pytest

import reference
from coverplex import cover, levelcurve
from coverplex.cover import (CoverPreconditionError, compute_cover,
                             decompose_points, decompose_translates)
from coverplex.generate import gen_planar, gen_points, polygon
from coverplex.geometry import (ConvexPolygon, cell_partition, grid_spec,
                                perturbation_direction, reflect,
                                strict_support_edges)
from coverplex.levelcurve import (LevelCurve, WedgeFrame, _Fenwick,
                                  canonical_positions,
                                  position_index_ranges)
from coverplex.planar import plan_schedule

SQUARE = ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
TRIANGLE = polygon("triangle")


def make_curve(points, level, poly=SQUARE, i=0):
    frame = WedgeFrame(poly, i)
    return frame, LevelCurve(frame, level, frame.items(points))


def curve_and_queries(points, queries, ids):
    """A level-1 curve of ``points`` on SQUARE and the items of
    ``queries`` with ``ids``, keyed in the same frame call."""
    frame = WedgeFrame(SQUARE, 0)
    items = frame.items(points + queries,
                        ids=list(range(len(points))) + ids)
    return (LevelCurve(frame, 1, items[:len(points)]),
            items[len(points):])


def test_compute_cover_zero_rounds():
    curve, items = curve_and_queries([(1, 3), (3, 1)], [(5, 5)] * 4,
                                     [0, 1, 2, 3])
    index = position_index_ranges(curve, items)[0]
    assert compute_cover(index, items, 0) == {}


def test_compute_cover_full_intervals():
    # 2t points whose intervals are the whole curve: one survivor per round
    curve, q = curve_and_queries([(1, 3), (3, 1)], [(5, 5)] * 4,
                                 [7, 8, 9, 10])
    colors = compute_cover(position_index_ranges(curve, q)[0], q, 2)
    assert len(colors) == 2
    assert sorted(colors.values()) == [1, 2]


def test_compute_cover_precondition_error():
    curve, q = curve_and_queries([(1, 3), (3, 1)], [(5, 5)] * 2, [0, 1])
    with pytest.raises(CoverPreconditionError):
        compute_cover(position_index_ranges(curve, q)[0], q, 2)


def _cover_postconditions(frame, curve, items, t, colors):
    positions, ranges = position_index_ranges(curve, items)[0]
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
        index = position_index_ranges(curve, items)[0]
        colors = compute_cover(index, items, t)
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
        index = position_index_ranges(curve, items)[0]
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
        index = position_index_ranges(curve, items)[0]
        colors = compute_cover(index, items, 4)
        _, ranges = index
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


def test_vertex_loop_names_a_precondition_position_by_pairs():
    # a block solver asked for more rounds than the curve holds fails at
    # the head-ray representative, which the loop names by (main, eps)
    pts = [(Fraction(x, 3), Fraction(y, 3))
           for x, y in gen_points(4, size=20, span=30)]
    weights = [200] * len(pts)

    def greedy_cover(index, items, t):
        return compute_cover(index, items, 10 ** 6)

    with pytest.raises(CoverPreconditionError) as err:
        cover._iterate_vertices(TRIANGLE, pts, 600, greedy_cover,
                                weights=weights)
    frame = WedgeFrame(TRIANGLE, 0)
    items = frame.items(pts, weights=weights)
    head_ray = canonical_positions(LevelCurve(frame, 600, items), items)[0]
    assert err.value.position == tuple(map(frame.split, head_ray))
    assert str(err.value) == "curve position %r has %d candidates, need %d" \
        % (err.value.position, err.value.have, 2 * 10 ** 6)


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


def heavy_cluster():
    """8,000 triangle centers on a 2 x 2 cluster: at k = 7,200 one cell
    runs and gives T = 2."""
    rng = random.Random(5)
    return [(10 + rng.randint(0, 1), 10 + rng.randint(0, 1))
            for _ in range(8000)]


def unit_centers_spread_8():
    """Unit-duration planar instance over 36 cells; at its load L = 338,
    one cell is lighter than k_cell = 21 and is skipped."""
    return gen_planar(3, n_sensors=3000, d_max=1, spread=8, universe_size=4)


def test_decompose_translates_classes_cover_heavy_points_at_t2():
    centers, k = heavy_cluster(), 7200
    classes, info = decompose_translates(TRIANGLE, centers, k)
    assert info["T"] == 2 and [len(c) for c in classes] == [7981, 19]
    heavy = 0
    for probe in [(10, 10), (11, 11), (10, 11), (11, 10)]:
        if sum(TRIANGLE.contains(probe, center=c) for c in centers) < k:
            continue
        heavy += 1
        for cls in classes:
            assert any(TRIANGLE.contains(probe, center=centers[idx])
                       for idx in cls), probe
    assert heavy >= 3  # (10, 10), (10, 11) and (11, 10) lie in every one


def test_translate_cells_match_point_decomposition_and_planar_cells():
    inst = unit_centers_spread_8()
    spread = [s.center for s in inst.sensors]
    # the cluster and a copy that falls into 4 more cells: 5 cells at T = 2;
    # 36 cells of which 3 are skipped; one cell of exactly k_cell centers
    cluster = heavy_cluster()
    two = cluster + [(x + 40, y + 40) for x, y in cluster]
    for poly, centers, k in [(TRIANGLE, two, 7200),
                             (inst.polygon, spread, 600),
                             (TRIANGLE, [(0, 0)] * 16, 16 * 16)]:
        classes, info = decompose_translates(poly, centers, k)
        class_of = {idx: c for c, cls in enumerate(classes, 1) for idx in cls}
        refl = reflect(poly)
        cells = cell_partition(centers, grid_spec(refl))
        assert list(info["cells"]) == [str(c) for c in sorted(cells)]
        ran = 0
        for cell, idxs in cells.items():
            got = info["cells"][str(cell)]
            assert got["size"] == len(idxs)
            assert got["skipped"] == (len(idxs) < info["k_cell"])
            if got["skipped"]:
                continue
            ran += 1
            asg, trace = decompose_points(refl, [centers[j] for j in idxs],
                                          info["k_cell"])
            assert got["T"] == asg.T
            assert got["trace"] == [r._asdict() for r in trace.records]
            if info["T"] >= 2:  # a cell's color c <= T is class c
                for local, j in enumerate(idxs):
                    c = asg.colors.get(local)
                    assert class_of[j] == (c if c and c <= info["T"] else 1)
        assert ran >= 1
    # unit durations: the planar cells are the translate cells at k = L
    sched = plan_schedule(inst)
    L = sched.info["L"]
    _, info = decompose_translates(inst.polygon, spread, L)
    assert sched.info["k_cell"] == info["k_cell"] >= 1
    shape = {name: (c["size"], c["skipped"])
             for name, c in sched.info["cells"].items()}
    assert shape == {name: (c["size"], c["skipped"])
                     for name, c in info["cells"].items()}
    assert any(skipped for _, skipped in shape.values())


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


def test_decompose_points_queries_intervals_only_off_the_whole_curve(
        monkeypatch):
    # criterion-8 seed 2: most points lie in every wedge of a curve, U at
    # least the tail's and V at least the head level, and are settled
    # without an interval query
    poly = polygon("hexagon")
    k = 256 * poly.n
    pts = gen_points(2, size=k + k // 8, span=60)
    delta = perturbation_direction(poly)
    partial = 0
    for i in range(poly.n):
        frame = WedgeFrame(poly, i, delta)
        items = frame.items(pts)
        curve = LevelCurve(frame, k, items)
        (_, head_level), tail_u = curve.head, curve.tail[0]
        partial += sum(1 for (U, V, _pid, _w) in items
                       if U < tail_u or V < head_level)
    queries = []
    real = LevelCurve._ends

    def counted(curve, U, V):
        queries.append((U, V))
        return real(curve, U, V)

    monkeypatch.setattr(LevelCurve, "_ends", counted)
    decompose_points(poly, pts, k)
    assert len(queries) == partial
    assert 3 * partial < poly.n * len(pts)


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

    def recorded(poly, i, u_sorted, index, items, target):
        before = len(descents)
        out = real_filter(poly, i, u_sorted, index, items, target)
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



def heavy_light_family(n, target):
    """Filter input on which the reserved group swings at every clique: n
    unit light items over the whole curve, n heavy items of weight
    ``target`` at the top ranks, heavy item k alone beside the lights at
    position 2k, and between two heavy items a unit filler item of the
    lowest ranks at position 2k + 1.  A heavy item alone is its clique's
    reserved prefix; at a filler's clique the top ``target`` lights are.
    Returns the filter's (u_sorted, index, items) for any vertex of the
    triangle and the survivors: the lights and the fillers."""
    K = 2 * n - 1
    light = [(pid, 1, (0, K - 1)) for pid in range(n)]
    heavy = [(n + k, target, (2 * k, 2 * k)) for k in range(n)]
    filler = [(2 * n + k, 1, (2 * k + 1, 2 * k + 1)) for k in range(n - 1)]
    order = filler + light + heavy  # increasing U along every direction
    items = [(u, 0, pid, w) for u, (pid, w, _) in enumerate(order)]
    ranges = {pid: rng for pid, _, rng in order}
    return ([items] * 3, (range(K), ranges), items,
            {pid for pid, _, _ in light + filler})


def test_reserved_filter_cost_does_not_grow_with_the_weights():
    # items join, leave and are kept once each, whatever the weight ratio;
    # moving items one by one across the threshold would take minutes here
    n = 4000
    u_sorted, index, items, want = heavy_light_family(n, n // 2)
    assert strict_support_edges(TRIANGLE, 0)
    best = {}
    for _ in range(3):
        for name, fn in (("sweep", cover._reserved_filter),
                         ("oracle", reference.reserved_filter)):
            start = time.perf_counter()
            got = fn(TRIANGLE, 0, u_sorted, index, items, n // 2)
            spent = time.perf_counter() - start
            best[name] = min(best.get(name, spent), spent)
            assert got == want
    assert best["sweep"] <= 3 * best["oracle"], best
