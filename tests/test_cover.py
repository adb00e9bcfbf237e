import random
import time
from fractions import Fraction

import pytest

import reference
from coverplex import cover
from coverplex.cover import (CoverPreconditionError, _RankTable,
                             compute_cover, decompose_points,
                             decompose_translates)
from coverplex.generate import gen_planar, gen_points, polygon
from coverplex.geometry import (ConvexPolygon, cell_partition, grid_spec,
                                reflect, strict_support_edges)
from coverplex.levelcurve import (LevelCurve, canonical_positions,
                                  position_index_ranges, vertex_items)
from coverplex.planar import plan_schedule

SQUARE = ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
TRIANGLE = polygon("triangle")


def make_curve(points, level, poly=SQUARE, i=0):
    frame, items = reference.frame_items(poly, i, points)
    return frame, items, LevelCurve(frame, level, items)


def curve_and_queries(points, queries, ids):
    """A level-1 curve of ``points`` on SQUARE and the items of
    ``queries`` with ``ids``, keyed in the same vertex loop."""
    frame, items = reference.frame_items(SQUARE, 0, points + queries,
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
    K, ranges = position_index_ranges(curve, items)[0]
    by_pid = {pid: rng for pid, rng in ranges.items()}
    for idx in range(K):
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
        frame, items, curve = make_curve(Y, r)
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
    K, ranges = index
    for round_no in range(1, t + 1):
        spans = sorted(ranges[pid] for pid, c in colors.items()
                       if c == round_no)
        assert spans[0][0] == 0 and spans[-1][1] == K - 1
        for a, b in zip(spans, spans[1:]):
            assert a[0] < b[0] and a[1] < b[1] and b[0] <= a[1] + 1
        for a, c in zip(spans, spans[2:]):
            assert c[0] > a[1]


def sliding_windows(K, W, copies):
    """An index of K positions and ``copies`` items for every window
    [lo, lo + W] inside it; every window joins a round's kept chain."""
    ranges = {copy * K + lo: (lo, lo + W)
              for copy in range(copies) for lo in range(K - W)}
    return (K, ranges), [(None, None, pid, 1) for pid in ranges]


def test_compute_cover_rounds_are_chains():
    rng = random.Random(2)
    for trial in range(25):
        Y = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(30)]
        frame, items, curve = make_curve(Y, rng.randint(4, 12))
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
        frame, items, curve = make_curve(Y, 8)
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
    frame, items = reference.frame_items(TRIANGLE, 0, pts, weights=weights)
    head_ray = canonical_positions(LevelCurve(frame, 600, items), items)[0]
    assert err.value.position == tuple(map(frame.split, head_ray))
    assert str(err.value) == "curve position %r has %d candidates, need %d" \
        % (err.value.position, err.value.have, 2 * 10 ** 6)


def test_whole_fraction_points_decompose_as_ints():
    # Fraction(n, 1) coordinates, as "4/2" reads, alone or beside ints,
    # give the int points' colors, trace and precondition message
    pts = gen_points(0, size=300, span=40)
    whole = [(Fraction(x), Fraction(y)) for x, y in pts]
    mixed = [(Fraction(x), y) for x, y in pts]
    asg, trace = decompose_points(TRIANGLE, pts, 256)
    assert asg.T >= 1
    for other in (whole, mixed):
        assert decompose_points(TRIANGLE, other, 256) == (asg, trace)

    def greedy_cover(index, items, t):
        return compute_cover(index, items, 10 ** 6)

    messages = set()
    for p in (pts, whole, mixed):
        with pytest.raises(CoverPreconditionError) as err:
            cover._iterate_vertices(polygon("square"), p, 300, greedy_cover)
        messages.add(str(err.value))
        assert all(type(c) is int for pair in err.value.position
                   for c in pair)
    assert len(messages) == 1


def test_decompose_points_on_the_square_keeps_every_ranged_item(
        monkeypatch):
    # no square vertex strictly supports an edge normal: the filter, which
    # the loop calls at every vertex, hands the block solver every live
    # item with a range, in the live order
    poly = polygon("square")
    k = 256 * poly.n
    pts = gen_points(1, size=k + k // 8, span=60)
    assert not any(strict_support_edges(poly, i) for i in range(poly.n))
    calls = []
    real_filter = cover._reserved_filter

    def recorded(*args):
        out = real_filter(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(cover, "_reserved_filter", recorded)
    asg, _ = decompose_points(poly, pts, k)
    assert [args[1] for args, _ in calls] == [0, 1, 2, 3] and asg.T >= 1
    frames, all_items = vertex_items(poly, pts)
    for args, out in calls:
        (K, ranges), live = args[3], args[4]
        assert out == [it for it in live if ranges[it[2]] is not None]
        i = args[1]
        positions = canonical_positions(
            LevelCurve(frames[i], k, all_items[i]), all_items[i])
        assert len(positions) == K
        assert out == reference.reserved_filter(
            *args[:3], (positions, ranges), *args[4:])


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
        frame, items = reference.frame_items(TRIANGLE, i, pts)
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
    """Patch the vertex loop's one builder of curve indexes; returns the
    list that collects one entry per build."""
    builds = []
    real = cover.position_index_ranges

    def counted(curve, items):
        builds.append(len(items))
        return real(curve, items)

    monkeypatch.setattr(cover, "position_index_ranges", counted)
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
    partial = 0
    for i in range(poly.n):
        frame, items = reference.frame_items(poly, i, pts)
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
    K, ranges = index
    joins = [[] for _ in range(K)]
    leaves = [[] for _ in range(K)]
    for (_, _, pid, _w) in items:
        if ranges[pid] is not None:
            joins[ranges[pid][0]].append(pid)
            leaves[ranges[pid][1]].append(pid)
    runs, members = [], set()
    for c in range(K):
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
    real_settle = _RankTable.settle

    def counted(table, target):
        descents.append(target)
        return real_settle(table, target)

    calls = []
    real_filter = cover._reserved_filter

    def recorded(poly, i, u_sorted, index, items, target):
        before = len(descents)
        out = real_filter(poly, i, u_sorted, index, items, target)
        directions = len(strict_support_edges(poly, i))
        calls.append((len(descents) - before,
                      maximal_member_sets(index, items) * directions,
                      index[0] * directions))
        return out

    monkeypatch.setattr(_RankTable, "settle", counted)
    monkeypatch.setattr(cover, "_reserved_filter", recorded)
    # a criterion-10 instance: t = 1 at every vertex of its cells, so every
    # clique's load reaches the target and each one settles every table
    plan_schedule(gen_planar(0, n_sensors=2600, d_max=7, spread=2,
                             universe_size=5))
    assert len(calls) >= 4
    assert [made for made, _, _ in calls] == [want for _, want, _ in calls]
    # far fewer cliques than canonical positions
    assert 3 * sum(want for _, want, _ in calls) < sum(k for _, _, k in calls)



def heavy_light_family(n, target, scale=1, short=False):
    """Filter input on which the reserved group swings at every clique: n
    unit light items over the whole curve, n heavy items of weight
    ``target`` at the top ranks, heavy item k alone beside the lights at
    position 2k, and between two heavy items a unit filler item of the
    lowest ranks at position 2k + 1.  A heavy item alone is its clique's
    reserved prefix; at a filler's clique the top ``target`` lights are.
    Every weight is times ``scale``, so the target is target * scale.
    With ``short`` the lights end one position before the last, so no item
    is whole and every item is in the band.  Returns the filter's
    (u_sorted, index, items) for any vertex of the triangle and the
    survivors: the fillers and the lights."""
    K = 2 * n - 1
    light = [(pid, scale, (0, K - 1 - short)) for pid in range(n)]
    heavy = [(n + k, target * scale, (2 * k, 2 * k)) for k in range(n)]
    filler = [(2 * n + k, scale, (2 * k + 1, 2 * k + 1))
              for k in range(n - 1)]
    order = filler + light + heavy  # increasing U along every direction
    items = [(u, 0, pid, w) for u, (pid, w, _) in enumerate(order)]
    ranges = {pid: rng for pid, _, rng in order}
    return [items] * 3, (K, ranges), items, items[:2 * n - 1]


def test_reserved_filter_cost_does_not_grow_with_the_weights():
    # items join, leave and are kept once each, whatever the weight ratio;
    # moving items one by one across the threshold would take minutes here
    n = 4000
    u_sorted, index, items, want = heavy_light_family(n, n // 2)
    assert strict_support_edges(TRIANGLE, 0)
    best = {}
    for _ in range(3):
        for name, fn, idx in (
                ("sweep", cover._reserved_filter, index),
                ("oracle", reference.reserved_filter,
                 (range(index[0]), index[1]))):
            start = time.perf_counter()
            got = fn(TRIANGLE, 0, u_sorted, idx, items, n // 2)
            spent = time.perf_counter() - start
            best[name] = min(best.get(name, spent), spent)
            assert got == want
    assert best["sweep"] <= 3 * best["oracle"], best


@pytest.mark.parametrize("scale", [1, 1000])
@pytest.mark.parametrize("n", [2000, 8000])
def test_reserved_filter_cost_does_not_grow_when_the_boundary_jumps(
        n, scale, monkeypatch):
    # no light is whole, so the band is every item, and the reserved run's
    # boundary crosses n // 2 lights at every clique: past the walk, each
    # clique reads a tree once per direction, and the sweep costs what the
    # oracle's per-direction tree passes cost, whatever the weights
    target = n // 2 * scale
    u_sorted, index, items, want = heavy_light_family(n, n // 2, scale,
                                                      short=True)
    best = {}
    for _ in range(3):
        for name, fn, idx in (
                ("sweep", cover._reserved_filter, index),
                ("oracle", reference.reserved_filter,
                 (range(index[0]), index[1]))):
            start = time.perf_counter()
            got = fn(TRIANGLE, 0, u_sorted, idx, items, target)
            spent = time.perf_counter() - start
            best[name] = min(best.get(name, spent), spent)
            assert got == want
    assert best["sweep"] <= 3 * best["oracle"], best
    descents = []
    real_descend = _RankTable.descend

    def counted(table, target):
        descents.append(target)
        return real_descend(table, target)

    monkeypatch.setattr(_RankTable, "descend", counted)
    assert cover._reserved_filter(TRIANGLE, 0, u_sorted, index, items,
                                  target) == want
    # every position is a clique
    directions = len(strict_support_edges(TRIANGLE, 0))
    assert 0 < len(descents) <= index[0] * directions


def band_above_whole_family(n, m, target):
    """Filter input with a fixed band above n whole unit items: m unit
    items of the top ranks, each alone at one of m positions, and below
    them the n whole items, of which the top ``target`` complete the band.
    Each position reserves its one top item and the top target - 1 whole
    items.  Returns the filter's (u_sorted, index, items) for any vertex of
    the triangle."""
    whole = [(pid, (0, m - 1)) for pid in range(n)]
    top = [(n + k, (k, k)) for k in range(m)]
    order = whole + top  # increasing U along every direction
    items = [(u, 0, pid, 1) for u, (pid, _) in enumerate(order)]
    return [items] * 3, (m, dict(order)), items


def test_reserved_filter_trees_do_not_grow_with_the_whole_items(
        monkeypatch):
    # the whole items below the band survive without entering a table
    sizes = []

    class Recorded(cover._RankTable):
        def __init__(self, weights, members):
            sizes.append(len(weights))
            super().__init__(weights, members)

    monkeypatch.setattr(cover, "_RankTable", Recorded)
    largest = []
    for n in (10 ** 2, 10 ** 3, 10 ** 4):
        u_sorted, index, items = band_above_whole_family(n, 20, 5)
        sizes.clear()
        got = cover._reserved_filter(TRIANGLE, 0, u_sorted, index, items, 5)
        assert got == reference.reserved_filter(
            TRIANGLE, 0, u_sorted, (range(index[0]), index[1]), items, 5)
        assert got == items[:n - 4]
        largest.append(max(sizes))
    assert largest == [25] * 3


@pytest.mark.parametrize("t", [1, 2, 5])
def test_compute_cover_takes_2t_whole_items_alone(t):
    # ids out of order; one partial item covers positions 0 and 1, so
    # with 2t - 1 whole items position 2 has 2t - 1 candidates
    K = 3
    ranges = {100: (0, 1)}
    items = [(0, 0, 100, 1)]
    for pid in range(2 * t, 0, -1):
        ranges[pid * 7 % 11 + 11 * pid] = (0, K - 1)
    whole = list(ranges)[1:]
    items += [(0, 0, pid, 1) for pid in whole]
    with pytest.raises(CoverPreconditionError) as err:
        compute_cover((K, ranges), items[:-1], t)
    assert (err.value.position, err.value.have, err.value.need) == (
        2, 2 * t - 1, 2 * t)
    colors = compute_cover((K, ranges), items, t)
    assert list(colors.items()) == list(zip(sorted(whole)[:t],
                                            range(1, t + 1)))
