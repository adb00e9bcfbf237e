import random
from fractions import Fraction

import pytest

from coverplex.geometry import ConvexPolygon
from coverplex.levelcurve import (EmptyLevelCurveError, LevelCurve,
                                  WedgeFrame, build_level_curve,
                                  canonical_positions, min_load_on_curve,
                                  position_index_ranges, walk_key)
from reference import dominance_loads, wedge_contains, wedge_load

# vertex 0 of this CCW square has cone spanned by +y and +x, so its wedge
# with apex a contains exactly the points >= a componentwise
SQUARE = ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
TRIANGLE = ConvexPolygon([(0, 0), (4, 0), (0, 4)])


def chain_corners(poly, i, points, r):
    curve = build_level_curve(poly, i, points, r)
    return set(curve.chain_real())


def test_wedge_load_empty():
    assert wedge_load(SQUARE, 0, (0, 0), []) == 0


def test_wedge_load_all_inside():
    pts = [(3, 4), (5, 5), (4, 3)]
    assert wedge_load(SQUARE, 0, (0, 0), pts) == 3


def test_wedge_load_matches_brute_force():
    rng = random.Random(0)
    for trial in range(30):
        pts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(20)]
        apex = (rng.randint(0, 20), rng.randint(0, 20))
        i = rng.randrange(TRIANGLE.n)
        expected = sum(1 for p in pts if wedge_contains(TRIANGLE, i, apex, p))
        got = wedge_load(TRIANGLE, i, apex, pts, symbolic=False)
        assert got == expected


def test_level_curve_needs_load():
    with pytest.raises(EmptyLevelCurveError):
        build_level_curve(SQUARE, 0, [(1, 1)], 2)


def test_single_point_curve():
    curve = build_level_curve(SQUARE, 0, [(3, 5)], 1)
    assert chain_corners(SQUARE, 0, [(3, 5)], 1) == {(3, 5)}
    f = curve.frame
    assert f.to_real(curve.head[0][0], curve.head[1][0]) == (3, 5)
    assert f.to_real(curve.tail[0][0], curve.tail[1][0]) == (3, 5)


def test_two_point_staircase():
    Y = [(1, 3), (3, 1)]
    assert chain_corners(SQUARE, 0, Y, 1) == {(1, 3), (1, 1), (3, 1)}
    assert chain_corners(SQUARE, 0, Y, 2) == {(1, 1)}


def test_curve_against_grid_oracle():
    # every apex on/inside the curve has load >= r; apexes strictly outside
    # have load < r -- checked on a dense rational grid around the points
    rng = random.Random(1)
    Y = [(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(8)]
    for r in (1, 3, len(Y)):
        curve = build_level_curve(SQUARE, 0, Y, r)
        corners = curve.chain_real()
        for gx in range(-2, 13):
            for gy in range(-2, 13):
                apex = (Fraction(2 * gx + 1, 2), Fraction(2 * gy + 1, 2))
                load = sum(1 for p in Y if p[0] >= apex[0]
                           and p[1] >= apex[1])
                # region with load >= r is exactly the lower-left set of the
                # staircase corners
                inside = any(apex[0] <= cx and apex[1] <= cy
                             for (cx, cy) in corners)
                assert (load >= r) == inside, (apex, r)


def test_observation_load_window():
    rng = random.Random(2)
    for trial in range(25):
        Y = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(20)]
        for i in range(TRIANGLE.n):
            frame = WedgeFrame(TRIANGLE, i)
            items = frame.items(Y)
            for r in (1, len(Y) // 2, len(Y)):
                curve = LevelCurve(frame, r, items)
                positions = canonical_positions(curve, items)
                loads = dominance_loads(positions, items)
                assert all(r <= ld <= r + 1 for ld in loads), (trial, i, r)


def test_observation_containment():
    # any wedge with load >= r contains a wedge with apex on the curve:
    # equivalently such an apex lies on or inside the staircase, so some
    # canonical position dominates it componentwise in sheared coordinates
    rng = random.Random(3)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(15)]
    r = 4
    for i in range(TRIANGLE.n):
        frame = WedgeFrame(TRIANGLE, i)
        items = frame.items(Y)
        curve = LevelCurve(frame, r, items)
        positions = canonical_positions(curve, items)
        tried = 0
        for _ in range(500):
            apex = (rng.randint(0, 30), rng.randint(0, 30))
            au, av = frame.ucoord(apex), frame.vcoord(apex)
            load = sum(1 for (U, V, _, _) in items if U >= au and V >= av)
            if load < r:
                continue
            tried += 1
            assert any(u >= au and v >= av for (u, v) in positions), apex
        assert tried > 10


def test_interval_contiguity_and_membership():
    rng = random.Random(4)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(20)]
    for i in range(TRIANGLE.n):
        frame = WedgeFrame(TRIANGLE, i)
        items = frame.items(Y)
        curve = LevelCurve(frame, 5, items)
        positions = canonical_positions(curve, items)
        for (U, V, pid, _w) in items:
            member = [idx for idx, (u, v) in enumerate(positions)
                      if u <= U and v <= V]
            iv = curve._ends(U, V)
            if not member:
                assert iv is None
                continue
            # contiguity
            assert member == list(range(member[0], member[-1] + 1))
            # agreement with the computed interval
            assert walk_key((positions[member[0]])) >= walk_key(iv[0])
            assert walk_key((positions[member[-1]])) <= walk_key(iv[1])


def test_position_index_ranges_match_membership():
    rng = random.Random(5)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(18)]
    frame = WedgeFrame(SQUARE, 0)
    items = frame.items(Y)
    curve = LevelCurve(frame, 3, items)
    positions, ranges = position_index_ranges(curve, items)
    for (U, V, pid, _w) in items:
        member = [idx for idx, (u, v) in enumerate(positions)
                  if u <= U and v <= V]
        if ranges[pid] is None:
            assert member == []
        else:
            assert member == list(range(ranges[pid][0], ranges[pid][1] + 1))


def test_canonical_positions_content_constant():
    # between consecutive canonical positions the wedge content is constant:
    # the content at any random curve position equals the content of some
    # canonical position
    rng = random.Random(6)
    Y = [(rng.randint(0, 25), rng.randint(0, 25)) for _ in range(12)]
    frame = WedgeFrame(SQUARE, 0)
    items = frame.items(Y)
    curve = LevelCurve(frame, 2, items)
    positions = canonical_positions(curve, items)

    def content(u, v):
        return frozenset(pid for (U, V, pid, _w) in items
                         if U >= u and V >= v)

    canon_contents = {content(u, v) for (u, v) in positions}
    # sample drop positions at odd coordinates: point coordinates are all
    # doubled (even), so odd samples tie with nothing and behave like real
    # positions strictly between canonical ones
    for (du, v_hi, v_lo) in curve.drops:
        lo_main = v_lo[0] if v_lo[0] > -10 ** 9 else v_hi[0] - 9
        for v_main in range(lo_main + 1, v_hi[0], 2):
            sample = content(du, (v_main, 0))
            assert sample in canon_contents


def test_min_load_on_curve_examples():
    rng = random.Random(7)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(15)]
    frame = WedgeFrame(SQUARE, 0)
    items = frame.items(Y)
    curve = LevelCurve(frame, 4, items)
    assert min_load_on_curve(curve, []) == 0
    full = min_load_on_curve(curve, items)
    assert full in (4, 5)
    # against dense per-position evaluation
    positions = canonical_positions(curve, items)
    sub = items[:7]
    brute = min(sum(1 for (U, V, _, _) in sub if U >= u and V >= v)
                for (u, v) in positions)
    assert min_load_on_curve(curve, sub) == brute


def test_weighted_matches_counted_with_unit_weights():
    rng = random.Random(8)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(15)]
    a = build_level_curve(SQUARE, 0, Y, 5)
    b = build_level_curve(SQUARE, 0, Y, 5, weights=[1] * len(Y))
    assert a.drops == b.drops
    assert a.head == b.head and a.tail == b.tail


def test_weighted_curve_load_window():
    rng = random.Random(9)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(12)]
    ws = [rng.randint(1, 6) for _ in range(12)]
    level = sum(ws) // 2
    frame = WedgeFrame(SQUARE, 0)
    items = frame.items(Y, weights=ws)
    curve = LevelCurve(frame, level, items)
    positions = canonical_positions(curve, items)
    loads = dominance_loads(positions, items)
    assert min(loads) >= level
    assert min(loads) <= level + max(ws)
