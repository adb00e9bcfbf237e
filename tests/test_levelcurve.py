import json
import random
from fractions import Fraction

import pytest

from coverplex import cli, jsonio
from coverplex.generate import POLYGONS, gen_points, polygon
from coverplex.geometry import ConvexPolygon, reflect
from coverplex.levelcurve import (NEG_INF, EmptyLevelCurveError, LevelCurve,
                                  build_level_curve, canonical_positions,
                                  min_load_on_curve, position_index_ranges)
from reference import (dominance_loads, flat_key, frame_items, tuple_ends,
                       tuple_positions_and_ends, ucoord, vcoord, walk_key,
                       wedge_contains, wedge_load)

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
    assert f.to_real(*curve.head) == (3, 5)
    assert f.to_real(*curve.tail) == (3, 5)


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
            frame, items = frame_items(TRIANGLE, i, Y)
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
        frame, items = frame_items(TRIANGLE, i, Y)
        curve = LevelCurve(frame, r, items)
        positions = canonical_positions(curve, items)
        tried = 0
        for _ in range(500):
            apex = (rng.randint(0, 30), rng.randint(0, 30))
            # the apex has no epsilon term
            au = flat_key(frame, ucoord(frame, apex))
            av = flat_key(frame, vcoord(frame, apex))
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
        frame, items = frame_items(TRIANGLE, i, Y)
        curve = LevelCurve(frame, 5, items)
        positions = canonical_positions(curve, items)
        for (U, V, pid, _w) in items:
            member = [idx for idx, (u, v) in enumerate(positions)
                      if u <= U and v <= V]
            iv = tuple_ends(curve, U, V)
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
    frame, items = frame_items(SQUARE, 0, Y)
    curve = LevelCurve(frame, 3, items)
    positions, ranges = position_index_ranges(curve, items)[0]
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
    frame, items = frame_items(SQUARE, 0, Y)
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
        hi_main = frame.split(v_hi)[0]
        lo_main = frame.split(v_lo)[0] if v_lo != NEG_INF else hi_main - 9
        for v_main in range(lo_main + 1, hi_main, 2):
            sample = content(du, v_main * frame.scale * frame.base)
            assert sample in canon_contents


@pytest.mark.parametrize("rational_share", [0, 0.25, 1])
def test_every_gap_gets_a_representative(rational_share):
    # `decomp points` and `plan` (on the reflected polygon, with weights)
    # both accept "p/q" coordinates, alone or mixed with integers; the
    # canonical positions and the gap representatives alternate along the
    # walk, each strictly inside its gap
    rng = random.Random(11)
    names = sorted(POLYGONS)
    for trial in range(60):
        poly = ConvexPolygon(POLYGONS[names[trial % len(names)]])
        if trial % 2:
            poly = reflect(poly)

        def coord():
            if rng.random() < rational_share:
                return Fraction(rng.randint(-20, 80), rng.randint(2, 9))
            return rng.randint(-4, 20)

        pts = [(coord(), coord()) for _ in range(rng.randint(1, 12))]
        weights = [rng.randint(1, 4) for _ in pts]
        frame, items = frame_items(poly, trial % poly.n, pts, weights=weights)
        curve = LevelCurve(frame, rng.randint(1, sum(weights)), items)
        positions, index_of, _, _ = tuple_positions_and_ends(curve, items)
        assert [pos in index_of for pos in positions] == \
            [k % 2 == 0 for k in range(len(positions))]
        keys = [walk_key(pos) for pos in positions]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_min_load_on_curve_examples():
    rng = random.Random(7)
    Y = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(15)]
    frame, items = frame_items(SQUARE, 0, Y)
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
    frame, items = frame_items(SQUARE, 0, Y, weights=ws)
    curve = LevelCurve(frame, level, items)
    positions = canonical_positions(curve, items)
    loads = dominance_loads(positions, items)
    assert min(loads) >= level
    assert min(loads) <= level + max(ws)


@pytest.mark.parametrize("name", ["triangle", "hexagon"])
def test_huge_translation_keeps_every_index_and_the_coloring(
        name, tmp_path, capsys):
    # a translation adds one constant to every U and one to every V, so
    # every walk coordinate moves by the same exact int, at any size
    poly = polygon(name)
    k = 256 * poly.n
    pts = gen_points(1, size=k + k // 8, span=60)
    dx, dy = 10 ** 30, -7 * 10 ** 29
    moved = [(x + dx, y + dy) for x, y in pts]
    for i in range(poly.n):
        indexes = []
        for where in (pts, moved):
            frame, items = frame_items(poly, i, where)
            indexes.append(position_index_ranges(LevelCurve(frame, k, items),
                                                 items)[0])
        (positions, ranges), (moved_positions, moved_ranges) = indexes
        assert len(moved_positions) == len(positions)
        assert moved_ranges == ranges
    outputs = []
    for where in (pts, moved):
        path = tmp_path / "in.json"
        path.write_text(jsonio.dumps(
            jsonio.decomp_instance_to_json(poly, where, k)))
        assert cli.main(["decomp", "points", "--in", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["T"] >= 1
