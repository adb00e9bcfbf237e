import random
from fractions import Fraction

import pytest

from coverplex.generate import polygon
from coverplex.geometry import (ConvexPolygon, GeometryError, GridSpec,
                                cell_partition, grid_spec,
                                perturbation_direction, reflect,
                                strict_support_edges)
import reference
from reference import order_key, wedge_contains

SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = ConvexPolygon([(0, 0), (4, 0), (0, 4)])


def test_polygon_rejects_collinear():
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (0, 1)])


def test_polygon_rejects_clockwise():
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])


# every turn strictly left, but the edges turn around twice
PENTAGRAM = [(0, 0), (5, 3), (-1, 3), (4, 0), (2, 5)]


@pytest.mark.parametrize("vertices, message", [
    (PENTAGRAM, "not a convex polygon: its edges turn around 2 times"),
    (PENTAGRAM[2:] + PENTAGRAM[:2], "turn around 2 times"),
    ([(0, 0), (1, 0), (1, 1), (0, 0), (1, 0), (1, 1)], "turn around 2 times"),
    ([(0, 0), (1, 0), (1, 0), (0, 1)], "three collinear vertices at index 1"),
])
def test_polygon_rejects_stars_and_repeated_vertices(vertices, message):
    with pytest.raises(GeometryError, match=message):
        ConvexPolygon(vertices)


# cell side, beta, support edges per vertex of the polygon and of its
# reflection, and perturbation direction, as the pairwise tables in
# reference.py give them
NAMED_TABLES = {
    "triangle": (Fraction(11863283, 8388608), 16, [[1], [2], [0]],
                 [[1], [2], [0]], (1, 1)),
    "square": (Fraction(1), 16, [[], [], [], []], [[], [], [], []], (1, 1)),
    "hexagon": (Fraction(37514995, 33554432), 49,
                [[2], [4], [5], [], [], [1]], [[], [], [4], [5], [1], [2]],
                (1, 1)),
}


@pytest.mark.parametrize("name", sorted(NAMED_TABLES))
def test_named_polygon_tables_keep_their_values(name):
    cell, beta, support, reflected_support, delta = NAMED_TABLES[name]
    for poly, rows in ((polygon(name), support),
                       (reflect(polygon(name)), reflected_support)):
        assert grid_spec(poly) == reference.grid_spec(poly) == GridSpec(
            cell_side=cell, beta=beta)
        assert [sorted(strict_support_edges(poly, i))
                for i in range(poly.n)] == rows
        assert poly._support_edges == reference.support_edges(poly)
        assert perturbation_direction(poly) == \
            reference.perturbation_direction(poly) == delta


def test_centroid_triangle():
    assert TRIANGLE.centroid == (Fraction(4, 3), Fraction(4, 3))


def test_reflect_centrally_symmetric_square():
    sym = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert set(reflect(sym).vertices) == set(sym.vertices)


def test_reflect_triangle_vertices():
    refl = reflect(TRIANGLE)
    expected = {(Fraction(8, 3), Fraction(8, 3)),
                (Fraction(-4, 3), Fraction(8, 3)),
                (Fraction(8, 3), Fraction(-4, 3))}
    assert set(refl.vertices) == expected
    # index 0 is the lowest-then-leftmost vertex
    assert refl.vertices[0] == (Fraction(8, 3), Fraction(-4, 3))


def test_reflect_involution():
    rng = random.Random(0)
    for _ in range(20):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        poly = ConvexPolygon([(0, 0), (w, 0), (w, h), (0, h)])
        back = reflect(reflect(poly))
        assert set(back.vertices) == set(poly.vertices)


def test_wedge_contains_quadrant():
    # vertex 0 of the CCW unit square has cone spanned by (0,1) and (1,0)
    assert wedge_contains(SQUARE, 0, (0, 0), (1, 1))
    assert not wedge_contains(SQUARE, 0, (0, 0), (-1, 0))
    assert wedge_contains(SQUARE, 0, (0, 0), (0, 3))  # boundary ray, closed


def test_wedge_cone_consistency():
    rng = random.Random(1)
    for i in range(TRIANGLE.n):
        d1, d2 = TRIANGLE.cone_dirs(i)
        apex = (rng.randint(-5, 5), rng.randint(-5, 5))
        for _ in range(50):
            s = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            t = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            p = (apex[0] + s * d1[0] + t * d2[0],
                 apex[1] + s * d1[1] + t * d2[1])
            assert wedge_contains(TRIANGLE, i, apex, p)


def test_order_key_examples():
    # unit square, edge 0 along the x-axis; inward normal +y
    assert order_key(SQUARE, 0, (5, 3)) > order_key(SQUARE, 0, (0, 2))
    assert order_key(SQUARE, 0, (7, 2)) == order_key(SQUARE, 0, (-3, 2))


def test_order_key_linearity():
    rng = random.Random(2)
    for _ in range(100):
        x = (rng.randint(-20, 20), rng.randint(-20, 20))
        y = (rng.randint(-20, 20), rng.randint(-20, 20))
        off = (rng.randint(-20, 20), rng.randint(-20, 20))
        i = rng.randrange(TRIANGLE.n)
        d = order_key(TRIANGLE, i, x) - order_key(TRIANGLE, i, y)
        d2 = (order_key(TRIANGLE, i, (x[0] + off[0], x[1] + off[1]))
              - order_key(TRIANGLE, i, (y[0] + off[0], y[1] + off[1])))
        assert d == d2


def test_order_key_minimal_on_own_edge():
    for i in range(TRIANGLE.n):
        edge_key = order_key(TRIANGLE, i, TRIANGLE.vertex(i))
        assert edge_key == order_key(TRIANGLE, i, TRIANGLE.vertex(i + 1))
        for k in range(TRIANGLE.n):
            assert order_key(TRIANGLE, i, TRIANGLE.vertex(k)) >= edge_key


def test_support_edges_triangle():
    for i in range(3):
        assert strict_support_edges(TRIANGLE, i) == {(i + 1) % 3}


def test_support_edges_parallelogram_empty():
    para = ConvexPolygon([(0, 0), (3, 1), (4, 4), (1, 3)])
    for i in range(4):
        assert strict_support_edges(para, i) == set()


def test_support_edges_brute_force_hexagon():
    hexa = ConvexPolygon([(2, 0), (5, 1), (6, 4), (4, 6), (1, 5), (0, 3)])

    def oracle(i):
        out = set()
        pi = hexa.vertex(i)
        for j in range(hexa.n):
            n = hexa.inward_normal(j)
            vals = [(v[0] * n[0] + v[1] * n[1], idx)
                    for idx, v in enumerate(hexa.vertices)]
            best = max(vals)
            if best[1] == i and sum(1 for v in vals
                                    if v[0] == best[0]) == 1:
                out.add(j)
        return out

    for i in range(hexa.n):
        assert strict_support_edges(hexa, i) == oracle(i)
    # each call hands out its own set from the polygon's one table
    strict_support_edges(hexa, 0).add(99)
    assert strict_support_edges(hexa, hexa.n) == oracle(0)


def test_duality():
    # p inside the translate at x iff x inside the reflected translate at p
    refl = reflect(TRIANGLE)
    rng = random.Random(3)
    for _ in range(1000):
        p = (rng.randint(-8, 8), rng.randint(-8, 8))
        x = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert TRIANGLE.contains(p, center=x) == refl.contains(x, center=p)


def test_grid_spec_unit_square():
    grid = grid_spec(SQUARE)
    assert grid.cell_side == Fraction(1, 2)
    assert grid.beta == 16


def test_grid_spec_equilateral_lower_bound():
    # side-2 equilateral triangle scaled to integer coordinates (x7):
    # vertices (0,0), (14,0), (7,12) approximate (7, 7*sqrt(3)); exact
    # clearance here is the smallest vertex-to-opposite-edge distance
    tri = ConvexPolygon([(0, 0), (14, 0), (7, 12)])
    grid = grid_spec(tri)
    # half the height of the lowest vertex over its opposite edge
    import math
    exact = min(12.0, 2 * 7 * 12 / math.hypot(14, 0),
                14 * 12 / math.hypot(7, 12)) / 2
    assert 0 < float(grid.cell_side) <= exact
    assert exact - float(grid.cell_side) < 1e-5


def test_grid_cells_within_beta():
    refl = reflect(TRIANGLE)
    grid = grid_spec(refl)
    c = grid.cell_side
    x0, y0, x1, y1 = refl.bounding_box()
    rng = random.Random(4)
    for _ in range(1000):
        ox = Fraction(rng.randint(-400, 400), 100)
        oy = Fraction(rng.randint(-400, 400), 100)
        # cells intersected by the translated bounding box (a superset of
        # those intersected by the polygon)
        ax, ay = x0 + ox, y0 + oy
        bx, by = x1 + ox, y1 + oy
        nx = int(bx / c // 1) - int(ax / c // 1) + 1
        ny = int(by / c // 1) - int(ay / c // 1) + 1
        assert nx * ny <= grid.beta


def test_cell_partition_properties():
    grid = grid_spec(SQUARE)
    assert cell_partition([], grid) == {}
    rng = random.Random(5)
    pts = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(100)]
    cells = cell_partition(pts, grid)
    seen = sorted(idx for subset in cells.values() for idx in subset)
    assert seen == list(range(100))


def test_cell_partition_one_cell_lookup_per_distinct_point(monkeypatch):
    # the cells, their key order and each cell's index order of one lookup
    # per point, from one lookup per distinct point; (1, 2) and
    # (Fraction(1), 2) are one point
    grid = grid_spec(SQUARE)
    rng = random.Random(6)
    spots = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(9)]
    pts = [rng.choice(spots) for _ in range(200)]
    pts += [(Fraction(x), y) for x, y in pts[:20]]
    want = {}
    for idx, p in enumerate(pts):
        want.setdefault(grid.cell_of(p), []).append(idx)
    calls = []
    real = GridSpec.cell_of

    def counted(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(GridSpec, "cell_of", counted)
    cells = cell_partition(pts, grid)
    assert list(cells.items()) == list(want.items())
    assert len(calls) == len(set(pts))


def test_cell_partition_boundary_point():
    grid = grid_spec(SQUARE)  # cell side 1/2
    cells = cell_partition([(1, 1)], grid)
    assert list(cells) == [(2, 2)]  # half-open: boundary goes up-right
