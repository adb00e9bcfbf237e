"""Exact primitives for convex polygons, their wedges and the grid reduction.

All predicates run over integers / fractions.Fraction only; nothing here
touches floating point, because every downstream sweep is ordering-sensitive.
Input points and polygon vertices have integer or rational coordinates;
derived values (centroid, reflected vertices, cell side) may be rational.
Translate membership, the hottest predicate, is scaled to integer
half-planes once per polygon, so integer inputs never build a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


class GeometryError(ValueError):
    pass


class EmptyLevelCurveError(ValueError):
    """Raised when the requested level exceeds the total available load."""


def _norm(v):
    """Keep coordinates as plain ints where possible, exact Fractions else."""
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f


def int_scaled(*vals):
    """The rationals times the smallest positive integer that makes them all
    integral; a positive scale keeps every sign and every ordering."""
    fs = [Fraction(v) for v in vals]
    den = lcm(*(f.denominator for f in fs))
    return tuple(int(f * den) for f in fs)


@dataclass(frozen=True)
class GridSpec:
    """Square grid fine enough that a cell meets at most two (adjacent) sides
    of any translate of the polygon."""

    cell_side: Fraction
    beta: int

    def cell_of(self, p):
        # half-open cells [a, a+c) x [b, b+c), anchored at the origin:
        # floor(x / c) in integers, for int and Fraction x alike
        num, den = self.cell_side.denominator, self.cell_side.numerator
        x, y = p
        return ((x.numerator * num) // (x.denominator * den),
                (y.numerator * num) // (y.denominator * den))


class ConvexPolygon:
    """Strictly convex polygon with rational vertices in CCW order: every
    turn is strictly left and the edges turn around once.

    Vertex index arithmetic is modulo n.  ``centroid`` is the exact rational
    area centroid, used as the reference point for translates.
    """

    def __init__(self, vertices):
        vs = [(_norm(x), _norm(y)) for x, y in vertices]
        n = len(vs)
        if n < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        # every turn strictly left, and the edge directions, each turning
        # less than a half-turn, cross from the lower half-plane (y < 0, or
        # y = 0 and x < 0) into the upper one once per revolution: once
        # for a convex polygon, more often for a star (a repeated vertex
        # makes a zero edge or a second revolution)
        windings = 0
        for i in range(n):
            a, b = sub(vs[i], vs[i - 1]), sub(vs[(i + 1) % n], vs[i])
            turn = cross(a, b)
            if turn == 0:
                raise GeometryError("three collinear vertices at index %d" % i)
            if turn < 0:
                raise GeometryError("vertices not in CCW order")
            windings += (a[1], a[0]) < (0, 0) <= (b[1], b[0])
        if windings != 1:
            raise GeometryError("not a convex polygon: its edges turn "
                                "around %d times, not once" % windings)
        self.vertices = vs
        self.n = n
        self.centroid = _area_centroid(vs)
        # integer half-planes of the translate centered at c: a point p is
        # inside iff cross((a, b), p - c) >= off on every edge, where (a, b)
        # is the edge vector and off = cross(edge, v_i - centroid), all three
        # scaled by one positive integer per edge
        halfplanes = []
        for i in range(n):
            e = self.edge_vec(i)
            off = cross(e, sub(vs[i], self.centroid))
            halfplanes.append(int_scaled(e[0], e[1], off))
        self._halfplanes = tuple(halfplanes)

    def __eq__(self, other):
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(tuple(self.vertices))

    def __repr__(self):
        return "ConvexPolygon(%r)" % (self.vertices,)

    def vertex(self, i):
        return self.vertices[i % self.n]

    def edge_vec(self, i):
        # direction of edge p_i -> p_{i+1}
        return sub(self.vertex(i + 1), self.vertex(i))

    def inward_normal(self, i):
        # left-hand normal of the CCW edge points into the polygon
        e = self.edge_vec(i)
        return (-e[1], e[0])

    def cone_dirs(self, i):
        # the two rays bounding the wedge at vertex i
        p = self.vertex(i)
        return sub(self.vertex(i - 1), p), sub(self.vertex(i + 1), p)

    def contains(self, p, center):
        """Exact closed membership of p in the translate centered at `center`
        (the polygon as given is centered at its centroid).

        Coordinates are ints or Fractions; with ints the test is pure
        integer arithmetic."""
        dx = p[0] - center[0]
        dy = p[1] - center[1]
        for a, b, off in self._halfplanes:
            if a * dy - b * dx < off:
                return False
        return True

    @cached_property
    def _support_edges(self):
        """Per vertex, the edges whose inward normal it strictly maximizes
        (strict_support_edges): edge j goes to its highest vertex along
        inward_normal(j), if only one vertex is highest."""
        table = [[] for _ in range(self.n)]
        for j in range(self.n):
            nj = self.inward_normal(j)
            heights = [dot(v, nj) for v in self.vertices]
            top = max(heights)
            if heights.count(top) == 1:
                table[heights.index(top)].append(j)
        return tuple(map(tuple, table))

    def bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def _area_centroid(vs):
    n = len(vs)
    a6 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a6 += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx / (3 * a6), cy / (3 * a6))


def reflect(poly: ConvexPolygon) -> ConvexPolygon:
    """Reflect the polygon through its centroid: v -> 2*O - v.

    Vertices of the result are exact rationals in general; edge directions
    are the negated (still integral, for integer input) edge directions of
    the original.  Reflection is a half-turn, so CCW order is preserved; the
    result is re-anchored with index 0 at the lowest-then-leftmost vertex.
    """
    ox, oy = poly.centroid
    refl = [(2 * ox - x, 2 * oy - y) for x, y in poly.vertices]
    k = min(range(len(refl)), key=lambda i: (refl[i][1], refl[i][0]))
    return ConvexPolygon(refl[k:] + refl[:k])


def strict_support_edges(poly: ConvexPolygon, i: int):
    """Edge indices j such that the line through vertex i parallel to edge j
    meets the polygon in exactly that vertex.

    Equivalent exact test: vertex i is the strict unique maximizer of the
    inward normal of edge j over all vertices.  The table of every vertex
    is computed once per polygon.
    """
    return set(poly._support_edges[i % poly.n])


def _seg_point_dist2(a, b, p):
    """Exact squared distance from point p to segment ab (all rational)."""
    ab = sub(b, a)
    ap = sub(p, a)
    denom = dot(ab, ab)
    t = Fraction(dot(ap, ab), denom)
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    q = (a[0] + t * ab[0], a[1] + t * ab[1])
    d = sub(p, q)
    return d[0] * d[0] + d[1] * d[1]


def _rational_sqrt_lower(d2: Fraction, scale: int = 1 << 24) -> Fraction:
    """Largest-enough rational lower bound on sqrt(d2); exact when d2 is the
    square of a rational."""
    p, q = d2.numerator, d2.denominator
    return Fraction(isqrt(p * q * scale * scale), q * scale)


def grid_spec(poly: ConvexPolygon) -> GridSpec:
    """Cell side = half the minimum clearance between non-adjacent features
    of the polygon, the least distance from a vertex to an edge not incident
    to it: two non-adjacent edges are closest at an endpoint of one of them,
    so their distance is one of these.  A strictly convex polygon keeps
    every vertex off the line of each such edge, so the clearance is
    positive.  beta is a safe upper bound on the number of cells any
    translate can intersect, from the bounding box."""
    n = poly.n
    best = min(_seg_point_dist2(poly.vertex(i), poly.vertex(i + 1),
                                poly.vertex(k))
               for i in range(n) for k in range(i + 2, i + n))
    cell = _rational_sqrt_lower(best) / 2
    x0, y0, x1, y1 = poly.bounding_box()
    w, h = Fraction(x1 - x0), Fraction(y1 - y0)
    beta = (int(w / cell // 1) + 2) * (int(h / cell // 1) + 2)
    return GridSpec(cell_side=cell, beta=beta)


def cell_partition(points, grid: GridSpec):
    """Assign every point to exactly one half-open grid cell; the cell of
    each distinct point is computed once."""
    cell_at = {p: grid.cell_of(p) for p in dict.fromkeys(points)}
    cells = {}
    for idx, p in enumerate(points):
        cells.setdefault(cell_at[p], []).append(idx)
    return cells


def perturbation_direction(poly: ConvexPolygon):
    """Integer direction delta not parallel to any edge, so not orthogonal to
    any edge normal either (dot(delta, inward_normal(j)) is -cross(delta,
    e_j)); used as the symbolic general-position shift: point with id t is
    treated as shifted by t*eps*delta for an infinitesimal eps > 0."""
    lam = 1
    while any(cross((1, lam), poly.edge_vec(j)) == 0 for j in range(poly.n)):
        lam += 1
    return (1, lam)
