"""Fast exact paths checked against direct oracles on random instances.

Each oracle is the plain formula the fast path replaced, kept here as the
reference: translate membership by Fraction arithmetic on every edge, the
extreme-prefix reservation by sorting the members of every canonical curve
position and by per-direction threshold passes with range maxima, the
level curve by a scan of every U-sorted suffix, position index ranges and
curve loads by testing every canonical position against every item, the
block solvers on an index built from the queried items themselves, the
curve cover by a union-find greedy that counts every position's coverage,
the position index by one built from (u, v) pairs with explicit gap
midpoints, the coloring check over the positions of all points and over
the level curve's positions of the colored points, planar loads and
simulation with one membership test per sensor, grid cells by Fraction
division, the RSC greedy, durations and schedule checks by time-step
simulation (`reference.py`), and the planar block solver by the greedy on
its curve's 1-D instance.
"""

import random
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from coverplex import cover, planar, rsc
from coverplex.cover import (ColorAssignment, CoverPreconditionError,
                             _iterate_vertices, _reserved_filter,
                             compute_cover, decompose_points)
from coverplex.generate import (POLYGONS, gen_planar, gen_points, gen_rsc,
                                polygon)
from coverplex.geometry import (ConvexPolygon, GridSpec, cross, grid_spec,
                                perturbation_direction, reflect,
                                strict_support_edges, sub)
from coverplex.levelcurve import (LevelCurve, WedgeFrame, canonical_positions,
                                  min_load_on_curve, position_index_ranges)
from coverplex.planar import (PlanarInstance, PlanarSchedule,
                              curve_rsc_instance, plan_schedule, planar_load,
                              verify_planar)
from coverplex.verify import verify_coloring, verify_rsc

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)
# one vertex is the strict support point of two edge normals, which takes the
# filter's several-directions path
KITE = [(0, 0), (2, -1), (4, 0), (2, 5)]

coords = st.integers(-6, 6)
rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


def hull(points):
    """Strictly convex hull in CCW order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(sub(out[-1], out[-2]),
                                          sub(p, out[-1])) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


@st.composite
def polygons(draw):
    """Random convex polygon; vertices optionally divided by a common
    denominator, optionally reflected through the centroid."""
    vs = hull(draw(st.lists(st.tuples(coords, coords), min_size=3,
                            max_size=9)))
    assume(len(vs) >= 3)
    q = draw(st.integers(1, 5))
    poly = ConvexPolygon([(Fraction(x, q), Fraction(y, q)) for x, y in vs])
    return reflect(poly) if draw(st.booleans()) else poly


def contains_ref(poly, p, center=None):
    """Closed membership by Fraction arithmetic: shift p by the translate's
    offset from the centroid, then test every CCW edge."""
    if center is None:
        off = (0, 0)
    else:
        off = (Fraction(center[0]) - poly.centroid[0],
               Fraction(center[1]) - poly.centroid[1])
    q = (Fraction(p[0]) - off[0], Fraction(p[1]) - off[1])
    return all(cross(poly.edge_vec(i), sub(q, poly.vertex(i))) >= 0
               for i in range(poly.n))


@st.composite
def boundary_points(draw, poly, center):
    """A vertex or an edge point of the translate centered at `center`, or
    one nudged just off that edge."""
    i = draw(st.integers(0, poly.n - 1))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=9))
    e = poly.edge_vec(i)
    nudge = draw(st.sampled_from([0, 0, Fraction(1, 97), Fraction(-1, 97)]))
    x = poly.vertex(i)[0] + t * e[0] - nudge * e[1]
    y = poly.vertex(i)[1] + t * e[1] + nudge * e[0]
    return (x + center[0] - poly.centroid[0],
            y + center[1] - poly.centroid[1]), nudge


@ORACLE
@given(st.data())
def test_contains_matches_fraction_formula(data):
    poly = data.draw(polygons())
    center = data.draw(st.tuples(rationals, rationals) | st.tuples(coords,
                                                                  coords))
    p = data.draw(st.tuples(rationals, rationals) | st.tuples(coords,
                                                             coords))
    assert poly.contains(p, center=center) == contains_ref(poly, p, center)
    assert poly.contains(p) == contains_ref(poly, p)
    q, nudge = data.draw(boundary_points(poly, center))
    got = poly.contains(q, center=center)
    assert got == contains_ref(poly, q, center)
    if nudge == 0:
        assert got  # membership is closed
    elif nudge < 0:
        assert not got  # outward of an edge line


@ORACLE
@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=9),
       st.tuples(coords, coords), st.tuples(coords, coords))
def test_contains_integer_kernel_on_integer_polygons(points, center, p):
    vs = hull(points)
    assume(len(vs) >= 3)
    poly = ConvexPolygon(vs)
    assert all(type(x) is int for hp in poly._halfplanes for x in hp)
    assert poly.contains(p, center=center) == contains_ref(poly, p, center)


@st.composite
def weighted_cases(draw, kite_apex=False):
    """Named, kite or random polygon (maybe reflected), a vertex, weighted
    points with scattered distinct ids, and a level up to their total.
    With ``kite_apex`` the polygon is the kite, maybe reflected, and the
    vertex its strict support point of two edge normals."""
    if kite_apex:
        poly, i = ConvexPolygon(KITE), 3
        if draw(st.booleans()):
            poly, i = reflect(poly), 0
    else:
        shape = draw(st.sampled_from(sorted(POLYGONS) + ["kite", "random"]))
        if shape == "kite":
            poly = ConvexPolygon(KITE)
        elif shape != "random":
            poly = ConvexPolygon(POLYGONS[shape])
        else:
            vs = hull(draw(st.lists(st.tuples(coords, coords), min_size=3,
                                    max_size=9)))
            assume(len(vs) >= 3)
            poly = ConvexPolygon(vs)
        if draw(st.booleans()):
            poly = reflect(poly)
        i = draw(st.integers(0, poly.n - 1))
    size = draw(st.integers(1, 14))
    pts = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                        min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(1, 4), min_size=size,
                            max_size=size))
    ids = [3 * pid + 1 for pid in draw(st.permutations(range(size)))]
    level = draw(st.integers(1, sum(weights)))
    return poly, i, pts, weights, ids, level


@st.composite
def filter_cases(draw, kite_apex=False):
    poly, i, pts, weights, ids, level = draw(weighted_cases(kite_apex))
    target = draw(st.integers(0, sum(weights) + 1))
    return poly, i, pts, weights, ids, level, target


@ORACLE
@given(filter_cases())
def test_reserved_filter_matches_direct_oracle(case):
    check_reserved_filter(case)


@ORACLE
@given(filter_cases(kite_apex=True))
def test_reserved_filter_several_directions_matches_direct_oracle(case):
    # the draws above reach a vertex with two reserved directions too
    # rarely to test the filter's several-directions path
    check_reserved_filter(case)


def u_orders(poly, delta, pts, weights, ids):
    """Every frame's items sorted by U: the order the filter ranks by."""
    return [sorted(WedgeFrame(poly, j, delta).items(pts, weights, ids))
            for j in range(poly.n)]


def check_reserved_filter(case):
    poly, i, pts, weights, ids, level, target = case
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    got = _reserved_filter(poly, i, u_orders(poly, delta, pts, weights, ids),
                           position_index_ranges(curve, items)[0], items,
                           target)
    assert got == reference.reserved_ref(poly, i, delta, curve, items, pts,
                                         target)


@st.composite
def sweep_cases(draw, kite_apex=False):
    """filter_cases for the filter's clique sweep: points on a few spots,
    and maybe only the items whose range ends at the most common end or
    later queried, so that many ranges end where the first clique does;
    all unit weights or weights mixing 1 with 10**30; distinct ids in -40..40; extra points from
    a wider box that the curve's level does not count, some of them in no
    wedge; a level anywhere or near the counted total, where most ranges
    end at the last position; and a target of a few units or anywhere up
    to the total, so that the members fall short of it at some cliques and
    not at others."""
    poly, i, *_ = draw(weighted_cases(kite_apex))
    spots = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                          min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=24))
    extra = draw(st.lists(st.tuples(st.integers(-8, 16), st.integers(-8, 16)),
                          max_size=4))
    size = len(pts) + len(extra)
    weight = st.sampled_from([1, 10 ** 30]) if draw(st.booleans()) else \
        st.just(1)
    weights = draw(st.lists(weight, min_size=size, max_size=size))
    ids = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size,
                        unique=True))
    counted = weights[:len(pts)]
    level = near_total(draw, counted) if draw(st.booleans()) else \
        draw(st.integers(1, sum(counted)))
    target = draw(st.integers(0, 2 * size) | st.integers(0, sum(weights) + 1))
    return (poly, i, pts + extra, weights, ids, len(pts), level, target,
            draw(st.booleans()))


@ORACLE
@given(sweep_cases())
def test_reserved_filter_sweep_matches_both_oracles(case):
    check_sweep(case)


@ORACLE
@given(sweep_cases(kite_apex=True))
def test_reserved_filter_sweep_several_directions_matches_both_oracles(case):
    check_sweep(case)


def check_sweep(case):
    poly, i, pts, weights, ids, m, level, target, late = case
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items[:m])
    index = position_index_ranges(curve, items)[0]
    orders = u_orders(poly, delta, pts, weights, ids)
    ends = [rng[1] for rng in map(index[1].get, ids) if rng is not None]
    if late and ends:
        # the index of all items answers for any subset of them
        common = max(ends, key=ends.count)
        keep = [rng is None or rng[1] >= common
                for rng in map(index[1].get, ids)]
        items = list(compress(items, keep))
        pts = list(compress(pts, keep))
    got = _reserved_filter(poly, i, orders, index, items, target)
    assert got == reference.reserved_filter(poly, i, orders, index, items,
                                            target)
    assert got == reference.reserved_ref(poly, i, delta, curve, items, pts,
                                         target)


def test_reserved_filter_matches_threshold_passes_on_criterion_runs(
        monkeypatch):
    # every filter call of plan_schedule on criterion-10 instances and of
    # decompose_points on criterion-8 instances
    calls = []
    real = cover._reserved_filter

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(cover, "_reserved_filter", recorded)
    for seed in (0, 1):
        plan_schedule(gen_planar(seed, n_sensors=2600, d_max=7, spread=2,
                                 universe_size=5))
    planar_calls = len(calls)
    for seed in range(4):
        poly = polygon(("triangle", "square", "hexagon")[seed % 3])
        k = 256 * poly.n
        decompose_points(poly, gen_points(seed, size=k + k // 8, span=60), k)
    assert planar_calls >= 8 and len(calls) >= planar_calls + 8
    for args, out in calls:
        assert out == reference.reserved_filter(*args)


FAMILIES = ("colocated", "disjoint", "above", "whole")


def near_total(draw, weights):
    """A level in the top quarter of the total weight, where most items
    hold the whole curve."""
    return max(1, sum(weights) - draw(st.integers(0, sum(weights) // 4)))


@st.composite
def clique_filter_cases(draw, family, kite_apex=False):
    """filter_cases families that shape the clique positions the filter
    queries.  "colocated" puts every point on one spot at the full level,
    so every range holds the curve's one corner and they form one clique;
    "disjoint" queries a subset of the items whose ranges are pairwise
    disjoint, each its own clique, on the index of all of them; "above"
    sets the target above the load of every position, so nothing survives
    where some direction is reserved; "whole" sets the level near the total
    weight."""
    poly, i, pts, weights, ids, level = draw(weighted_cases(kite_apex))
    if family == "colocated":
        pts, level = [pts[0]] * len(pts), sum(weights)
    if family == "whole":
        level = near_total(draw, weights)
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    index = position_index_ranges(curve, items)[0]
    ranges = index[1]
    live = [k for k, it in enumerate(items) if ranges[it[2]] is not None]
    if family == "disjoint":
        live.sort(key=lambda k: ranges[items[k][2]])
        picked, end = [], -1
        for k in live:
            lo, hi = ranges[items[k][2]]
            if lo > end and draw(st.booleans()):
                picked.append(k)
                end = hi
        live = picked
    sub = [items[k] for k in live]
    sub_pts = [pts[k] for k in live]
    if family == "above":
        top = max(sum(w for (U, V, _pid, w) in sub if u <= U and v <= V)
                  for (u, v) in canonical_positions(curve, sub))
        target = top + draw(st.integers(1, 3))
    else:
        target = draw(st.integers(0, sum(w for *_, w in sub) + 1))
    orders = u_orders(poly, delta, pts, weights, ids)
    return poly, i, delta, curve, index, sub, sub_pts, target, orders


@pytest.mark.parametrize("kite_apex", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
@ORACLE
@given(data=st.data())
def test_reserved_filter_clique_families_match_direct_oracle(family,
                                                             kite_apex, data):
    poly, i, delta, curve, index, sub, sub_pts, target, orders = data.draw(
        clique_filter_cases(family, kite_apex))
    spans = [index[1][pid] for (_, _, pid, _w) in sub]
    if family == "colocated":
        assert max(lo for lo, _ in spans) <= min(hi for _, hi in spans)
    if family == "disjoint":
        spans.sort()
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    got = _reserved_filter(poly, i, orders, index, sub, target)
    assert got == reference.reserved_ref(poly, i, delta, curve, sub, sub_pts,
                                         target)
    if family == "above" and strict_support_edges(poly, i):
        assert got == set()


@st.composite
def curve_queries(draw, whole=False):
    """A level curve and query items: a random live subset of the curve's
    own items, extra points from a wider box, maybe an item outside every
    wedge (below the head level, left of the head), and maybe items on the
    head ray and on the tail ray (at the head or tail when the offset is
    0).  With ``whole`` the level is near the total weight."""
    poly, i, pts, weights, ids, level = draw(weighted_cases())
    if whole:
        level = near_total(draw, weights)
    keep = [draw(st.booleans()) for _ in pts]
    wide = st.tuples(st.integers(-8, 16), st.integers(-8, 16))
    extra = draw(st.lists(wide, max_size=4))
    next_id = 3 * len(pts) + 2
    frame = WedgeFrame(poly, i)
    # one call, so the extra points share the frame's keys
    items = frame.items(pts + extra, weights=weights + [2] * len(extra),
                        ids=ids + list(range(next_id, next_id + len(extra))))
    curve = LevelCurve(frame, level, items[:len(pts)])
    live = [it for it, kept in zip(items, keep) if kept] + items[len(pts):]
    next_id += len(extra)
    (head_u, head_v), (tail_u, tail_v) = curve.head, curve.tail
    unit = frame.scale * frame.base  # one step of the main coordinate
    gap = 2 * draw(st.integers(1, 3)) * unit
    off = 2 * draw(st.integers(0, 3)) * unit
    rays = [(head_u - gap, head_v - gap),  # in no wedge
            (head_u - off, head_v),
            (tail_u, tail_v - off)]
    for k, (U, V) in enumerate(rays):
        if draw(st.booleans()):
            live.append((U, V, next_id + k, draw(st.integers(1, 4))))
    return curve, live


@ORACLE
@given(curve_queries())
def test_position_index_and_min_load_match_membership_oracle(case):
    check_position_index(case)


@ORACLE
@given(curve_queries(whole=True))
def test_position_index_whole_curve_family_matches_membership_oracle(case):
    check_position_index(case)


def check_position_index(case):
    curve, items = case
    positions, ranges = position_index_ranges(curve, items)[0]
    assert positions == canonical_positions(curve, items)
    for (U, V, pid, _w) in items:
        member = [idx for idx, (u, v) in enumerate(positions)
                  if u <= U and v <= V]
        if not member:
            assert ranges[pid] is None
            continue
        assert member == list(range(member[0], member[-1] + 1))
        assert ranges[pid] == (member[0], member[-1])
    brute = min(sum(w for (U, V, _pid, w) in items if U >= u and V >= v)
                for (u, v) in positions)
    assert min_load_on_curve(curve, items) == brute


@st.composite
def walk_index_cases(draw):
    """A level curve and query items for the walk-coordinate index: a named,
    kite or random polygon that may be reflected; weighted points with
    integer, rational, mixed int and Fraction(n, 1), or integer coordinates
    beyond every float; a level anywhere or near the total weight (most
    items hold the whole curve); a live subset of the curve's items; maybe
    an item in no wedge and items on the head ray and the tail ray; and a
    round count t for compute_cover."""
    shape = draw(st.sampled_from(sorted(POLYGONS) + ["kite", "random"]))
    if shape == "random":
        poly = draw(polygons())
    else:
        poly = ConvexPolygon(KITE if shape == "kite" else POLYGONS[shape])
        if draw(st.booleans()):
            poly = reflect(poly)
    layout = draw(st.sampled_from(["integer", "rational", "mixed", "huge"]))
    size = draw(st.integers(1, 14))
    if layout == "rational":
        spot = st.tuples(rationals, rationals)
    else:
        spot = st.tuples(st.integers(-4, 10), st.integers(-4, 10))
    pts = draw(st.lists(spot, min_size=size, max_size=size))
    if layout == "mixed":  # ints beside Fraction(n, 1), as "4/2" reads
        pts = [(Fraction(x), y) if pid % 3 == 1 else
               (x, Fraction(y)) if pid % 3 == 2 else (x, y)
               for pid, (x, y) in enumerate(pts)]
    elif layout == "huge":  # beyond every float
        pts = [(x + 10 ** 400, y - 3 * 10 ** 399) for x, y in pts]
    weights = draw(st.lists(st.integers(1, 4), min_size=size,
                            max_size=size))
    ids = [3 * pid + 1 for pid in draw(st.permutations(range(size)))]
    level = (near_total(draw, weights) if draw(st.booleans())
             else draw(st.integers(1, sum(weights))))
    frame = WedgeFrame(poly, draw(st.integers(0, poly.n - 1)))
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    live = [it for it in items if draw(st.booleans())]
    (head_u, head_v), (tail_u, tail_v) = curve.head, curve.tail
    unit = frame.scale * frame.base  # one step of the main coordinate
    gap = 2 * draw(st.integers(1, 3)) * unit
    off = 2 * draw(st.integers(0, 3)) * unit
    extra = [(head_u - gap, head_v - gap),  # in no wedge
             (head_u - off, head_v),
             (tail_u, tail_v - off)]
    next_id = 3 * size + 2
    for k, (U, V) in enumerate(extra):
        if draw(st.booleans()):
            live.append((U, V, next_id + k, draw(st.integers(1, 4))))
    return curve, live, draw(st.integers(1, len(live) + 1))


@ORACLE
@given(walk_index_cases())
def test_walk_index_matches_pair_built_reference(case):
    # the index of one int per position gives the K, decoded positions,
    # ranges and load differences of the index built from (u, v) pairs
    # with explicit gap midpoints, and compute_cover names the same
    # failing position through either
    curve, items, t = case
    (positions, ranges), diff = position_index_ranges(curve, items)
    (ref_positions, ref_ranges), ref_diff = reference.tuple_position_index(
        curve, items)
    K = len(ref_positions)
    assert len(positions) == K
    assert list(positions) == ref_positions
    assert [positions[k - K] for k in range(K)] == ref_positions
    assert canonical_positions(curve, items) == ref_positions
    with pytest.raises(IndexError):
        positions[K]
    assert ranges == ref_ranges
    assert diff == ref_diff
    shared = {}
    assert all(shared.setdefault(rng, rng) is rng
               for rng in ranges.values() if rng is not None)
    assert cover_answer(compute_cover, (positions, ranges), items, t) == \
        cover_answer(compute_cover, (ref_positions, ref_ranges), items, t)


@st.composite
def rsc_instances(draw):
    """Uniform ranges drawn directly (duplicates and nesting included), a
    larger uniform or nested instance from the generator, many copies of
    one range, a deep chain of nested ranges, or a few sensors on a few
    endpoints spread over m <= 10**4 (so the universe has far more
    coordinates than endpoints); short durations, since the reference
    walks every time step."""
    m = draw(st.integers(1, 8))
    d_max = draw(st.integers(1, 6))
    family = draw(st.sampled_from(["drawn", "uniform", "nested",
                                   "identical", "deep", "sparse"]))
    if family in ("uniform", "nested"):
        return gen_rsc(draw(st.integers(0, 10 ** 6)),
                       n=draw(st.integers(1, 40)),
                       m=m + draw(st.integers(0, 4)), d_max=d_max,
                       family=family)
    ranges = []
    if family == "drawn":
        for _ in range(draw(st.integers(0, 14))):
            l = draw(st.integers(1, m))
            ranges.append((l, draw(st.integers(l, m))))
    elif family == "identical":
        l = draw(st.integers(1, m))
        ranges = [(l, draw(st.integers(l, m)))] * draw(st.integers(1, 30))
        ranges += [(1, m)] * draw(st.integers(0, 3))
    elif family == "deep":
        m = draw(st.integers(1, 24))
        l, r = 1, m
        for _ in range(draw(st.integers(1, 24))):
            ranges.append((l, r))
            l = draw(st.integers(l, (l + r) // 2))
            r = draw(st.integers(max(l, (l + r) // 2), r))
    else:
        m = draw(st.integers(1, 10 ** 4))
        ends = sorted(draw(st.lists(st.integers(1, m), min_size=1,
                                    max_size=4)))
        d_max = min(d_max, 3)
        for _ in range(draw(st.integers(0, 8))):
            l = draw(st.sampled_from(ends))
            ranges.append((l, draw(st.sampled_from([e for e in ends
                                                    if e >= l]))))
    ids = draw(st.permutations(range(len(ranges))))
    return rsc.RscInstance(m, [(3 * sid + 2, l, r, draw(st.integers(1, d_max)))
                               for sid, (l, r) in zip(ids, ranges)])


def stop_values(inst):
    return st.none() | st.integers(0, rsc.load(inst)[1] + 2)


def event_tuples(sched):
    return [(e.id, e.t, e.closes, e.direction, e.interval)
            for e in sched.events]


@ORACLE
@given(st.data())
def test_greedy_duration_and_load_match_timeline_reference(data):
    inst = data.draw(rsc_instances())
    stop_at = data.draw(stop_values(inst))
    got = rsc.greedy_schedule(inst, stop_at=stop_at)
    ref = reference.greedy_schedule(inst, stop_at=stop_at)
    assert got.start == ref.start
    assert event_tuples(got) == event_tuples(ref)
    runs, L = rsc.load(inst)
    assert (reference.load_profile(runs), L) == reference.load(inst)
    assert rsc.duration(got, inst) == reference.duration(got, inst)


@st.composite
def pick_loop_cases(draw):
    """Instances for the regimes of the greedy's run search: many segments
    and few picks (unit sensors on distinct coordinates under a few long
    sensors, stopped at 1..3), a minimum that rises after almost every pick
    (durations 1..2, no stop), and a stop at 0, which makes one pick."""
    regime = draw(st.sampled_from(["segments", "rises", "stop-0"]))
    if regime == "segments":
        m = draw(st.integers(4, 60))
        xs = draw(st.lists(st.integers(1, m), min_size=1, max_size=m,
                           unique=True))
        ranges = [(x, x) for x in xs]
        for _ in range(draw(st.integers(1, 4))):
            l = draw(st.integers(1, m))
            ranges.append((l, draw(st.integers(max(l, m // 2), m))))
        d_max, stop_at = 6, draw(st.integers(1, 3))
    else:
        m = draw(st.integers(1, 12))
        ranges = []
        for _ in range(draw(st.integers(1, 40))):
            l = draw(st.integers(1, m))
            ranges.append((l, draw(st.integers(l, m))))
        d_max, stop_at = (2, None) if regime == "rises" else (6, 0)
    ids = draw(st.permutations(range(len(ranges))))
    inst = rsc.RscInstance(m, [(3 * sid + 2, l, r,
                                draw(st.integers(1, d_max)))
                               for sid, (l, r) in zip(ids, ranges)])
    return inst, stop_at


@ORACLE
@given(pick_loop_cases())
def test_pick_loop_matches_timeline_reference_across_regimes(case):
    inst, stop_at = case
    got = rsc.greedy_schedule(inst, stop_at=stop_at)
    ref = reference.greedy_schedule(inst, stop_at=stop_at)
    assert got.start == ref.start
    assert event_tuples(got) == event_tuples(ref)
    if stop_at == 0:
        assert len(got.events) == 1
    # the loop on the rows and cuts shifted to start at 0 (as the planar
    # block solver calls it) moves every coordinate, and no start
    rows = [(sid, l - 1, r - 1, d) for sid, l, r, d in inst.sensors]
    start, events = rsc._greedy(rows, [c - 1 for c in inst._segments[0]],
                                 stop_at)
    assert start == got.start
    assert [(e.id, e.t, e.closes + 1, e.direction,
             (e.interval[0] + 1, e.interval[1] + 1)) for e in events] == \
        event_tuples(got)


@st.composite
def perturbed_schedules(draw, inst):
    """The greedy's schedule with starts shifted (below 1 included),
    assignments dropped and unassigned sensors started, or every sensor of
    a random subset started at t <= 3 (which stacks them); then unknown ids
    added, and the event log kept, emptied, one event's time moved, or
    replaced by random events."""
    stop_at = draw(stop_values(inst))
    sched = rsc.greedy_schedule(inst, stop_at=stop_at)
    start = {}
    stacked = draw(st.booleans())
    for s in inst.sensors:
        t0 = sched.start.get(s.id)
        if stacked:
            if draw(st.integers(0, 3)):
                start[s.id] = draw(st.integers(1, 3))
        elif t0 is None:
            if draw(st.integers(0, 3)) == 0:
                start[s.id] = draw(st.integers(-2, 12))
        elif draw(st.integers(0, 4)):
            start[s.id] = t0 + draw(st.sampled_from([0, 0, 0, -3, -1, 1, 2]))
    for k in range(draw(st.integers(0, 2))):
        start[10 ** 6 + k] = draw(st.integers(-1, 6))
    events = sched.events
    choice = draw(st.integers(0, 3))
    if choice == 1:
        events = []
    elif choice == 2 and events:
        k = draw(st.integers(0, len(events) - 1))
        e = events[k]
        events = events[:k] + [rsc.Assignment(
            id=e.id, t=e.t + draw(st.integers(-2, 2)), closes=e.closes,
            direction=e.direction, interval=e.interval)] + events[k + 1:]
    elif choice == 3 and inst.sensors:
        # an arbitrary log: overlapping, nested and touching spans
        events = [rsc.Assignment(
            id=draw(st.sampled_from(inst.sensors)).id,
            t=draw(st.integers(1, 10)), closes=c, direction="right",
            interval=(c, c))
            for c in draw(st.lists(st.integers(1, inst.m), max_size=8))]
    return rsc.Schedule(start=start, events=events,
                        stop_at=draw(st.sampled_from([None, stop_at])))


def overload_at(inst, sched, x, t):
    """Number of assigned sensors active at coordinate x and time t."""
    return sum(1 for s in inst.sensors
               if s.id in sched.start and s.l <= x <= s.r
               and sched.start[s.id] <= t < sched.start[s.id] + s.d)


@ORACLE
@given(st.data())
def test_verify_rsc_matches_simulation_reference(data):
    inst = data.draw(rsc_instances())
    sched = data.draw(perturbed_schedules(inst))
    got = verify_rsc(inst, sched)
    ref = reference.verify_rsc(inst, sched)
    assert [(c.name, c.passed) for c in got.checks] == \
        [(c.name, c.passed) for c in ref.checks]
    assert (got.stats, got.ratio, got.alpha, got.not_run) == (
        ref.stats, ref.ratio, ref.alpha, ref.not_run)
    for c, r in zip(got.checks, ref.checks):
        if c.name != "coverage-at-most-5":
            assert c.witness == r.witness
        elif r.witness is not None:
            # the same first offending x, at its earliest offending time
            x, t = c.witness["x"], c.witness["t"]
            assert x == r.witness["x"]
            assert c.witness["coverage"] == overload_at(inst, sched, x, t) > 5
            assert all(overload_at(inst, sched, x, u) <= 5
                       for u in range(min(sched.start.values()), t))


@st.composite
def level_curve_cases(draw):
    """A random convex polygon (maybe rational, maybe reflected), a vertex,
    integer or rational points, some shifted along the cone ray e2 so that
    they share a main U coordinate, unit or duration weights, and a level
    of 1, the total weight or one between."""
    poly = draw(polygons())
    frame = WedgeFrame(poly, draw(st.integers(0, poly.n - 1)))
    spot = st.tuples(rationals, rationals) | st.tuples(coords, coords)
    pts = draw(st.lists(spot, min_size=1, max_size=12))
    e2x, e2y = frame.e2
    for _ in range(draw(st.integers(0, 4))):
        (x, y), s = draw(st.sampled_from(pts)), draw(st.integers(-2, 2))
        pts.append((x + s * e2x, y + s * e2y))
    weights = draw(st.none() | st.lists(st.integers(1, 9), min_size=len(pts),
                                        max_size=len(pts)))
    total = len(pts) if weights is None else sum(weights)
    level = draw(st.sampled_from([1, total]) | st.integers(1, total))
    return frame, frame.items(pts, weights=weights), level


@ORACLE
@given(level_curve_cases())
def test_level_curve_matches_full_scan_reference(case):
    frame, items, level = case
    curve = LevelCurve(frame, level, items)
    assert (curve.drops, curve.head, curve.tail, curve.items) == \
        reference.level_curve(level, items)


@st.composite
def keyed_points(draw):
    """A named, kite or random convex polygon, maybe reflected, points with
    integer or rational coordinates (denominators 2 to 9) or both, and
    distinct ids that are scattered, negative or of magnitude above
    2**40."""
    shape = draw(st.sampled_from(sorted(POLYGONS) + ["kite", "random"]))
    if shape == "random":
        poly = draw(polygons())
    else:
        poly = ConvexPolygon(KITE if shape == "kite" else POLYGONS[shape])
        if draw(st.booleans()):
            poly = reflect(poly)
    fracs = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 9))
    spot = st.tuples(coords, coords) | st.tuples(fracs, fracs) | st.tuples(
        coords, fracs)
    pts = draw(st.lists(spot, min_size=1, max_size=12))
    perm = draw(st.permutations(range(len(pts))))
    spread = draw(st.sampled_from(["scattered", "negative", "large"]))
    ids = [3 * k + 1 if spread == "scattered" else -3 * k - 1
           if spread == "negative" else (-1) ** k * (2 ** 40 + 5 * k)
           for k in perm]
    return poly, pts, ids


@ORACLE
@given(keyed_points())
def test_frame_u_order_ranks_match_normal_order_reference(case):
    # the reservation ranks by frame j's U order, which is the order along
    # edge j's inward normal with the same tie shift
    poly, pts, ids = case
    delta = perturbation_direction(poly)
    for i in range(poly.n):
        for j in strict_support_edges(poly, i):
            frame = WedgeFrame(poly, j, delta)
            curve = LevelCurve(frame, 1, frame.items(pts, ids=ids))
            got = {pid: r for r, (_, _, pid, _w) in enumerate(curve.items, 1)}
            assert got == reference.order_ranks(poly, j, delta, pts, ids)


@ORACLE
@given(keyed_points(), st.data())
def test_flat_keys_order_and_decode_as_reference_pairs(case, data):
    # key order is the (main, eps) order, and decoding a key gives the
    # reference pair: of every item, of both ray representatives (main 2
    # below the head's u and the tail's v) and of every gap midpoint
    poly, pts, ids = case
    frame = WedgeFrame(poly, data.draw(st.integers(0, poly.n - 1)))
    items = frame.items(pts, ids=ids)
    refs = [{}, {}]  # key -> reference pair, for U and for V
    for c, coord in enumerate((reference.ucoord, reference.vcoord)):
        pairs = [coord(frame, p, pid + 1) for p, pid in zip(pts, ids)]
        keys = [it[c] for it in items]
        assert all((a < b) == (pa < pb) and (a == b) == (pa == pb)
                   for a, pa in zip(keys, pairs) for b, pb in zip(keys, pairs))
        assert [frame.split(key) for key in keys] == pairs
        refs[c] = dict(zip(keys, pairs))
    curve = LevelCurve(frame, data.draw(st.integers(1, len(pts))), items)
    positions = canonical_positions(curve, items)
    K = len(positions)
    want = [None] * K
    for k in range(0, K, 2):
        u, v = positions[k]
        want[k] = [refs[0].get(u), refs[1].get(v)]
    (main, eps), (vmain, veps) = refs[0][curve.head[0]], refs[1][curve.tail[1]]
    want[0][0], want[-1][1] = (main - 2, eps), (vmain - 2, veps)
    for k in range(1, K, 2):
        want[k] = [(Fraction(a[0] + b[0], 2), (a[1] + b[1]) // 2)
                   for a, b in zip(want[k - 1], want[k + 1])]
        assert all((a[1] + b[1]) % 2 == 0
                   for a, b in zip(want[k - 1], want[k + 1]))
    assert [list(map(frame.split, pos)) for pos in positions] == want


@ORACLE
@given(st.data())
def test_superset_index_gives_the_subset_answers(data):
    # the vertex loop builds each curve's index once over all of the items
    # and queries it with the items still live
    poly, i, pts, weights, ids, level = data.draw(weighted_cases())
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    keep = data.draw(st.lists(st.booleans(), min_size=len(items),
                              max_size=len(items)))
    sub = [it for it, kept in zip(items, keep) if kept]
    full, own = (position_index_ranges(curve, items)[0],
                 position_index_ranges(curve, sub)[0])
    load = reference.index_min_load(own, sub)
    assert reference.index_min_load(full, sub) == load
    assert min_load_on_curve(curve, sub) == load
    target = data.draw(st.integers(0, sum(weights) + 1))
    orders = u_orders(poly, delta, pts, weights, ids)
    assert _reserved_filter(poly, i, orders, full, sub, target) == \
        _reserved_filter(poly, i, orders, own, sub, target)
    t = data.draw(st.integers(0, load // 2 + 1))
    answers = []
    for index in (full, own):
        try:
            answers.append(compute_cover(index, sub, t))
        except CoverPreconditionError:
            answers.append("precondition")
    assert answers[0] == answers[1]
    stop_at = data.draw(st.none() | st.integers(0, load + 1))
    assert rsc.greedy_schedule(curve_rsc_instance(full, sub),
                               stop_at=stop_at).start == \
        rsc.greedy_schedule(curve_rsc_instance(own, sub),
                            stop_at=stop_at).start


@ORACLE
@given(st.data())
def test_vertex_loop_loads_match_fresh_loads_of_the_live_items(data):
    # the loop keeps one load difference array per curve and subtracts
    # each block's choice; heavy weights let t reach 1, and the block
    # solver chooses a drawn subset of the surviving items
    poly, _, pts, weights, ids, _ = data.draw(weighted_cases())
    weights = [64 * poly.n * w for w in weights]
    level = data.draw(st.integers(1, sum(weights)))
    pick = set(data.draw(st.lists(st.sampled_from(ids), unique=True)))
    blocks = []

    def solve_block(index, items, t):
        blocks.append({pid: t for (_, _, pid, _w) in items if pid in pick})
        return blocks[-1]

    _, records = _iterate_vertices(poly, pts, level, solve_block,
                                   weights=weights, ids=ids)
    delta = perturbation_direction(poly)
    frames = [WedgeFrame(poly, z, delta) for z in range(poly.n)]
    items = [f.items(pts, weights=weights, ids=ids) for f in frames]
    curves = [LevelCurve(f, level, its) for f, its in zip(frames, items)]
    gone = set()
    for (i, L, t, _x_size, _chosen) in records:
        assert L == min(
            min_load_on_curve(curves[z], [it for it in items[z]
                                          if it[2] not in gone])
            for z in range(i, poly.n))
        if t:
            gone.update(blocks.pop(0))
    assert not blocks


def cover_answer(solver, index, items, t):
    """A cover solver's colors in insertion order, or the position, count
    and need of its precondition failure."""
    try:
        return list(solver(index, items, t).items())
    except CoverPreconditionError as err:
        return ("precondition", err.position, err.have, err.need)


@ORACLE
@given(st.data())
def test_compute_cover_matches_union_find_oracle(data):
    # queried on an index of its own items and on one of a superset
    # high levels and few dropped items keep most positions deep enough
    poly, i, pts, weights, ids, _ = data.draw(weighted_cases())
    level = data.draw(st.integers(max(1, sum(weights) // 2), sum(weights)))
    frame = WedgeFrame(poly, i)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    keep = data.draw(st.lists(st.sampled_from([True, True, True, False]),
                              min_size=len(items), max_size=len(items)))
    sub = [it for it, kept in zip(items, keep) if kept]
    own = position_index_ranges(curve, sub)[0]
    # mostly within the precondition, one round past it at the most
    spans = [own[1][pid] for (_, _, pid, _w) in sub]
    fewest = min(sum(1 for rng in spans if rng and rng[0] <= idx <= rng[1])
                 for idx in range(len(own[0])))
    t = data.draw(st.integers(1, min(4, fewest // 2 + 1)))
    for index in (own, position_index_ranges(curve, items)[0]):
        assert cover_answer(compute_cover, index, sub, t) == \
            cover_answer(reference.compute_cover, index, sub, t)


@ORACLE
@given(st.data())
def test_compute_cover_whole_curve_family_matches_union_find_oracle(data):
    # most items hold the whole curve, and t sits at half their count, so
    # the whole-range intervals fill every round or run out
    poly, i, pts, weights, ids, _ = data.draw(weighted_cases())
    frame = WedgeFrame(poly, i)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, near_total(data.draw, weights), items)
    index = position_index_ranges(curve, items)[0]
    full = (0, len(index[0]) - 1)
    whole = sum(1 for (_, _, pid, _w) in items if index[1][pid] == full)
    t = max(1, whole // 2 + data.draw(st.integers(0, 1)))
    assert cover_answer(compute_cover, index, items, t) == \
        cover_answer(reference.compute_cover, index, items, t)


COVER_FAMILIES = ("identical", "nested", "sliding", "random", "whole-many",
                  "whole-few")


@st.composite
def synthetic_covers(draw, family):
    """An index of K integer positions, interval ranges of one family on
    it, items in a shuffled order with scattered ids, and t up to 4.
    "identical" repeats a few ranges many times; "nested" is a deep chain
    of ranges each inside the one before, over copies of the whole range
    and of ranges from both ends; "sliding" is 2t copies (or one fewer,
    which misses position 0) of every window of one width, so every window
    joins a round's chain; "random" draws ranges freely; "whole-many" and
    "whole-few" hold at least 2t and fewer than 2t copies of the whole
    range, with halves split at a cut and free ranges besides."""
    t = draw(st.integers(1, 4))
    K = draw(st.integers(1, 40))
    bound = st.integers(0, K - 1)
    if family == "identical":
        shapes = [tuple(sorted(draw(st.tuples(bound, bound))))
                  for _ in range(draw(st.integers(1, 3)))]
        spans = [(0, K - 1)] * draw(st.integers(0, 2 * t))
        for span in shapes:
            spans += [span] * draw(st.integers(1, 4 * t))
    elif family == "nested":
        depth = draw(st.integers(0, (K - 1) // 2))
        spans = [(j, K - 1 - j) for j in range(depth + 1)]
        spans *= draw(st.integers(1, 2))
        spans += [(0, K - 1)] * draw(st.integers(0, 2 * t))
        for _ in range(draw(st.integers(0, 2 * t))):
            cut = draw(bound)
            spans += [(0, cut), (cut, K - 1)]
    elif family == "sliding":
        width = draw(st.integers(0, K - 1))
        copies = 2 * t - draw(st.sampled_from([0, 0, 0, 1]))
        spans = [(lo, lo + width) for lo in range(K - width)] * copies
    elif family == "random":
        spans = [tuple(sorted(draw(st.tuples(bound, bound))))
                 for _ in range(draw(st.integers(0, 12 * t)))]
    else:
        low = 2 * t if family == "whole-many" else 0
        whole = draw(st.integers(low, low + 2 * t - 1))
        spans = []
        for _ in range(draw(st.integers(0, 2 * t))):
            cut = draw(bound)
            spans += [(0, cut), (cut, K - 1)]
        spans += [tuple(sorted(draw(st.tuples(bound, bound))))
                  for _ in range(draw(st.integers(0, 4 * t)))]
        spans = [(0, K - 1)] * whole + [s for s in spans if s != (0, K - 1)]
    pids = [3 * k + 1 for k in draw(st.permutations(range(len(spans))))]
    ranges = dict(zip(pids, spans))
    ranges[3 * len(spans) + 1] = None  # an item in no wedge on the curve
    items = [(None, None, pid, 1)
             for pid in draw(st.permutations(sorted(ranges)))]
    return (list(range(K)), ranges), items, t


@pytest.mark.parametrize("family", COVER_FAMILIES)
@ORACLE
@given(data=st.data())
def test_compute_cover_families_match_union_find_oracle(family, data):
    index, items, t = data.draw(synthetic_covers(family))
    assert cover_answer(compute_cover, index, items, t) == \
        cover_answer(reference.compute_cover, index, items, t)


@st.composite
def colorings(draw):
    """Random colors 1..T+1 (or none) on random points, or a passing
    coloring (every point has color 1, T = 1) that is then kept, has its
    color dropped from some points, has T raised by one, or has points
    recolored at random (to no color, to a color above T, or to another
    color).  The points are random small integers (some coordinates as
    Fraction(n, 1) beside plain ints, or not), an antichain or a
    diagonal chain (in some vertex frame every point of a color is on its
    staircase), a few co-located spots, or rationals; the polygon is a
    named one or the kite, and may be reflected."""
    shape = draw(st.sampled_from(sorted(POLYGONS) + ["kite"]))
    poly = ConvexPolygon(KITE if shape == "kite" else POLYGONS[shape])
    if draw(st.booleans()):
        poly = reflect(poly)
    layout = draw(st.sampled_from(["random", "mixed", "antichain", "chain",
                                   "co-located", "rational"]))
    n = draw(st.integers(1, 40))
    if layout in ("random", "mixed"):
        pts = draw(st.lists(st.tuples(st.integers(0, 12),
                                      st.integers(0, 12)),
                            min_size=1, max_size=40))
        if layout == "mixed":  # ints beside Fraction(n, 1), as "4/2" reads
            pts = [(Fraction(x), y) if pid % 3 == 1 else
                   (x, Fraction(y)) if pid % 3 == 2 else (x, y)
                   for pid, (x, y) in enumerate(pts)]
    elif layout == "antichain":
        pts = [(i, n - i) for i in range(n)]
    elif layout == "chain":
        pts = [(i, i) for i in range(n)]
    elif layout == "co-located":
        spots = draw(st.lists(st.tuples(coords, coords), min_size=1,
                              max_size=3))
        pts = [draw(st.sampled_from(spots)) for _ in range(n)]
    else:
        pts = draw(st.lists(st.tuples(rationals, rationals), min_size=1,
                            max_size=40))
    k = draw(st.integers(1, len(pts)))
    if draw(st.booleans()):
        T = draw(st.integers(0, 4))
        colors = {pid: c for pid, c in enumerate(draw(st.lists(
            st.none() | st.integers(1, T + 1), min_size=len(pts),
            max_size=len(pts)))) if c is not None}
        return poly, pts, k, ColorAssignment(colors=colors, T=T)
    colors, T = dict.fromkeys(range(len(pts)), 1), 1
    change = draw(st.sampled_from(["none", "drop", "T+1", "recolor"]))
    if change == "drop":
        for pid in draw(st.lists(st.integers(0, len(pts) - 1), min_size=1)):
            colors.pop(pid, None)
    elif change == "T+1":
        T += 1
    elif change == "recolor":
        T = draw(st.integers(1, 3))
        for pid in draw(st.lists(st.integers(0, len(pts) - 1))):
            colors[pid] = draw(st.integers(0, T + 1))
            if not colors[pid]:
                del colors[pid]
    return poly, pts, k, ColorAssignment(colors=colors, T=T)


@ORACLE
@given(colorings())
def test_verify_coloring_matches_all_points_oracle(case):
    poly, pts, k, asg = case
    got = verify_coloring(poly, pts, asg, k)
    ref = reference.verify_coloring(poly, pts, asg, k)
    by_curve = reference.verify_coloring_by_curve(poly, pts, asg, k)
    assert got.ok() == ref.ok()
    assert (got.alpha, got.stats) == (ref.alpha, ref.stats)
    assert (got.ok(), got.alpha, got.stats) == (
        by_curve.ok(), by_curve.alpha, by_curve.stats)
    if ref.ok() or asg.T <= 0:
        assert got.to_json() == ref.to_json()
        return
    # same curve and color; the apex is one where that color really is
    # missing from a wedge of load at least k
    w, r = got.checks[0].witness, ref.checks[0].witness
    assert (w["i"], w["color"]) == (r["i"], r["color"])
    c = by_curve.checks[0].witness
    assert (w["i"], w["color"]) == (c["i"], c["color"])
    frame = WedgeFrame(poly, w["i"])
    inside = [pid for pid, p in enumerate(pts)
              if reference.ucoord(frame, p, pid + 1) >= w["apex_u"]
              and reference.vcoord(frame, p, pid + 1) >= w["apex_v"]]
    assert len(inside) >= k
    assert all(asg.colors.get(pid) != w["color"] for pid in inside)


@st.composite
def planar_cases(draw):
    """Sensors on a few shared centers, integer or rational, a universe
    around them, and a schedule starting a random subset; the polygon is a
    named one or the kite, and may be reflected (rational vertices and
    centroid).  Each universe point is a center plus a corner, an edge
    midpoint or a diagonal midpoint of the polygon about its centroid, so
    that it lies on the rim of, or inside, that center's translate; in
    some universes random points mix with these."""
    shape = draw(st.sampled_from(sorted(POLYGONS) + ["kite"]))
    poly = ConvexPolygon(KITE if shape == "kite" else POLYGONS[shape])
    if draw(st.booleans()):
        poly = reflect(poly)
    spot = st.tuples(rationals, rationals) | st.tuples(coords, coords)
    centers = draw(st.lists(spot, min_size=1, max_size=5))
    sensors = [(3 * sid + 1, draw(st.sampled_from(centers)),
                draw(st.integers(1, 5)))
               for sid in range(draw(st.integers(1, 25)))]
    ox, oy = poly.centroid
    rim = [(Fraction(x0 + x1, 2) - ox, Fraction(y0 + y1, 2) - oy)
           for x0, y0 in poly.vertices for x1, y1 in poly.vertices]
    near = st.tuples(st.sampled_from(centers), st.sampled_from(rim)).map(
        lambda cr: (cr[0][0] + cr[1][0], cr[0][1] + cr[1][1]))
    universe = draw(st.lists(near, min_size=1, max_size=6)
                    | st.lists(spot | near, min_size=1, max_size=6))
    inst = PlanarInstance(poly, sensors, universe)
    start = {s.id: draw(st.integers(1, 8)) for s in inst.sensors
             if draw(st.booleans())}
    return inst, PlanarSchedule(start=start)


@ORACLE
@given(planar_cases())
def test_planar_load_and_verify_match_per_sensor_oracle(case):
    inst, sched = case
    assert planar_load(inst) == reference.planar_load(inst)
    got = verify_planar(inst, sched)
    ref = reference.verify_planar(inst, sched)
    assert got.to_json() == ref.to_json()
    assert got.stats == ref.stats


def check_blocks(inst):
    """Every block plan_schedule solves, captured by wrapping the block
    solver it hands to the cell loop, matches the greedy on the curve's 1-D
    instance; returns the blocks' stop times."""
    blocks = []
    real = planar._grid_cells

    def grid_cells(poly, centers, level, solve_block, **kw):
        def recorded(index, items, t):
            blocks.append((index, items, t))
            return solve_block(index, items, t)
        return real(poly, centers, level, recorded, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_grid_cells", grid_cells)
        plan_schedule(inst)
    for index, items, t in blocks:
        assert planar._schedule_block(index, items, t) == rsc.greedy_schedule(
            curve_rsc_instance(index, items), stop_at=t).start
    return [t for _, _, t in blocks]


def test_block_solver_matches_curve_instance_greedy_on_criterion_runs():
    for seed in range(4):
        ts = check_blocks(gen_planar(seed, n_sensors=2600, d_max=7, spread=2,
                                     universe_size=5))
        assert len(ts) >= 8 and min(ts) >= 1


@st.composite
def block_cases(draw):
    """A triangle, hexagon or kite, reflected or not, scaled by the spread
    s in 2..20 of the centers over [0, s]^2, so its translates cover most
    of that box and the universe in it; and f * 6/25 times 64 n beta
    sensors of durations 1..9, so each block runs at about t = f."""
    shape = draw(st.sampled_from(["triangle", "hexagon", "kite"]))
    s = draw(st.integers(2, 20))
    poly = ConvexPolygon([(x * s, y * s) for x, y in
                          (KITE if shape == "kite" else POLYGONS[shape])])
    if draw(st.booleans()):
        poly = reflect(poly)
    f = draw(st.integers(1, 2 if shape == "hexagon" else 3))
    n = 64 * poly.n * grid_spec(reflect(poly)).beta * f * 6 // 25
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def spot():
        return rng.randint(0, s), rng.randint(0, s)

    return PlanarInstance(poly, [(sid, spot(), rng.randint(1, 9))
                                 for sid in range(n)],
                          [spot() for _ in range(rng.randint(1, 3))])


@settings(ORACLE, max_examples=12)
@given(block_cases())
def test_block_solver_matches_curve_instance_greedy_on_scaled_polygons(inst):
    assert check_blocks(inst)


@ORACLE
@given(st.data())
def test_cell_of_matches_fraction_formula(data):
    c = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=9,
                               max_denominator=50))
    grid = GridSpec(cell_side=c, beta=1)
    p = data.draw(st.tuples(rationals, rationals) | st.tuples(
        st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)))
    assert grid.cell_of(p) == (int(Fraction(p[0]) / c // 1),
                               int(Fraction(p[1]) / c // 1))
    poly = data.draw(polygons())
    grid = grid_spec(poly)
    c = grid.cell_side
    assert grid.cell_of(p) == (int(Fraction(p[0]) / c // 1),
                               int(Fraction(p[1]) / c // 1))
