"""Fast exact paths checked against direct oracles on random instances.

Each oracle is the plain formula the fast path replaced, kept here as the
reference: translate membership by Fraction arithmetic on every edge, the
extreme-prefix reservation by sorting the members of every canonical curve
position, position index ranges and curve loads by testing every canonical
position against every item, the block solvers on an index built from the
queried items themselves, the curve cover by a union-find greedy that counts
every position's coverage, the coloring check over the positions of all
points, planar loads and simulation with one membership test per sensor,
grid cells by Fraction division, and the RSC greedy, durations and schedule
checks by time-step simulation (`reference.py`).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from coverplex import rsc
from coverplex.cover import (ColorAssignment, CoverPreconditionError,
                             _iterate_vertices, _reserved_filter,
                             compute_cover)
from coverplex.generate import POLYGONS, gen_rsc
from coverplex.geometry import (ConvexPolygon, GridSpec, cross, dot,
                                grid_spec, perturbation_direction, reflect,
                                strict_support_edges, sub)
from coverplex.levelcurve import (LevelCurve, WedgeFrame, canonical_positions,
                                  index_min_load, min_load_on_curve,
                                  position_index_ranges)
from coverplex.planar import (PlanarInstance, PlanarSchedule,
                              curve_rsc_instance, planar_load, verify_planar)
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


def reserved_ref(poly, i, delta, curve, items, points, target):
    """Survivors by a direct pass over every canonical position: members
    are the items whose sheared coordinates dominate the position; along
    each reserved direction they are sorted by decreasing Fraction key and
    the minimal prefix whose weight reaches the target is reserved (all of
    them when the total falls short)."""
    support = sorted(strict_support_edges(poly, i))
    key_of = {}
    for j in support:
        nj = tuple(Fraction(c) for c in poly.inward_normal(j))
        for (_, _, pid, _w), p in zip(items, points):
            key_of[j, pid] = (dot(p, nj), (pid + 1) * dot(delta, nj))
    out = set()
    for (u, v) in canonical_positions(curve, items):
        members = [(pid, w) for (U, V, pid, w) in items if u <= U and v <= V]
        reserved = set()
        for j in support:
            acc = 0
            for pid, w in sorted(members, key=lambda m: key_of[j, m[0]],
                                 reverse=True):
                if acc >= target:
                    break
                reserved.add(pid)
                acc += w
        out.update(pid for pid, _ in members if pid not in reserved)
    return out


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


def check_reserved_filter(case):
    poly, i, pts, weights, ids, level, target = case
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    got = _reserved_filter(poly, i, delta, position_index_ranges(curve, items),
                           items, pts, target)
    assert got == reserved_ref(poly, i, delta, curve, items, pts, target)


FAMILIES = ("colocated", "disjoint", "above")


@st.composite
def clique_filter_cases(draw, family, kite_apex=False):
    """filter_cases families that shape the clique positions the filter
    queries.  "colocated" puts every point on one spot at the full level,
    so every range holds the curve's one corner and they form one clique;
    "disjoint" queries a subset of the items whose ranges are pairwise
    disjoint, each its own clique, on the index of all of them; "above"
    sets the target above the load of every position, so nothing survives
    where some direction is reserved."""
    poly, i, pts, weights, ids, level = draw(weighted_cases(kite_apex))
    if family == "colocated":
        pts, level = [pts[0]] * len(pts), sum(weights)
    delta = perturbation_direction(poly)
    frame = WedgeFrame(poly, i, delta)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    index = position_index_ranges(curve, items)
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
    return poly, i, delta, curve, index, sub, sub_pts, target


@pytest.mark.parametrize("kite_apex", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
@ORACLE
@given(data=st.data())
def test_reserved_filter_clique_families_match_direct_oracle(family,
                                                             kite_apex, data):
    poly, i, delta, curve, index, sub, sub_pts, target = data.draw(
        clique_filter_cases(family, kite_apex))
    spans = [index[1][pid] for (_, _, pid, _w) in sub]
    if family == "colocated":
        assert max(lo for lo, _ in spans) <= min(hi for _, hi in spans)
    if family == "disjoint":
        spans.sort()
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    got = _reserved_filter(poly, i, delta, index, sub, sub_pts, target)
    assert got == reserved_ref(poly, i, delta, curve, sub, sub_pts, target)
    if family == "above" and strict_support_edges(poly, i):
        assert got == set()


@st.composite
def curve_queries(draw):
    """A level curve and query items: a random live subset of the curve's
    own items, extra points from a wider box, maybe an item outside every
    wedge (below the head level, left of the head), and maybe items on the
    head ray and on the tail ray (at the head or tail when the offset is
    0)."""
    poly, i, pts, weights, ids, level = draw(weighted_cases())
    frame = WedgeFrame(poly, i)
    items = frame.items(pts, weights=weights, ids=ids)
    curve = LevelCurve(frame, level, items)
    live = [it for it in items if draw(st.booleans())]
    wide = st.tuples(st.integers(-8, 16), st.integers(-8, 16))
    extra = draw(st.lists(wide, max_size=4))
    next_id = 3 * len(pts) + 2
    live += frame.items(extra, weights=[2] * len(extra),
                        ids=list(range(next_id, next_id + len(extra))))
    next_id += len(extra)
    (head_u, head_v), (tail_u, tail_v) = curve.head, curve.tail
    gap = 2 * draw(st.integers(1, 3))
    off = 2 * draw(st.integers(0, 3))
    rays = [((head_u[0] - gap, 0), (head_v[0] - gap, 0)),  # in no wedge
            ((head_u[0] - off, head_u[1]), head_v),
            (tail_u, (tail_v[0] - off, tail_v[1]))]
    for k, (U, V) in enumerate(rays):
        if draw(st.booleans()):
            live.append((U, V, next_id + k, draw(st.integers(1, 4))))
    return curve, live


@ORACLE
@given(curve_queries())
def test_position_index_and_min_load_match_membership_oracle(case):
    curve, items = case
    positions, ranges = position_index_ranges(curve, items)
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
    for x in range(inst.m + 2):
        assert rsc.duration_at(got, inst, x) == reference.duration_at(
            got, inst, x)


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
    sub_pts = [p for p, kept in zip(pts, keep) if kept]
    full, own = (position_index_ranges(curve, items),
                 position_index_ranges(curve, sub))
    load = index_min_load(own, sub)
    assert index_min_load(full, sub) == load
    target = data.draw(st.integers(0, sum(weights) + 1))
    assert _reserved_filter(poly, i, delta, full, sub, sub_pts, target) == \
        _reserved_filter(poly, i, delta, own, sub, sub_pts, target)
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
    own = position_index_ranges(curve, sub)
    # mostly within the precondition, one round past it at the most
    spans = [own[1][pid] for (_, _, pid, _w) in sub]
    fewest = min(sum(1 for rng in spans if rng and rng[0] <= idx <= rng[1])
                 for idx in range(len(own[0])))
    t = data.draw(st.integers(1, min(4, fewest // 2 + 1)))
    for index in (own, position_index_ranges(curve, items)):
        assert cover_answer(compute_cover, index, sub, t) == \
            cover_answer(reference.compute_cover, index, sub, t)


COVER_FAMILIES = ("identical", "nested", "sliding", "random")


@st.composite
def synthetic_covers(draw, family):
    """An index of K integer positions, interval ranges of one family on
    it, items in a shuffled order with scattered ids, and t up to 4.
    "identical" repeats a few ranges many times; "nested" is a deep chain
    of ranges each inside the one before, over copies of the whole range
    and of ranges from both ends; "sliding" is 2t copies (or one fewer,
    which misses position 0) of every window of one width, so every window
    joins a round's chain; "random" draws ranges freely."""
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
    else:
        spans = [tuple(sorted(draw(st.tuples(bound, bound))))
                 for _ in range(draw(st.integers(0, 12 * t)))]
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
    color)."""
    shape = draw(st.sampled_from(sorted(POLYGONS)))
    poly = ConvexPolygon(POLYGONS[shape])
    pts = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                        min_size=1, max_size=40))
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
    assert got.ok() == ref.ok()
    assert (got.alpha, got.stats) == (ref.alpha, ref.stats)
    if ref.ok() or asg.T <= 0:
        assert got.to_json() == ref.to_json()
        return
    # same curve and color; the apex is one where that color really is
    # missing from a wedge of load at least k
    w, r = got.checks[0].witness, ref.checks[0].witness
    assert (w["i"], w["color"]) == (r["i"], r["color"])
    frame = WedgeFrame(poly, w["i"])
    items = frame.items(pts)
    inside = [pid for (U, V, pid, _w) in items
              if U >= w["apex_u"] and V >= w["apex_v"]]
    assert len(inside) >= k
    assert all(asg.colors.get(pid) != w["color"] for pid in inside)


@st.composite
def planar_cases(draw):
    """Sensors on a few shared centers, integer or rational, a universe
    around them, and a schedule starting a random subset."""
    shape = draw(st.sampled_from(sorted(POLYGONS)))
    poly = ConvexPolygon(POLYGONS[shape])
    spot = st.tuples(rationals, rationals) | st.tuples(coords, coords)
    centers = draw(st.lists(spot, min_size=1, max_size=5))
    sensors = [(3 * sid + 1, draw(st.sampled_from(centers)),
                draw(st.integers(1, 5)))
               for sid in range(draw(st.integers(1, 25)))]
    universe = draw(st.lists(spot, min_size=1, max_size=6))
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
