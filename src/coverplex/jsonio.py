"""JSON serialization for every instance and result type.

Rational numbers are serialized as "p/q" strings so round-trips stay exact;
plain integers stay integers.  Readers accept nothing else: a float, a
boolean or any other string is an InputError, so no inexact value reaches
the exact predicates.  All dumps use sorted keys and a fixed separator
style, so identical values serialize to identical bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .geometry import ConvexPolygon
from .planar import PlanarInstance, PlanarSchedule, PlanarSensor
from .rsc import RscInstance, Schedule, Sensor


class InputError(ValueError):
    """Malformed or semantically invalid input document."""


def num_to_json(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return "%d/%d" % (v.numerator, v.denominator)
    return v


_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def num_from_json(v):
    """A JSON integer, or an exact "p/q" string with q != 0."""
    if type(v) is int:  # bool is a subclass of int, not int itself
        return v
    match = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    try:
        if match and int(match[2]) != 0:
            return Fraction(int(match[1]), int(match[2]))
    except ValueError:  # more digits than int() converts
        pass
    raise InputError('number must be an integer or a "p/q" string with '
                     'q != 0, got %r' % (v,))


def int_from_json(v, name):
    """A JSON integer; booleans, floats and strings are rejected."""
    if type(v) is int:
        return v
    raise InputError("%s must be an integer, got %r" % (name, v))


def point_to_json(p):
    return [num_to_json(p[0]), num_to_json(p[1])]


def point_from_json(v):
    if not (isinstance(v, list) and len(v) == 2):
        raise InputError("point must be a [x, y] pair, got %r" % (v,))
    return (num_from_json(v[0]), num_from_json(v[1]))


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


# -- polygons ---------------------------------------------------------------

def polygon_to_json(poly: ConvexPolygon):
    return {"vertices": [point_to_json(v) for v in poly.vertices]}


def polygon_from_json(doc):
    try:
        return ConvexPolygon([point_from_json(v) for v in doc["vertices"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad polygon: %s" % exc) from exc


# -- 1-D scheduling ---------------------------------------------------------

def rsc_instance_to_json(inst: RscInstance):
    return {"m": inst.m,
            "sensors": [{"id": s.id, "l": s.l, "r": s.r, "d": s.d}
                        for s in inst.sensors]}


def rsc_instance_from_json(doc):
    try:
        sensors = [Sensor(s["id"], s["l"], s["r"], s["d"])
                   for s in doc["sensors"]]
        for s in sensors:
            # one cheap test per sensor; name the field only on failure
            if not type(s.id) is type(s.l) is type(s.r) is type(s.d) is int:
                for key in ("id", "l", "r", "d"):
                    int_from_json(getattr(s, key), key)
        return RscInstance(int_from_json(doc["m"], "m"), sensors)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad scheduling instance: %s" % exc) from exc


def schedule_to_json(sched: Schedule, M=None, L=None):
    doc = {"assignments": [{"id": sid, "t": t}
                           for sid, t in sorted(sched.start.items())]}
    if M is not None:
        doc["M"] = M
    if L is not None:
        doc["L"] = L
    return doc


def schedule_from_json(doc, stop_at=None):
    try:
        sched = Schedule(stop_at=stop_at)
        for a in doc["assignments"]:
            sched.start[int_from_json(a["id"], "id")] = int_from_json(
                a["t"], "t")
        return sched
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad schedule: %s" % exc) from exc


# -- decomposition ----------------------------------------------------------

def decomp_instance_to_json(poly, points, k):
    return {"polygon": polygon_to_json(poly),
            "points": [point_to_json(p) for p in points],
            "k": k}


def decomp_instance_from_json(doc):
    try:
        poly = polygon_from_json(doc["polygon"])
        points = [point_from_json(p) for p in doc["points"]]
        k = int_from_json(doc["k"], "k")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad decomposition instance: %s" % exc) from exc
    return poly, points, k


def coloring_to_json(assignment, n_points, trace=None):
    colors = [assignment.colors.get(pid) for pid in range(n_points)]
    doc = {"colors": colors, "T": assignment.T}
    if trace is not None:
        doc["trace"] = [{"i": r.i, "L": r.L, "t": r.t, "x_size": r.x_size,
                         "colored": r.colored} for r in trace.records]
    return doc


def coloring_from_json(doc):
    from .cover import ColorAssignment
    try:
        asg = ColorAssignment(T=int_from_json(doc["T"], "T"))
        if asg.T < 0:
            raise InputError("T must be at least 0, got %d" % asg.T)
        for pid, c in enumerate(doc["colors"]):
            if c is not None:
                asg.colors[pid] = int_from_json(c, "color")
                if asg.colors[pid] < 1:
                    raise InputError("colors must be at least 1, got %d" % c)
        return asg
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad coloring: %s" % exc) from exc


# -- planar -----------------------------------------------------------------

def planar_instance_to_json(inst: PlanarInstance):
    return {"polygon": polygon_to_json(inst.polygon),
            "sensors": [{"id": s.id, "center": point_to_json(s.center),
                         "d": s.d} for s in inst.sensors],
            "universe": [point_to_json(u) for u in inst.universe]}


def planar_instance_from_json(doc):
    try:
        return PlanarInstance(
            polygon_from_json(doc["polygon"]),
            [PlanarSensor(int_from_json(s["id"], "id"),
                          point_from_json(s["center"]),
                          int_from_json(s["d"], "d"))
             for s in doc["sensors"]],
            [point_from_json(u) for u in doc["universe"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad planar instance: %s" % exc) from exc


def planar_schedule_to_json(sched: PlanarSchedule):
    return {"assignments": [{"id": sid, "t": t}
                            for sid, t in sorted(sched.start.items())],
            "trivial": sched.trivial}


def planar_schedule_from_json(doc):
    if not isinstance(doc, dict):
        raise InputError("bad planar schedule: expected an object, got %s"
                         % type(doc).__name__)
    try:
        sched = PlanarSchedule(trivial=bool(doc.get("trivial", False)))
        for a in doc["assignments"]:
            sched.start[int_from_json(a["id"], "id")] = int_from_json(
                a["t"], "t")
        return sched
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad planar schedule: %s" % exc) from exc


# -- level curves -----------------------------------------------------------

def curve_to_json(curve, i, r):
    f = curve.frame
    head = f.to_real(*[c[0] for c in curve.head])
    tail = f.to_real(*[c[0] for c in curve.tail])
    return {"i": i, "r": num_to_json(r),
            "chain": [point_to_json(p) for p in curve.chain_real()],
            "head": point_to_json(head), "tail": point_to_json(tail)}
