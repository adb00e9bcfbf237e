"""JSON serialization for every instance and result type.

Rational numbers are serialized as "p/q" strings so round-trips stay exact;
plain integers stay integers.  Readers accept nothing else: a float, a
boolean or any other string is an InputError, so no inexact value reaches
the exact predicates.  All dumps use sorted keys and a fixed layout, so
identical values serialize to identical bytes: those the stdlib's encoder
writes at one space of indent per depth with ": " after each key.  That
encoder runs in pure Python whenever it indents, so dumps lays out the text
itself around the C encoder's scalars.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

from .cover import ColorAssignment
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


def _list_from_json(doc, key):
    """doc[key], which must be a JSON array."""
    v = doc[key]
    if not isinstance(v, list):
        raise InputError("%s must be a list, got %s" % (key, type(v).__name__))
    return v


def point_to_json(p):
    return [num_to_json(p[0]), num_to_json(p[1])]


def point_from_json(v):
    if not (isinstance(v, list) and len(v) == 2):
        raise InputError("point must be a [x, y] pair, got %r" % (v,))
    return (num_from_json(v[0]), num_from_json(v[1]))


def _default(v):
    # a Fraction inside a result (a coloring witness's apex) is a "p/q";
    # any other value that JSON cannot hold stays a TypeError
    return num_to_json(Fraction(v))


_CONTAINERS = (list, tuple, dict)


class _Writer:
    """The text of one dumps call.  The items of a list that share one shape
    (scalars; dicts with the same str keys or lists of one length, whose
    columns share a shape in turn) are one %-template each, all filled in one
    pass from columns: ints by %d, other scalars by the C encoder's text.
    Everything else is written item by item."""

    def __init__(self):
        # the item separator is a newline, which no scalar's text holds
        self._enc = c_make_encoder(None, _default, encode_basestring_ascii,
                                   None, ": ", "\n", True, False, True)

    def _text(self, value):
        return "".join(self._enc(value, 0))

    def _key(self, k):
        if isinstance(k, str):
            return encode_basestring_ascii(k)
        if k is None or isinstance(k, (int, float)):
            return '"%s"' % self._text(k)
        raise TypeError("keys must be str, int, float, bool or None, not %s"
                        % k.__class__.__name__)

    def write(self, o, level):
        """The text of o, whose closing bracket is ``level`` spaces in."""
        if not isinstance(o, _CONTAINERS):
            return self._text(o)
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        nl = "\n" + " " * (level + 1)
        if isinstance(o, dict):
            return "{" + nl + ("," + nl).join(
                [self._key(k) + ": " + self.write(v, level + 1)
                 for k, v in sorted(o.items())]) + nl[:-1] + "}"
        shape = self._shape(o, level + 1)
        if shape is None:
            return "[" + nl + ("," + nl).join(
                [self.write(v, level + 1) for v in o]) + nl[:-1] + "]"
        template, columns = shape
        if template == "%s":  # scalars' texts, joined with no template
            return "[" + nl + ("," + nl).join(columns[0]) + nl[:-1] + "]"
        return ("[" + nl + ("," + nl).join([template] * len(o)) + nl[:-1]
                + "]") % tuple(chain.from_iterable(zip(*columns)))

    def _shape(self, values, level):
        """(template, columns) when the values share one shape: the template
        of each, whose closing bracket is ``level`` spaces in, and the
        columns that fill its slots.  None otherwise, and for lists with
        more items than there are values: those are cheaper one by one."""
        kinds = set(map(type, values))
        if not any(issubclass(t, _CONTAINERS) for t in kinds):
            if kinds == {int}:
                return "%d", [values]
            return "%s", [self._text(values)[1:-1].split("\n")]
        if not (kinds == {dict} or kinds <= {list, tuple}) or len(
                set(map(len, values))) != 1:
            return None
        if kinds == {dict}:
            if set(map(type, values[0])) != {str}:
                return None
            keys = sorted(values[0])
            heads = [encode_basestring_ascii(k).replace("%", "%%") + ": "
                     for k in keys]
            try:
                shapes = [self._shape(list(map(itemgetter(k), values)),
                                      level + 1) for k in keys]
            except KeyError:  # values of one size with other keys
                return None
        elif (width := len(values[0])) > len(values):
            return None
        else:
            flat = list(chain.from_iterable(values))
            heads = [""] * width
            shapes = [self._shape(flat[j::width], level + 1)
                      for j in range(width)]
        if None in shapes:
            return None
        brackets = "{}" if kinds == {dict} else "[]"
        if not shapes:
            return brackets, []
        nl = "\n" + " " * (level + 1)
        return (brackets[0] + nl + ("," + nl).join(
            [head + t for head, (t, _) in zip(heads, shapes)]) + nl[:-1]
            + brackets[1], [c for _, cols in shapes for c in cols])


def dumps(obj):
    return _Writer().write(obj, 0) + "\n"


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
            "sensors": [{"id": sid, "l": l, "r": r, "d": d}
                        for sid, l, r, d in inst.sensors]}


_SENSOR_FIELDS = itemgetter("id", "l", "r", "d")


def rsc_instance_from_json(doc):
    try:
        rows = _list_from_json(doc, "sensors")
        # each row's four fields in order, as a Sensor, at C speed
        sensors = list(map(tuple.__new__, repeat(Sensor),
                           map(_SENSOR_FIELDS, rows)))
        # one test of every value's type at C speed; walk the sensors again
        # only to name the first bad field
        if not set(map(type, chain.from_iterable(sensors))) <= {int}:
            for s in sensors:
                for key in ("id", "l", "r", "d"):
                    int_from_json(getattr(s, key), key)
        return RscInstance(int_from_json(doc["m"], "m"), sensors)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad scheduling instance: %s" % exc) from exc


def _assignments_to_json(start):
    return [{"id": sid, "t": t} for sid, t in sorted(start.items())]


def _assignments_from_json(doc):
    """The {id: t} start times of a schedule document's assignments, which
    name each sensor at most once."""
    start = {}
    for a in _list_from_json(doc, "assignments"):
        sid = int_from_json(a["id"], "id")
        if sid in start:
            raise InputError("sensor %d assigned twice" % sid)
        start[sid] = int_from_json(a["t"], "t")
    return start


def schedule_to_json(sched: Schedule, M=None, L=None):
    doc = {"assignments": _assignments_to_json(sched.start)}
    if M is not None:
        doc["M"] = M
    if L is not None:
        doc["L"] = L
    return doc


def schedule_from_json(doc, stop_at=None):
    try:
        return Schedule(start=_assignments_from_json(doc), stop_at=stop_at)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad schedule: %s" % exc) from exc


# -- decomposition ----------------------------------------------------------

def decomp_instance_to_json(poly, points, k):
    return {"polygon": polygon_to_json(poly),
            "points": [point_to_json(p) for p in points],
            "k": k}


def decomp_instance_from_json(doc, key="points"):
    """(polygon, points, k) of a {polygon, points, k} document, or of a
    translate document {polygon, centers, k} with key "centers"."""
    try:
        poly = polygon_from_json(doc["polygon"])
        points = [point_from_json(p) for p in _list_from_json(doc, key)]
        k = int_from_json(doc["k"], "k")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad decomposition instance: %s" % exc) from exc
    return poly, points, k


def coloring_to_json(assignment, n_points, trace=None):
    colors = [assignment.colors.get(pid) for pid in range(n_points)]
    doc = {"colors": colors, "T": assignment.T}
    if trace is not None:
        doc["trace"] = [r._asdict() for r in trace.records]
    return doc


def coloring_from_json(doc, n_points):
    """The coloring of ``doc``, whose colors list names each of the
    n_points points once."""
    try:
        colors = _list_from_json(doc, "colors")
        if len(colors) != n_points:
            raise InputError("%d colors for %d points"
                             % (len(colors), n_points))
        asg = ColorAssignment(T=int_from_json(doc["T"], "T"))
        if asg.T < 0:
            raise InputError("T must be at least 0, got %d" % asg.T)
        for pid, c in enumerate(colors):
            if c is not None:
                asg.colors[pid] = int_from_json(c, "color")
                if asg.colors[pid] < 1:
                    raise InputError("colors must be at least 1, got %d" % c)
        return asg
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad coloring: %s" % exc) from exc


def colored_points_from_json(doc):
    """(points, coloring) of a {points, colors, T} document."""
    try:
        points = [point_from_json(p) for p in _list_from_json(doc, "points")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad coloring: %s" % exc) from exc
    return points, coloring_from_json(doc, len(points))


# -- planar -----------------------------------------------------------------

def planar_instance_to_json(inst: PlanarInstance):
    return {"polygon": polygon_to_json(inst.polygon),
            "sensors": [{"id": sid, "center": point_to_json(center),
                         "d": d} for sid, center, d in inst.sensors],
            "universe": [point_to_json(u) for u in inst.universe]}


def planar_instance_from_json(doc):
    try:
        polygon = polygon_from_json(doc["polygon"])
        sensors = []
        for s in _list_from_json(doc, "sensors"):
            # integer ids, centers and durations pass one inline test; the
            # rest (rational centers, errors) go through the readers
            try:
                sid, (x, y), d = s["id"], s["center"], s["d"]
                plain = type(sid) is type(x) is type(y) is type(d) is int
            except (KeyError, TypeError, ValueError):
                plain = False
            sensors.append(PlanarSensor(sid, (x, y), d) if plain else
                           PlanarSensor(int_from_json(s["id"], "id"),
                                        point_from_json(s["center"]),
                                        int_from_json(s["d"], "d")))
        return PlanarInstance(polygon, sensors,
                              [point_from_json(u)
                               for u in _list_from_json(doc, "universe")])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad planar instance: %s" % exc) from exc


def planar_schedule_to_json(sched: PlanarSchedule):
    return {"assignments": _assignments_to_json(sched.start),
            "trivial": sched.trivial}


def planar_schedule_from_json(doc):
    if not isinstance(doc, dict):
        raise InputError("bad planar schedule: expected an object, got %s"
                         % type(doc).__name__)
    try:
        trivial = doc.get("trivial", False)
        if type(trivial) is not bool:
            raise InputError("trivial must be true or false, got %r"
                             % (trivial,))
        return PlanarSchedule(start=_assignments_from_json(doc),
                              trivial=trivial)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad planar schedule: %s" % exc) from exc


# -- level curves -----------------------------------------------------------

def curve_to_json(curve, i, r):
    f = curve.frame
    head = f.to_real(*curve.head)
    tail = f.to_real(*curve.tail)
    return {"i": i, "r": num_to_json(r),
            "chain": [point_to_json(p) for p in curve.chain_real()],
            "head": point_to_json(head), "tail": point_to_json(tail)}
