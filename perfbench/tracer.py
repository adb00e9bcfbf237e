"""In-memory span recorder for the traced pass, and the per-layer metrics
derived from it.

Layer entry points are wrapped from outside the program: each binding in
``BINDINGS`` replaces one name in the module that *calls* it, because the
modules import each other with ``from .x import y``.  A span records its
name, parent, thread, wall interval and thread CPU time.  Self time is a
span's wall time minus that of its direct children on the same thread, so
spans of pool workers never subtract from the span that submitted them.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

ROOT = "cli.main"           # one span per cli.main call, opened by the runner
POOL_CELL = "planar.cell"   # one span per plan_schedule cell on a pool worker


def _bytes_in(tr, args, result):
    if args[0].infile != "-":
        tr.count("jsonio.bytes_in", os.path.getsize(args[0].infile))


def _bytes_out(tr, args, result):
    if args[0].out != "-":
        tr.count("jsonio.bytes_out", os.path.getsize(args[0].out))


def _positions(tr, args, result):
    tr.count("levelcurve.positions", len(result))


def _cells(tr, args, result):
    tr.count("planar.cells", len(result))


def _kept(tr, args, result):
    tr.count("cover.reserved_filter.kept", len(result))
    tr.count("cover.reserved_filter.live", len(args[4]))


def _colored(tr, args, result):
    tr.count("cover.compute_cover.colored", len(result))
    tr.count("cover.compute_cover.candidates", len(args[1]))


def _assigned(tr, args, result):
    tr.count("rsc.greedy_schedule.assigned", len(result.start))
    tr.count("rsc.greedy_schedule.sensors", len(args[0].sensors))


_JSON_READERS = ("point_from_json", "polygon_from_json",
                 "rsc_instance_from_json", "schedule_from_json",
                 "decomp_instance_from_json", "coloring_from_json",
                 "planar_instance_from_json", "planar_schedule_from_json")

# (calling module, bound name, span name, counter hook run on the result)
BINDINGS = [
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "_read_doc", "cli.read_json", _bytes_in),
    ("cli", "_emit_json", "jsonio.emit", _bytes_out),
    *[("jsonio", name, "jsonio.from_json", None) for name in _JSON_READERS],
    ("planar", "planar_load", "planar.planar_load", None),
    ("planar", "cell_partition", "geometry.cell_partition", _cells),
    ("cover", "cell_partition", "geometry.cell_partition", None),
    ("planar", "LevelCurve", "levelcurve.LevelCurve", None),
    ("cover", "LevelCurve", "levelcurve.LevelCurve", None),
    ("verify", "LevelCurve", "levelcurve.LevelCurve", None),
    ("planar", "min_load_on_curve", "levelcurve.min_load_on_curve", None),
    ("cover", "min_load_on_curve", "levelcurve.min_load_on_curve", None),
    ("planar", "position_index_ranges", "levelcurve.position_index_ranges",
     None),
    ("cover", "position_index_ranges", "levelcurve.position_index_ranges",
     None),
    ("levelcurve", "canonical_positions", "levelcurve.canonical_positions",
     _positions),
    ("verify", "canonical_positions", "levelcurve.canonical_positions",
     _positions),
    ("planar", "_reserved_filter", "cover.reserved_filter", _kept),
    ("cover", "_reserved_filter", "cover.reserved_filter", _kept),
    ("cover", "compute_cover", "cover.compute_cover", _colored),
    ("cover", "decompose_points", "cover.decompose_points", None),
    ("rsc", "greedy_schedule", "rsc.greedy_schedule", _assigned),
    ("planar", "greedy_schedule", "rsc.greedy_schedule", _assigned),
    ("rsc", "duration", "rsc.duration", None),
    ("rsc", "load", "rsc.load", None),
    ("planar", "plan_schedule", "planar.plan_schedule", None),
    ("planar", "curve_rsc_instance", "planar.curve_rsc_instance", None),
    ("verify", "verify_rsc", "verify.verify_rsc", None),
    ("verify", "verify_coloring", "verify.verify_coloring", None),
    ("planar", "verify_planar", "planar.verify_planar", None),
]

SPAN_NAMES = [ROOT, *dict.fromkeys(b[2] for b in BINDINGS), POOL_CELL]
COUNTERS = ["jsonio.bytes_in", "jsonio.bytes_out", "geometry.contains.calls",
            "levelcurve.positions", "planar.cells"]
# ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "cover.reserved_filter.keep_ratio":
        ("cover.reserved_filter.kept", "cover.reserved_filter.live"),
    "cover.compute_cover.colored_ratio":
        ("cover.compute_cover.colored", "cover.compute_cover.candidates"),
    "rsc.greedy_schedule.assigned_ratio":
        ("rsc.greedy_schedule.assigned", "rsc.greedy_schedule.sensors"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    cpu: float          # thread CPU seconds spent inside the span


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = Counter()
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def current(self):
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def count(self, name, k=1):
        self._state().counts[name] += k

    def counts(self):
        with self._lock:
            return sum(self._thread_counts, Counter())

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn inside a span.  A call nested directly in a span of the
        same name (jsonio readers calling each other) joins that span."""
        stack = self._state().stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append(Span(sid, name, parent, threading.get_ident(),
                                   t0, t1, c1 - c0))

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def install(self, cp):
        """Patch every binding of the freshly imported modules in ``cp``;
        returns a function that restores the originals."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module, attr, name, hook in BINDINGS:
            owner = getattr(cp, module)
            patch(owner, attr, self.wrap(name, getattr(owner, attr), hook))

        polygon_cls = cp.geometry.ConvexPolygon
        contains = polygon_cls.contains

        def counted_contains(poly, *args, **kwargs):
            self.count("geometry.contains.calls")
            return contains(poly, *args, **kwargs)

        patch(polygon_cls, "contains", counted_contains)
        patch(cp.planar, "ThreadPoolExecutor",
              _traced_pool(self, cp.planar.ThreadPoolExecutor))

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return restore

    def self_times(self):
        """(span, self seconds) for every span; children on other threads
        are not subtracted."""
        by_id = {s.id: s for s in self.spans}
        child = defaultdict(float)
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                child[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child[s.id]) for s in self.spans]

    def write(self, path):
        """One JSON object per span, with its self time, in end order."""
        with open(path, "w") as fh:
            for span, own in self.self_times():
                fh.write(json.dumps(dict(vars(span), self=own)) + "\n")

    def layer_metrics(self, instances):
        """Per-instance self time and call count of every span name, the
        counters, the ratios and the pool's waiting time."""
        self_s = Counter()
        calls = Counter()
        wait = 0.0
        for span, own in self.self_times():
            self_s[span.name] += own
            calls[span.name] += 1
            if span.name == POOL_CELL:
                wait += span.end - span.start - span.cpu
        counts = self.counts()
        out = {}
        for name in SPAN_NAMES:
            out[name + ".self_s"] = self_s[name] / instances
            out[name + ".calls"] = calls[name] / instances
        for name in COUNTERS:
            out[name] = counts[name] / instances
        for name, (num, den) in RATIOS.items():
            out[name] = counts[num] / counts[den] if counts[den] else 0.0
        out["planar.pool.wait_s"] = wait / instances
        return out

    def main_thread_accounted(self, thread):
        """Share of the root spans' wall time on ``thread`` covered by
        self time of the layer spans below them."""
        root_wall = root_self = 0.0
        for span, own in self.self_times():
            if span.name == ROOT and span.thread == thread:
                root_wall += span.end - span.start
                root_self += own
        return 1.0 - root_self / root_wall if root_wall else 0.0


def _traced_pool(tracer, base):
    """ThreadPoolExecutor whose map runs each task in a span parented by the
    span that called map."""
    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def cell(*args):
                return tracer.call(POOL_CELL, fn, args, {}, parent=parent)
            return super().map(cell, *iterables, **kwargs)
    return TracedPool
