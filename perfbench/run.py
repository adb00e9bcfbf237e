"""Benchmark of the coverplex command line, end to end and layer by layer.

    python3 perfbench/run.py [--seed N] [--seconds S]
        Every workload, each in its own process: a timed run (--trace 0),
        then a traced run (--trace 1).  Prints every end-to-end metric of
        each workload with its unit, then the per-layer metrics, and exits
        non-zero if any instance failed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload in this process.  The last line of standard output is
        one JSON object {"correct", "attempted", "failed", "metrics"}; the
        metrics are the end-to-end ones with --trace 0 and the per-layer
        ones with --trace 1.  The line before it, starting with "report ",
        holds every figure of the run and the environment it ran in.

Each instance is a closed loop with one caller: ``coverplex.cli.main`` runs
the solve subcommand, then the matching verify subcommand on its output,
with --in/--out files, and the next instance starts after the verify
returns.  Each cli.main call stands for one CLI invocation, so state that
the program keeps across calls inside this process is not a per-invocation
gain.  COVERPLEX_THREADS is removed from the environment, so the CLI sizes
its thread pool from os.cpu_count() as a default run does.

Every time is given in reference seconds: the wall time scaled by how fast
the host ran at that moment.  The speed of a shared host swings by up to
2x within seconds, and by as much for minutes at a time, so raw wall times
of the same code differ more between runs than any change worth measuring.
Around each timed call the benchmark runs a fixed stdlib calibration loop
(integer arithmetic, JSON and small-object work, as in coverplex).  The
call's wall time, times REFERENCE_CALIBRATION_S over the mean of the
calibrations just before and just after it, is the time the call would
have taken on a host that runs the loop in REFERENCE_CALIBRATION_S.  The
calibration is outside the timed region and outside the program.  The raw
wall times are kept in the report line ("wall" and "calibration_s").  The
per-layer times of a traced run are span wall times scaled by the traced
pass's overall ratio of reference to wall seconds.

Set-up imports coverplex afresh and generates and writes the quality-set
instances; it is repeated at least SETUP_REPEATS times and for at least
SETUP_SECONDS, and setup_s is the median.  The timed pass then runs for
--seconds, and always at least the quality set; later instances are
generated inside the loop, outside the solve and verify timings.  With
--trace 1 the timed pass gets half of --seconds and a traced pass replays
the same instances with spans recorded; each instance's quality must be
the same in both passes.

The package is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with code 2.  Instances and outputs are
written under .perfbench_work/ in the checkout and removed at the end; a
traced run leaves its spans there as .perfbench_work/spans-NAME-SEED.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import types
from pathlib import Path

from tracer import ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5         # at least this many set-ups, and
SETUP_SECONDS = 1.0       # until they have taken this long together
MODULES = ("cli", "cover", "generate", "geometry", "jsonio", "levelcurve",
           "planar", "rsc", "verify")
TAIL_SAMPLES = 10
CALIBRATION_REPS = 3      # a calibration is the median of this many loops
# The loop's time on an unloaded 2-core x86-64 host (Python 3.11), so that
# reference seconds read close to wall seconds there.
REFERENCE_CALIBRATION_S = 0.0013


# -- host speed -------------------------------------------------------------

class _Item:
    __slots__ = ("key", "group", "pair")

    def __init__(self, key, group, pair):
        self.key, self.group, self.pair = key, group, pair


_CAL_POINTS = [((i * 7919) % 1999 - 999, (i * 104729) % 1999 - 999)
               for i in range(600)]
_CAL_JSON = json.dumps({"sensors": [
    {"id": i, "x": i * 7 % 101, "d": [i % 5, i % 11, i % 13]}
    for i in range(150)]})


def calibration_loop():
    """Fixed stdlib work of the kinds coverplex does, independent of it:
    integer cross products and a sort of points, a JSON decode and encode,
    and building, sorting and grouping small objects.  Returns its wall
    time."""
    t0 = time.perf_counter()
    acc = 0
    for (x1, y1), (x2, y2) in zip(_CAL_POINTS, _CAL_POINTS[1:]):
        acc += x1 * y2 - x2 * y1
        if (x1 - x2) * (y1 + y2) > acc:
            acc -= 1
    sorted(_CAL_POINTS, key=lambda p: (p[1], -p[0]))
    json.dumps(json.loads(_CAL_JSON))
    items = [_Item(i, i * 31 % 97, (i, i + 1)) for i in range(1500)]
    items.sort(key=lambda it: it.group)
    groups = {}
    for it in items:
        groups.setdefault(it.group, []).append(it.pair)
    return time.perf_counter() - t0


def calibrate():
    """Median of CALIBRATION_REPS loops, with the cyclic garbage collector
    off so that the loop's time does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(calibration_loop()
                                 for _ in range(CALIBRATION_REPS))
    finally:
        if enabled:
            gc.enable()


def to_reference(wall, before, after):
    """Wall seconds measured between two calibrations, in reference
    seconds."""
    return wall * REFERENCE_CALIBRATION_S / ((before + after) / 2)


# -- statistics -------------------------------------------------------------

def percentile(values, pct):
    """Linear interpolation between closest ranks (the median at 50)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_SAMPLES samples above
    it; the median when there are too few samples for any higher one."""
    for pct in range(99, 50, -1):
        if n - 1 - math.floor((n - 1) * pct / 100) >= TAIL_SAMPLES:
            return pct
    return 50


# -- environment ------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    """What a result depends on besides the code.  Removes COVERPLEX_THREADS
    so that the CLI sizes its pool from os.cpu_count()."""
    threads = os.environ.pop("COVERPLEX_THREADS", None)
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(), "seed": seed,
            "COVERPLEX_THREADS": "unset" if threads is None
            else "unset (removed %r)" % threads}


def import_coverplex():
    """Import every coverplex module afresh from SRC."""
    for name in [m for m in sys.modules
                 if m == "coverplex" or m.startswith("coverplex.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module("coverplex." + m) for m in MODULES})


# -- one pass ---------------------------------------------------------------

class Pass:
    """Per-instance timings and quality of one pass over the instances.
    solve_s and verify_s are in reference seconds, the *_wall_s lists in
    wall seconds."""

    def __init__(self):
        self.solve_s = []
        self.verify_s = []
        self.solve_wall_s = []
        self.verify_wall_s = []
        self.calibration_s = []
        self.quality = []       # None for a failed instance
        self.failed = 0

    @property
    def attempted(self):
        return len(self.quality)

    def total_s(self):
        """Reference seconds spent in solve and verify calls."""
        return sum(self.solve_s) + sum(self.verify_s)


def write_instance(cp, wl, seed, params, path):
    path.write_text(cp.jsonio.dumps(wl.make(cp, seed, **params)))


def invoke(cp, argv, tracer):
    """One CLI invocation; returns (exit code or None, wall seconds)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cp.cli.main(argv)
        else:
            rc = tracer.call(ROOT_SPAN, cp.cli.main, (argv,), {})
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


def run_instance(cp, wl, work, j, tracer, result):
    inp = str(work / ("in-%d.json" % j))
    tag = "traced" if tracer else "timed"
    out, vin, vout = (str(work / ("%s-%s-%d.json" % (kind, tag, j)))
                      for kind in ("out", "vin", "vout"))
    c0 = calibrate()
    rc, solve_s = invoke(cp, [*wl.solve, "--in", inp, "--out", out], tracer)
    c1 = calibrate()
    try:
        if rc != 0:
            raise ValueError("solve exited with %r" % rc)
        doc = wl.verify_doc(json.loads(Path(inp).read_text()),
                            json.loads(Path(out).read_text()))
        Path(vin).write_text(json.dumps(doc))
        rc, verify_s = invoke(cp, [*wl.verify, "--in", vin, "--out", vout],
                              tracer)
        c2 = calibrate()
        if rc != 0:
            raise ValueError("verify exited with %r" % rc)
        quality = wl.quality(json.loads(Path(vout).read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("instance %d of %s failed: %s" % (j, wl.name, exc),
              file=sys.stderr)
        result.failed += 1
        result.quality.append(None)
        return
    result.solve_s.append(to_reference(solve_s, c0, c1))
    result.verify_s.append(to_reference(verify_s, c1, c2))
    result.solve_wall_s.append(solve_s)
    result.verify_wall_s.append(verify_s)
    result.calibration_s += [c0, c1, c2]
    result.quality.append(quality)


def run_pass(cp, wl, work, seed, params, seconds, count=None, tracer=None):
    """Run instances until ``seconds`` have passed (and the quality set is
    done), or exactly ``count`` instances when it is given."""
    result = Pass()
    start = time.perf_counter()
    j = 0
    while (j < count if count is not None else
           j < wl.quality_set or time.perf_counter() - start < seconds):
        path = work / ("in-%d.json" % j)
        if not path.exists():
            write_instance(cp, wl, seed + j, params, path)
        # Each instance starts on a collected heap, as a fresh CLI process
        # would, so that garbage left by the previous one neither adds to
        # peak_rss_mb nor is collected inside a timed call.
        gc.collect()
        run_instance(cp, wl, work, j, tracer, result)
        j += 1
    return result


# -- one workload -----------------------------------------------------------

def timing_metrics(name, values):
    if not values:
        return {name + ".p50": 0.0, name + ".tail": 0.0}, 50
    pct = tail_percentile(len(values))
    return ({name + ".p50": statistics.median(values),
             name + ".tail": percentile(values, pct)}, pct)


def run_workload(name, seed, seconds, trace, tiny=False):
    """Set up, run the timed pass and, with ``trace``, the traced pass.
    Returns (report dict, Tracer or None)."""
    wl = WORKLOADS[name]
    params = wl.tiny if tiny else wl.full
    env = environment(seed)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORK))
    tracer = None
    try:
        setup = []
        setup_wall = []
        while len(setup) < SETUP_REPEATS or sum(setup_wall) < SETUP_SECONDS:
            c0 = calibrate()
            t0 = time.perf_counter()
            cp = import_coverplex()
            for j in range(wl.quality_set):
                write_instance(cp, wl, seed + j, params,
                               work / ("in-%d.json" % j))
            setup_wall.append(time.perf_counter() - t0)
            setup.append(to_reference(setup_wall[-1], c0, calibrate()))
        gc.collect()

        timed = run_pass(cp, wl, work, seed, params,
                         seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        qset = range(wl.quality_set)
        baseline = None
        if not trace:
            baseline = min(
                wl.baseline(cp, json.loads(
                    (work / ("in-%d.json" % j)).read_text()))
                for j in qset)
        traced = None
        if trace:
            tracer = Tracer()
            restore = tracer.install(cp)
            try:
                traced = run_pass(cp, wl, work, seed, params, 0,
                                  count=timed.attempted, tracer=tracer)
            finally:
                restore()
            spans_file = WORK / ("spans-%s-%d.jsonl" % (name, seed))
            tracer.write(spans_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    passes = [timed] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    solve, solve_pct = timing_metrics("solve_s", timed.solve_s)
    verify, verify_pct = timing_metrics("verify_s", timed.verify_s)
    wall = {**timing_metrics("solve_s", timed.solve_wall_s)[0],
            **timing_metrics("verify_s", timed.verify_wall_s)[0],
            "setup_s": statistics.median(setup_wall)}
    qualities = [timed.quality[j] for j in qset]
    end_to_end = {
        **solve, **verify,
        "instances_per_s": (len(timed.solve_s) / timed.total_s()
                            if timed.total_s() else 0.0),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
        "failed_frac": failed / attempted,
        "quality": (0.0 if None in qualities else min(qualities)),
    }
    problems = []
    if failed:
        problems.append("%d of %d instances failed" % (failed, attempted))
    report = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "env": env, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end,
        "samples": len(timed.solve_s),
        "tail_pct": {"solve_s": solve_pct, "verify_s": verify_pct},
        "quality_set": wl.quality_set, "baseline_quality": baseline,
        "setup_runs_s": setup,
        "wall": wall,
        "calibration_s": {
            "reference": REFERENCE_CALIBRATION_S,
            "median": (statistics.median(timed.calibration_s)
                       if timed.calibration_s else None)},
    }
    if traced is not None:
        if traced.quality != timed.quality:
            problems.append("quality differs between the timed and the "
                            "traced pass")
        layers = tracer.layer_metrics(traced.attempted)
        # Span times are wall seconds; scale them by the traced pass's
        # overall ratio of reference to wall seconds.
        traced_wall = sum(traced.solve_wall_s) + sum(traced.verify_wall_s)
        scale = traced.total_s() / traced_wall if traced_wall else 1.0
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in layers.items()}
        layers["trace.overhead_frac"] = (
            traced.total_s() / timed.total_s() - 1
            if timed.total_s() else 0.0)
        layers["trace.accounted_frac"] = tracer.main_thread_accounted(
            threading.get_ident())
        report["per_layer"] = layers
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    report["problems"] = problems
    report["correct"] = not problems
    return report, tracer


# -- output -----------------------------------------------------------------

UNITS = {"solve_s.p50": "s", "solve_s.tail": "s", "verify_s.p50": "s",
         "verify_s.tail": "s", "instances_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s", "failed_frac": "ratio",
         "quality": "ratio"}
# Reported and checked through "correct", but left out of the result line's
# metrics: failed_frac is 0 on a correct run, and quality is fixed by the
# seed rather than measured.
UNGATED = ("failed_frac", "quality")


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith("jsonio.bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def result_line(report):
    if report["trace"]:
        values = report["per_layer"]
    else:
        values = {k: v for k, v in report["end_to_end"].items()
                  if k not in UNGATED}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in values.items()}}


def print_metrics(values, note=None):
    for name, value in values.items():
        extra = note(name) if note else ""
        print("  %-42s %14.6g %-6s%s" % (name, value, unit(name), extra))


def e2e_note(report):
    def note(name):
        kind = name.split(".")[0]
        if name.endswith(".tail"):
            return "  p%d of %d samples" % (report["tail_pct"][kind],
                                           report["samples"])
        if name == "quality" and report["baseline_quality"] is not None:
            return "  trivial baseline %.6g" % report["baseline_quality"]
        return ""
    return note


def run_one(args):
    report, _ = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    print("workload %s seed %d trace %d: %d instances"
          % (args.workload, args.seed, args.trace, report["attempted"]))
    print_metrics(report["end_to_end"], e2e_note(report))
    if args.trace:
        print_metrics(report["per_layer"])
    for problem in report["problems"]:
        print("FAILED: " + problem)
    print("report " + json.dumps(report))
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1


def run_all(args):
    """Each workload in its own process, timed and then traced."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            reports = [line[len("report "):] for line in
                       proc.stdout.splitlines() if line.startswith("report ")]
            if proc.returncode != 0 or not reports:
                status = 1
                print("%s --trace %d exited with %d" % (name, trace,
                                                       proc.returncode))
                if not reports:
                    continue
            report = json.loads(reports[-1])
            entry = summary.setdefault(name, {"correct": True})
            entry["correct"] = entry["correct"] and report["correct"]
            if trace:
                entry["per_layer"] = report["per_layer"]
                continue
            entry["env"] = report["env"]
            entry["end_to_end"] = report["end_to_end"]
            print("%s (seed %d, %d instances, cpu_count %d, python %s, "
                  "commit %s, COVERPLEX_THREADS %s)"
                  % (name, args.seed, report["attempted"],
                     report["env"]["cpu_count"], report["env"]["python"],
                     report["env"]["commit"],
                     report["env"]["COVERPLEX_THREADS"]))
            print_metrics(report["end_to_end"], e2e_note(report))
    for name, entry in summary.items():
        if "per_layer" in entry:
            print("%s per layer (traced run, per instance)" % name)
            print_metrics(entry["per_layer"])
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload in this process "
                         "(default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coverplex" / "cli.py").is_file():
        print("error: %s/coverplex not found; run from a coverplex checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
