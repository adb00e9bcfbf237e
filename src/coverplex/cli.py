"""Command-line interface.

Subcommands:
  rsc solve|verify|oracle     1-D interval scheduling
  decomp points|translates|verify
                              point / translate cover decomposition
  plan solve|verify           planar sensor cover scheduling
  gen rsc|points|planar       seeded instance generators
  plot curve|coloring|schedule
                              SVG emitters

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cover, generate, jsonio, planar, rsc, svgplot, verify
from .jsonio import InputError


def _read_doc(args):
    try:
        if args.infile and args.infile != "-":
            with open(args.infile) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        return json.loads(text)
    except OSError as exc:
        raise InputError(str(exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    except ValueError as exc:  # undecodable bytes, over-long integer literal
        raise InputError("unreadable JSON: %s" % exc)


def _write(args, text):
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc):
    _write(args, jsonio.dumps(doc))


# -- rsc --------------------------------------------------------------------

def cmd_rsc_solve(args):
    inst = jsonio.rsc_instance_from_json(_read_doc(args))
    sched = rsc.greedy_schedule(inst, stop_at=args.stop_at)
    _, L = rsc.load(inst)
    _emit_json(args, jsonio.schedule_to_json(
        sched, M=rsc.duration(sched, inst), L=L))
    return 0


def cmd_rsc_verify(args):
    doc = _read_doc(args)
    try:
        inst = jsonio.rsc_instance_from_json(doc["instance"])
        sched = jsonio.schedule_from_json(doc["schedule"],
                                          stop_at=args.stop_at)
    except (KeyError, TypeError) as exc:
        raise InputError("expected {instance, schedule}: %s" % exc)
    report = verify.verify_rsc(inst, sched)
    _emit_json(args, report.to_json())
    return 0 if report.ok() else 1


def cmd_rsc_oracle(args):
    inst = jsonio.rsc_instance_from_json(_read_doc(args))
    try:
        opt = verify.rsc_opt_bruteforce(inst)
    except ValueError as exc:
        raise InputError(str(exc))
    sched = rsc.greedy_schedule(inst)
    m_val = rsc.duration(sched, inst)
    _, L = rsc.load(inst)
    ok = m_val >= math.ceil(opt / 5) and opt <= L
    _emit_json(args, {"OPT": opt, "M": m_val, "L": L, "pass": ok})
    return 0 if ok else 1


# -- decomp -----------------------------------------------------------------

def cmd_decomp_points(args):
    poly, points, k = jsonio.decomp_instance_from_json(_read_doc(args))
    try:
        asg, trace = cover.decompose_points(poly, points, k)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_json(args, jsonio.coloring_to_json(asg, len(points), trace))
    return 0


def cmd_decomp_translates(args):
    doc = _read_doc(args)
    try:
        poly = jsonio.polygon_from_json(doc["polygon"])
        centers = [jsonio.point_from_json(p) for p in doc["centers"]]
        k = jsonio.int_from_json(doc["k"], "k")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("expected {polygon, centers, k}: %s" % exc)
    try:
        classes, info = cover.decompose_translates(poly, centers, k)
    except ValueError as exc:
        raise InputError(str(exc))

    def clean(v):
        if isinstance(v, dict):
            return {str(key): clean(val) for key, val in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        return v

    _emit_json(args, {"classes": classes, "T": info.get("T", 0),
                      "trivial": info["trivial"], "info": clean(info)})
    return 0


def cmd_decomp_verify(args):
    doc = _read_doc(args)
    try:
        poly = jsonio.polygon_from_json(doc["polygon"])
        points = [jsonio.point_from_json(p) for p in doc["points"]]
        k = jsonio.int_from_json(doc["k"], "k")
        asg = jsonio.coloring_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("expected {polygon, points, k, colors, T}: %s" % exc)
    try:
        report = verify.verify_coloring(poly, points, asg, k)
    except ValueError as exc:  # level not positive or above the total load
        raise InputError(str(exc))
    _emit_json(args, report.to_json())
    return 0 if report.ok() else 1


# -- plan -------------------------------------------------------------------

def cmd_plan_solve(args):
    inst = jsonio.planar_instance_from_json(_read_doc(args))
    sched = planar.plan_schedule(inst)
    _emit_json(args, jsonio.planar_schedule_to_json(sched))
    return 0


def cmd_plan_verify(args):
    doc = _read_doc(args)
    try:
        inst = jsonio.planar_instance_from_json(doc["instance"])
        sched = jsonio.planar_schedule_from_json(doc["schedule"])
    except (KeyError, TypeError) as exc:
        raise InputError("expected {instance, schedule}: %s" % exc)
    report = planar.verify_planar(inst, sched)
    _emit_json(args, report.to_json() | {"M_achieved":
                                         report.stats["M_achieved"],
                                         "L": report.stats["L"]})
    return 0 if report.ok() else 1


# -- gen --------------------------------------------------------------------

def cmd_gen_rsc(args):
    inst = generate.gen_rsc(args.seed, n=args.n, m=args.m,
                            d_max=args.d_max, family=args.family)
    _emit_json(args, jsonio.rsc_instance_to_json(inst))
    return 0


def cmd_gen_points(args):
    points = generate.gen_points(args.seed, size=args.size, span=args.span)
    poly = generate.polygon(args.poly)
    _emit_json(args, jsonio.decomp_instance_to_json(poly, points, args.k))
    return 0


def cmd_gen_planar(args):
    inst = generate.gen_planar(args.seed, poly_name=args.poly,
                               n_sensors=args.n, d_max=args.d_max,
                               spread=args.spread,
                               universe_size=args.universe)
    _emit_json(args, jsonio.planar_instance_to_json(inst))
    return 0


# -- plot -------------------------------------------------------------------

def cmd_plot_curve(args):
    doc = _read_doc(args)
    poly, points, k = jsonio.decomp_instance_from_json(doc)
    r = jsonio.int_from_json(doc.get("r", k), "r")
    i = jsonio.int_from_json(doc.get("i", 0), "i")
    try:
        if args.format == "json":
            from .levelcurve import WedgeFrame, LevelCurve
            frame = WedgeFrame(poly, i)
            curve = LevelCurve(frame, r, frame.items(points))
            _emit_json(args, jsonio.curve_to_json(curve, i, r))
        else:
            _write(args, svgplot.svg_curve(poly, i, points, r))
    except ValueError as exc:  # level not positive or above the total load
        raise InputError(str(exc))
    return 0


def cmd_plot_coloring(args):
    doc = _read_doc(args)
    try:
        points = [jsonio.point_from_json(p) for p in doc["points"]]
        asg = jsonio.coloring_from_json(doc)
    except (KeyError, TypeError) as exc:
        raise InputError("expected {points, colors, T}: %s" % exc)
    _write(args, svgplot.svg_coloring(points, asg))
    return 0


def cmd_plot_schedule(args):
    doc = _read_doc(args)
    try:
        inst = jsonio.rsc_instance_from_json(doc["instance"])
        sched = jsonio.schedule_from_json(doc["schedule"])
    except (KeyError, TypeError) as exc:
        raise InputError("expected {instance, schedule}: %s" % exc)
    _write(args, svgplot.svg_schedule(inst, sched))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="coverplex", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", default="-",
                       help="input JSON path (default: stdin)")
        p.add_argument("--out", default="-",
                       help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stop-at", dest="stop_at", type=int, default=None)
        p.add_argument("--format", choices=["json", "svg"], default=None)

    table = {
        "rsc": {"solve": cmd_rsc_solve, "verify": cmd_rsc_verify,
                "oracle": cmd_rsc_oracle},
        "decomp": {"points": cmd_decomp_points,
                   "translates": cmd_decomp_translates,
                   "verify": cmd_decomp_verify},
        "plan": {"solve": cmd_plan_solve, "verify": cmd_plan_verify},
        "gen": {"rsc": cmd_gen_rsc, "points": cmd_gen_points,
                "planar": cmd_gen_planar},
        "plot": {"curve": cmd_plot_curve, "coloring": cmd_plot_coloring,
                 "schedule": cmd_plot_schedule},
    }
    for group, cmds in table.items():
        gp = sub.add_parser(group)
        gsub = gp.add_subparsers(dest="command", required=True)
        for name, fn in cmds.items():
            p = gsub.add_parser(name)
            common(p)
            p.set_defaults(fn=fn)
            if group == "gen" and name == "rsc":
                p.add_argument("--n", type=int, default=20)
                p.add_argument("--m", type=int, default=20)
                p.add_argument("--d-max", dest="d_max", type=int, default=5)
                p.add_argument("--family", default="uniform",
                               choices=["uniform", "nested"])
            if group == "gen" and name == "points":
                p.add_argument("--size", type=int, default=200)
                p.add_argument("--span", type=int, default=80)
                p.add_argument("--k", type=int, default=100)
                p.add_argument("--poly", default="triangle",
                               choices=sorted(generate.POLYGONS))
            if group == "gen" and name == "planar":
                p.add_argument("--n", type=int, default=60)
                p.add_argument("--d-max", dest="d_max", type=int, default=4)
                p.add_argument("--spread", type=int, default=2)
                p.add_argument("--universe", type=int, default=5)
                p.add_argument("--poly", default="triangle",
                               choices=sorted(generate.POLYGONS))
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.format is None:
        args.format = "svg" if args.group == "plot" else "json"
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
