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
from .levelcurve import build_level_curve


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


def _plot(args, draw, *data):
    """Write the SVG draw(*data), whose numbers must fit in a float."""
    try:
        _write(args, draw(*data))
    except OverflowError as exc:
        raise InputError("too large to plot: %s" % exc)


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
    _emit_json(args, {"classes": classes, "T": info.get("T", 0),
                      "trivial": info["trivial"], "info": info})
    return 0


def _coloring_of(doc, points):
    """The coloring of ``doc``, whose colors list names each point once."""
    if len(doc["colors"]) != len(points):
        raise InputError("%d colors for %d points"
                         % (len(doc["colors"]), len(points)))
    return jsonio.coloring_from_json(doc)


def cmd_decomp_verify(args):
    doc = _read_doc(args)
    try:
        poly = jsonio.polygon_from_json(doc["polygon"])
        points = [jsonio.point_from_json(p) for p in doc["points"]]
        k = jsonio.int_from_json(doc["k"], "k")
        asg = _coloring_of(doc, points)
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

def _at_least(args, **least):
    """Reject the first flag whose value is below its least value."""
    for dest, low in least.items():
        if (value := getattr(args, dest)) < low:
            raise InputError("--%s must be at least %d, got %d"
                             % (dest.replace("_", "-"), low, value))


def cmd_gen_rsc(args):
    _at_least(args, n=0, m=1, d_max=1)
    inst = generate.gen_rsc(args.seed, n=args.n, m=args.m,
                            d_max=args.d_max, family=args.family)
    _emit_json(args, jsonio.rsc_instance_to_json(inst))
    return 0


def cmd_gen_points(args):
    _at_least(args, size=0, span=0, k=1)
    points = generate.gen_points(args.seed, size=args.size, span=args.span)
    poly = generate.polygon(args.poly)
    _emit_json(args, jsonio.decomp_instance_to_json(poly, points, args.k))
    return 0


def cmd_gen_planar(args):
    _at_least(args, n=0, d_max=1, spread=0, universe=0)
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
    if not 0 <= i < poly.n:
        raise InputError("i must be a vertex index 0..%d, got %d"
                         % (poly.n - 1, i))
    try:
        curve = build_level_curve(poly, i, points, r)
    except ValueError as exc:  # level not positive or above the total load
        raise InputError(str(exc))
    if args.format == "json":
        _emit_json(args, jsonio.curve_to_json(curve, i, r))
    else:
        _plot(args, svgplot.svg_curve, curve, points)
    return 0


def cmd_plot_coloring(args):
    doc = _read_doc(args)
    try:
        points = [jsonio.point_from_json(p) for p in doc["points"]]
        asg = _coloring_of(doc, points)
    except (KeyError, TypeError) as exc:
        raise InputError("expected {points, colors, T}: %s" % exc)
    _plot(args, svgplot.svg_coloring, points, asg)
    return 0


def cmd_plot_schedule(args):
    doc = _read_doc(args)
    try:
        inst = jsonio.rsc_instance_from_json(doc["instance"])
        sched = jsonio.schedule_from_json(doc["schedule"])
    except (KeyError, TypeError) as exc:
        raise InputError("expected {instance, schedule}: %s" % exc)
    _plot(args, svgplot.svg_schedule, inst, sched)
    return 0


def _flag(*names, **kwargs):
    return names, kwargs


_IN = _flag("--in", dest="infile", default="-",
            help="input JSON path (default: stdin)")
_OUT = _flag("--out", default="-", help="output path (default: stdout)")
_SEED = _flag("--seed", type=int, default=0)
_STOP_AT = _flag("--stop-at", dest="stop_at", type=int, default=None)
_POLY = _flag("--poly", default="triangle", choices=sorted(generate.POLYGONS))

# group -> command -> (handler, the flags it reads, in declaration order):
# --out on all, --in on those that read a document, --seed on the generators
COMMANDS = {
    "rsc": {
        "solve": (cmd_rsc_solve, [_IN, _OUT, _STOP_AT]),
        "verify": (cmd_rsc_verify, [_IN, _OUT, _STOP_AT]),
        "oracle": (cmd_rsc_oracle, [_IN, _OUT]),
    },
    "decomp": {
        "points": (cmd_decomp_points, [_IN, _OUT]),
        "translates": (cmd_decomp_translates, [_IN, _OUT]),
        "verify": (cmd_decomp_verify, [_IN, _OUT]),
    },
    "plan": {
        "solve": (cmd_plan_solve, [_IN, _OUT]),
        "verify": (cmd_plan_verify, [_IN, _OUT]),
    },
    "gen": {
        "rsc": (cmd_gen_rsc, [
            _SEED, _OUT, _flag("--n", type=int, default=20),
            _flag("--m", type=int, default=20),
            _flag("--d-max", dest="d_max", type=int, default=5),
            _flag("--family", default="uniform",
                  choices=["uniform", "nested"])]),
        "points": (cmd_gen_points, [
            _SEED, _OUT, _flag("--size", type=int, default=200),
            _flag("--span", type=int, default=80),
            _flag("--k", type=int, default=100), _POLY]),
        "planar": (cmd_gen_planar, [
            _SEED, _OUT, _flag("--n", type=int, default=60),
            _flag("--d-max", dest="d_max", type=int, default=4),
            _flag("--spread", type=int, default=2),
            _flag("--universe", type=int, default=5), _POLY]),
    },
    "plot": {
        "curve": (cmd_plot_curve, [
            _IN, _OUT,
            _flag("--format", choices=["json", "svg"], default="svg")]),
        "coloring": (cmd_plot_coloring, [_IN, _OUT]),
        "schedule": (cmd_plot_schedule, [_IN, _OUT]),
    },
}


def _declare(parser, fn, flags):
    parser.set_defaults(fn=fn)
    for names, kwargs in flags:
        parser.add_argument(*names, **kwargs)
    return parser


def build_parser():
    """The whole command line: one sub-parser per COMMANDS entry."""
    ap = argparse.ArgumentParser(prog="coverplex", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        grp = sub.add_parser(group).add_subparsers(dest="command",
                                                  required=True)
        for name, (fn, flags) in commands.items():
            _declare(grp.add_parser(name), fn, flags)
    return ap


class _OneCommandParser(argparse.ArgumentParser):
    """Raises on every error, also those argparse reports through error()
    rather than ArgumentError (an ambiguous abbreviation), so that main
    can hand the command line to the whole parser."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _one_command_args(argv):
    """Arguments from the parser of the one subcommand that argv[:2]
    names, or None when it has none or that parser does not accept the
    rest whole: an error, a leftover argument, or -h, which it does not
    declare."""
    entry = COMMANDS.get(argv[0], {}).get(argv[1]) if len(argv) > 1 else None
    if entry is None:
        return None
    parser = _declare(_OneCommandParser(prog="coverplex %s %s" % (
        argv[0], argv[1]), add_help=False, exit_on_error=False), *entry)
    try:
        args, rest = parser.parse_known_args(argv[2:])
    except argparse.ArgumentError:
        return None
    return None if rest else args


def _parse_args(argv):
    """The parsed command line.  A valid one is parsed by its subcommand's
    parser alone; anything else by the whole parser, which prints the
    help, usage and error text."""
    return _one_command_args(argv) or build_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
