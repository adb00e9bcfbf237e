"""Self-contained SVG emitters for curves, colorings, and schedules.

Output is plain string assembly with fixed number formatting; the same input
always yields identical bytes.  No external assets are referenced.
"""

from __future__ import annotations

_PALETTE = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
            "#a65628", "#f781bf", "#17becf", "#bcbd22", "#8c564b"]


def _fmt(x):
    return "%.3f" % float(x)


def _header(x0, y0, w, h, scale=24):
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="%s %s %s %s" width="%d" height="%d">\n'
            % (_fmt(x0), _fmt(y0), _fmt(w), _fmt(h),
               int(w * scale), int(h * scale)))


def _flip(pts):
    """Mirror y so larger y is drawn higher (SVG y runs downward)."""
    return [(x, -y) for (x, y) in pts]


def svg_curve(curve, points):
    """Points plus the level curve's staircase, rays dashed."""
    chain = _flip([(float(x), float(y)) for (x, y) in curve.chain_real()])
    dots = _flip([(float(x), float(y)) for (x, y) in points])
    d1, d2 = curve.frame.poly.cone_dirs(curve.frame.i)

    def ray(origin, direction, length=6.0):
        nx, ny = float(direction[0]), float(direction[1])
        norm = max((nx * nx + ny * ny) ** 0.5, 1e-9)
        return (origin[0] - length * nx / norm,
                origin[1] + length * ny / norm)

    xs = [p[0] for p in chain + dots]
    ys = [p[1] for p in chain + dots]
    pad = 2.0
    out = [_header(min(xs) - pad, min(ys) - pad,
                   max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)]
    path = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for (x, y) in chain)
    out.append('<polyline points="%s" fill="none" stroke="#000" '
               'stroke-width="0.08"/>\n' % path)
    # head ray runs along the first cone direction, tail ray along the second
    hx, hy = chain[0]
    tx, ty = chain[-1]
    he = ray((hx, hy), d1)
    te = ray((tx, ty), d2)
    for (a, b) in (((hx, hy), he), ((tx, ty), te)):
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000" '
                   'stroke-width="0.08" stroke-dasharray="0.3,0.2"/>\n'
                   % (_fmt(a[0]), _fmt(a[1]), _fmt(b[0]), _fmt(b[1])))
    for (x, y) in dots:
        out.append('<circle cx="%s" cy="%s" r="0.18" fill="#377eb8"/>\n'
                   % (_fmt(x), _fmt(y)))
    out.append("</svg>\n")
    return "".join(out)


def svg_coloring(points, assignment):
    """Colored dots; uncolored points in gray."""
    dots = _flip([(float(x), float(y)) for (x, y) in points])
    xs = [p[0] for p in dots] or [0.0]
    ys = [p[1] for p in dots] or [0.0]
    pad = 2.0
    out = [_header(min(xs) - pad, min(ys) - pad,
                   max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)]
    for pid, (x, y) in enumerate(dots):
        c = assignment.colors.get(pid)
        fill = "#bbbbbb" if c is None else _PALETTE[(c - 1) % len(_PALETTE)]
        out.append('<circle cx="%s" cy="%s" r="0.25" fill="%s"/>\n'
                   % (_fmt(x), _fmt(y), fill))
    out.append("</svg>\n")
    return "".join(out)


def svg_schedule(instance, schedule):
    """Sensors as rectangles: x spans the range, y spans the active times.

    Unassigned sensors are stacked, dashed, below the time axis; assigned
    ones sit at their start time, visualizing the schedule as vertically
    slid boxes."""
    m = instance.m
    horizon = 1
    for s in instance.sensors:
        t0 = schedule.start.get(s.id)
        if t0 is not None:
            horizon = max(horizon, t0 + s.d)
    depth = 1
    out = []
    rects = []
    for s in sorted(instance.sensors, key=lambda s: s.id):
        t0 = schedule.start.get(s.id)
        if t0 is None:
            rects.append((s, -depth - s.d + 1, True))
            depth += s.d + 1
        else:
            rects.append((s, t0, False))
    x0, y0 = 0.5, -depth - 1
    w, h = m + 1.0, horizon + depth + 2.0
    out.append(_header(x0, y0, w, h, scale=14))
    out.append('<line x1="%s" y1="0" x2="%s" y2="0" stroke="#000" '
               'stroke-width="0.06"/>\n' % (_fmt(0.5), _fmt(m + 1)))
    for (s, y, dashed) in rects:
        style = ('fill="%s" fill-opacity="0.55" stroke="#000" '
                 'stroke-width="0.05"' % _PALETTE[s.id % len(_PALETTE)])
        if dashed:
            style += ' stroke-dasharray="0.25,0.18"'
        out.append('<rect x="%s" y="%s" width="%s" height="%s" %s/>\n'
                   % (_fmt(s.l - 0.5), _fmt(y), _fmt(s.r - s.l + 1),
                      _fmt(s.d), style))
        out.append('<text x="%s" y="%s" font-size="0.5" '
                   'font-family="monospace">%d</text>\n'
                   % (_fmt(s.l - 0.3), _fmt(y + 0.6), s.id))
    out.append("</svg>\n")
    return "".join(out)
