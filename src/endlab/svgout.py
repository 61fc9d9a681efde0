"""Deterministic SVG emission of Gauss-map circle patterns.

One element per face record: circles as <circle>, lines clipped to the
viewBox as <line>.  The viewBox is the bounding box of the circle extents
with a 5% margin; circles under 1e-6 of the viewport size are drawn as
filled markers so they stay visible.  All numbers are printed with a fixed
format, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math

_FMT = "%.8f"


def _f(x):
    out = _FMT % x
    return "0.00000000" if out == "-0.00000000" else out


def _clip_line_to_box(a, b, c, x0, y0, x1, y1):
    """Segment of a x + b y + c = 0 inside the box, or None."""
    pts = []
    if abs(b) > 1e-15:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-15:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def render_circles(records):
    """SVG text, 640 px square, for a list of ("circle", center, r) /
    ("line", a, b, c)."""
    xs, ys = [], []
    for rec in records:
        if rec[0] == "circle":
            _, z, r = rec
            xs += [z.real - r, z.real + r]
            ys += [z.imag - r, z.imag + r]
    if not xs:
        xs, ys = [-1.0, 1.0], [-1.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w, h = x1 - x0, y1 - y0
    pad = 0.05 * max(w, h, 1e-9)
    x0, x1 = x0 - pad, x1 + pad
    y0, y1 = y0 - pad, y1 + pad
    span = max(x1 - x0, y1 - y0)
    stroke = span / 400.0
    tiny = 1e-6 * span

    lines = []
    lines.append('<svg xmlns="http://www.w3.org/2000/svg" width="640" '
                 'height="640" viewBox="%s %s %s %s">'
                 % (_f(x0), _f(y0), _f(x1 - x0), _f(y1 - y0)))
    # SVG y points down; flip so the chart looks standard
    lines.append('<g transform="translate(0 %s) scale(1 -1)">'
                 % _f(y0 + y1))
    for rec in records:
        if rec[0] == "circle":
            _, z, r = rec
            if r < tiny:
                lines.append('<circle cx="%s" cy="%s" r="%s" fill="black"/>'
                             % (_f(z.real), _f(z.imag), _f(2 * stroke)))
            else:
                lines.append('<circle cx="%s" cy="%s" r="%s" fill="none" '
                             'stroke="black" stroke-width="%s"/>'
                             % (_f(z.real), _f(z.imag), _f(r), _f(stroke)))
        else:
            _, a, b, c = rec
            seg = _clip_line_to_box(a, b, c, x0, y0, x1, y1)
            if seg is None:
                continue
            (px, py), (qx, qy) = seg
            lines.append('<line x1="%s" y1="%s" x2="%s" y2="%s" '
                         'stroke="black" stroke-width="%s"/>'
                         % (_f(px), _f(py), _f(qx), _f(qy), _f(stroke)))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
