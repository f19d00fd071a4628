"""Deterministic SVG rendering of scenes, trajectories and dark sectors.

The viewport is the enclosing circle's bounding box expanded three-fold, so
unbounded sectors show up truncated, with a dashed edge marking the cut.
"""

from __future__ import annotations

import math

from .dark_sector import DarkSector
from .scene import EnclosingCircle, Scene, endpoints

# half the viewport's width, in radii of the enclosing circle
VIEWPORT_RADII = 3.0

TRACE_COLOR = "#1f77b4"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _d(points) -> str:
    """SVG path data for the polyline through points; y flips so the
    mathematical plane reads the usual way up."""
    return "M " + " L ".join(f"{_fmt(x)} {_fmt(-y)}" for x, y in points)


def render_svg(
    scene: Scene,
    circle: EnclosingCircle,
    traces: "tuple | list" = (),
    sectors: "tuple | list" = (),
) -> str:
    """Build the SVG document as a string.

    ``traces`` is a sequence of polylines, each a list of points; ``sectors``
    a sequence of DarkSector.  Output is byte-deterministic for equal inputs.
    """
    ox, oy = circle.center
    r = circle.radius
    half = VIEWPORT_RADII * r
    stroke = r / 150.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(ox - half)} {_fmt(-oy - half)} {_fmt(2 * half)} {_fmt(2 * half)}" '
        'width="720" height="720">',
    ]
    for s in sectors:
        fan = _fan(s, circle)
        parts += [
            f'<path class="sector" d="{_d([s.apex, *fan])} Z" fill="#444444" '
            'fill-opacity="0.25" stroke="none"/>',
            f'<path class="sector-edge" d="{_d(fan)}" fill="none" stroke="#444444" '
            f'stroke-width="{_fmt(stroke)}" stroke-dasharray="{_fmt(6 * stroke)} {_fmt(6 * stroke)}"/>',
        ]
    parts.append(
        f'<circle class="boundary-circle" cx="{_fmt(ox)}" cy="{_fmt(-oy)}" '
        f'r="{_fmt(r)}" fill="none" stroke="#999999" '
        f'stroke-width="{_fmt(stroke)}" stroke-dasharray="{_fmt(4 * stroke)} {_fmt(4 * stroke)}"/>'
    )
    parts += [
        f'<path class="trace" d="{_d(points)}" fill="none" stroke="{TRACE_COLOR}" '
        f'stroke-width="{_fmt(stroke)}"/>'
        for points in traces
    ]
    parts += [
        f'<path class="mirror" d="{_d(endpoints(m))}" fill="none" stroke="#111111" '
        f'stroke-width="{_fmt(3 * stroke)}" stroke-linecap="round"/>'
        for m in scene.mirrors
    ]
    sx, sy = scene.source
    parts.append(
        f'<circle class="source" cx="{_fmt(sx)}" cy="{_fmt(-sy)}" '
        f'r="{_fmt(r / 70.0)}" fill="#d62728" stroke="none"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fan(s: DarkSector, circle: EnclosingCircle) -> list:
    """Nine points on the arc about the apex that truncates sector s; when
    the apex itself is visible, the arc stays inside the viewport."""
    ax, ay = s.apex
    lo, span = s.dir_lo, s.interior_angle
    reach = math.hypot(ax - circle.center[0], ay - circle.center[1])
    radius = max(1.2 * circle.radius, 2.8 * circle.radius - reach)
    return [
        (ax + radius * math.cos(t), ay + radius * math.sin(t))
        for t in (lo + span * i / 8 for i in range(9))
    ]
