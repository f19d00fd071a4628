"""Billiard ray tracing through a mirror scene.

Each bounce updates the direction twice: numerically (for geometry) and
exactly, as the integer offset k of the isometry theta -> s*theta + k*pi/L
(L the scene's angle unit; a reflection in a mirror at angle a*pi maps k to
2aL - k and flips s), so the exit direction of an escaped ray can be
cross-checked against the exact group action on the launch direction.

:func:`trace` calls no Python function per leg.  A leg scans the rows of
:attr:`Scene.scan_rows` for the mirror it leaves, each
``(ax, ay, ex, ey, -slack, 1.0 + slack, geometry)``: every other mirror in
scene order, the bounds of the segment parameter u that count as a hit,
and the mirror's ``MirrorGeometry``, unpacked only for the nearest hit.
:func:`first_hit` is the same scan for one leg and the reference the loop
must match: the loop's float expressions are its own, operand for operand,
and none may be rewritten into an algebraically equal form (multiplied
through, or reflecting (dx, dy) in place of cos/sin of the wrapped angle):
the circle map bisects on itinerary keys, so one rounding flipped near a
boundary moves its arcs and the report bytes.  A value that depends only
on a leg's mirror and direction may be computed once per trace and pair, by
the same expression: after :data:`WARM` reflections :func:`trace` goes on
from a dict of its own of :func:`_leg_table`s, keyed by the mirror left and
the wrapped direction (never -0.0), whose rows keep the step of their first
hit on the leg: grazing verdict, lip, two_angle_k, length and next table.
Rational angles allow few such legs; shorter traces stay in the plain loop.

:func:`trace` tests the launch first.  A first leg launched in one turn,
theta0 in [0, TWO_PI) as every caller in the package launches, with a cap of
at least 1, scans only its cell of :attr:`Scene.source_cells`: a row left
out is off the cell by more than the rounding of its u-test, so it fails
that test (or the t-test, behind the leg), and the same rows are accepted in
the same order; an empty cell returns the loop's escape at n = 0 at once.
Every other call checks the cap, then that theta0 is finite, raising
ValueError, and scans every mirror.

The hot-path rule: the circle map traces hundreds of thousands of samples a
run, so no frame but trace's own and _leg_table's runs per trace.  Its
results are built with ``_new``, ``tuple.__new__`` read once, as namedtuple's
``_make`` does, since each NamedTuple constructor is one Python call, and
statuses are read from module constants: an Enum member read off its class
costs ~130 ns on CPython 3.11, a local ~9 ns.  Per-scene constants are read,
not built: an empty cell's escape takes its one-point path and identity
isometry from :attr:`Scene.source_escape`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from typing import NamedTuple

from .exact_angle import TWO_PI, GroupElement
from .scene import EPS_SINGULAR, EnclosingCircle, Point, ScanRow, Scene

# Minimum advance along the ray before a hit counts; scene.MIN_SEPARATION,
# the clearance validation demands, stays above it.  EPS_SINGULAR, the
# radius around segment endpoints (or grazing angle) below which a hit is
# singular, lives with the scan rows that precompute it.
EPS_ADVANCE = 1e-9

DEFAULT_BOUNCE_CAP = 10_000

WARM = 4  # reflections trace makes in its plain loop before its leg tables

_new = tuple.__new__


class TraceStatus(Enum):
    ESCAPED = "escaped"
    BOUNCE_CAP_EXCEEDED = "bounce_cap_exceeded"
    SINGULAR = "singular"


ESCAPED = TraceStatus.ESCAPED
BOUNCE_CAP_EXCEEDED = TraceStatus.BOUNCE_CAP_EXCEEDED
SINGULAR = TraceStatus.SINGULAR


class Hit(NamedTuple):
    """A regular mirror hit: 1-based mirror index, lip side, point, ray parameter."""

    mirror_index: int
    side: int  # +1: the ray arrives from the mirror's left-normal side
    point: Point
    t: float


class SingularStop(NamedTuple):
    """The nearest intersection is unusable: endpoint-adjacent or grazing."""

    mirror_index: int
    point: Point
    t: float
    reason: str  # "endpoint" or "grazing"


def first_hit(
    origin: Point,
    theta: float,
    scene: Scene,
    exclude_index: int | None = None,
) -> "Hit | SingularStop | None":
    """Nearest mirror intersection of the ray from origin in direction theta.

    Returns None when the ray escapes, a SingularStop when the nearest
    intersection is nearly parallel to the hit mirror ("grazing") or within
    EPS_SINGULAR of a segment endpoint ("endpoint").  ``exclude_index``
    skips the mirror the ray just left.  This is the reference scan, one
    leg at a time, that :func:`trace`'s loop must match float for float.
    """
    ox, oy = origin
    dx, dy = math.cos(theta), math.sin(theta)
    best_t = math.inf
    hit = None
    for ax, ay, ex, ey, lo, hi, row in scene.scan_rows[exclude_index or 0]:
        denom = dx * ey - dy * ex
        if denom == 0.0:
            continue
        wx = ax - ox
        wy = ay - oy
        t = (wx * ey - wy * ex) / denom
        if t <= EPS_ADVANCE or t >= best_t:
            continue
        # u: the hit's position along the segment, 0 at the anchor, 1 at the far end
        u = (wx * dy - wy * dx) / denom
        if u < lo or u > hi:
            continue
        best_t, best_u, best_denom, hit = t, u, denom, row
    if hit is None:
        return None
    point = (ox + best_t * dx, oy + best_t * dy)
    length = hit.length
    if abs(best_denom) / length < EPS_SINGULAR:
        return SingularStop(hit.index, point, best_t, "grazing")
    if best_u * length < EPS_SINGULAR or (1.0 - best_u) * length < EPS_SINGULAR:
        return SingularStop(hit.index, point, best_t, "endpoint")
    side = 1 if (dx * hit.nx + dy * hit.ny) < 0.0 else -1
    return Hit(hit.index, side, point, best_t)


class TraceResult(NamedTuple):
    status: TraceStatus
    itinerary: tuple[tuple[int, int], ...]  # (mirror_index, side) per bounce
    path: tuple[Point, ...]  # source followed by each reflection point
    exit_point: Point  # last reflection point, or the source
    exit_dir_numeric: float
    exit_dir_exact: GroupElement
    bounce_count: int
    stop_point: Point | None = None  # where a singular ray terminated


def _leg_table(rows: tuple[ScanRow, ...], theta: float) -> tuple:
    """``(theta, cos, sin, legs)`` of a leg scanning ``rows``: per row whose
    ``denom`` is nonzero, ``(ax, ay, ex, ey, lo, hi, denom, memo)``, memo
    ``[None, denom, geometry]`` until the row's first hit sets its step."""
    dx, dy = math.cos(theta), math.sin(theta)
    return theta, dx, dy, [
        (ax, ay, ex, ey, lo, hi, denom, [None, denom, row])
        for ax, ay, ex, ey, lo, hi, row in rows
        if (denom := dx * ey - dy * ex) != 0.0
    ]


def trace(scene: Scene, theta0: float, cap: int = DEFAULT_BOUNCE_CAP) -> TraceResult:
    """Follow a ray from the source, reflecting until it escapes, turns
    singular, or would exceed ``cap`` reflections.  Each leg is the scan of
    :func:`first_hit`, the reference this loop must match, inlined."""
    if 0.0 <= theta0 < TWO_PI and cap >= 1:  # see Scene.source_cells
        bounds, cells = scene.source_cells
        rows = cells[bisect_right(bounds, theta0)]
        if not rows:  # the loop's escape at n = 0; + 0.0 makes -0.0 0.0, as its % does
            path, g = scene.source_escape
            return _new(TraceResult, (ESCAPED, (), path, path[0], theta0 + 0.0, g, 0, None))
    else:
        if cap < 1:
            raise ValueError("bounce cap must be >= 1")
        if not math.isfinite(theta0):
            raise ValueError(f"launch direction must be finite, got {theta0}")
        rows = scene.scan_rows[0]
    ox, oy = pos = scene.source
    scan_rows = scene.scan_rows
    cos, sin, inf = math.cos, math.sin, math.inf
    eps_advance, eps_singular, two_pi = EPS_ADVANCE, EPS_SINGULAR, TWO_PI
    theta = theta0  # wrapped on reflection; the first leg leaves along theta0 as given
    k = 0  # exact exit direction offset, in units of pi / scene.angle_unit
    path = [pos]
    itinerary: list[tuple[int, int]] = []
    stop_point = None
    for n in range(cap + 1 if cap <= WARM else WARM):  # n reflections so far
        dx, dy = cos(theta), sin(theta)
        # the nearest hit, as in first_hit
        best_t = inf
        hit = None
        for ax, ay, ex, ey, lo, hi, row in rows:
            denom = dx * ey - dy * ex
            if denom == 0.0:
                continue
            wx = ax - ox
            wy = ay - oy
            t = (wx * ey - wy * ex) / denom
            if t <= eps_advance or t >= best_t:
                continue
            u = (wx * dy - wy * dx) / denom
            if u < lo or u > hi:
                continue
            best_t, best_u, best_denom, hit = t, u, denom, row
        if hit is None:
            status = ESCAPED
            break
        index, length, nx, ny, two_angle, two_angle_k, lips = hit
        point = (ox + best_t * dx, oy + best_t * dy)
        # the singular test, as in first_hit
        if (
            abs(best_denom) / length < eps_singular
            or best_u * length < eps_singular
            or (1.0 - best_u) * length < eps_singular
        ):
            status, stop_point = SINGULAR, point
            break
        if n == cap:
            status = BOUNCE_CAP_EXCEEDED
            break
        itinerary.append(lips[0] if (dx * nx + dy * ny) < 0.0 else lips[1])
        path.append(point)
        r = (two_angle - theta) % two_pi  # wrap_angle, inlined
        theta = r if r < two_pi else 0.0
        k = two_angle_k - k
        ox, oy = pos = point
        rows = scan_rows[index]
    else:  # WARM reflections and cap > WARM: go on from this trace's leg tables
        tables = {}
        theta, dx, dy, rows = tables[index, theta] = _leg_table(rows, theta)
        for n in range(WARM, cap + 1):
            best_t, hit = inf, None
            for ax, ay, ex, ey, lo, hi, denom, memo in rows:
                wx, wy = ax - ox, ay - oy
                t = (wx * ey - wy * ex) / denom
                if t <= eps_advance or t >= best_t:
                    continue
                u = (wx * dy - wy * dx) / denom
                if u < lo or u > hi:
                    continue
                best_t, best_u, hit = t, u, memo
            if hit is None:
                status = ESCAPED
                break
            step = hit[0]
            if step is None:  # the row's first hit on this leg, by the plain loop's expressions
                _, denom, (index, length, nx, ny, two_angle, two_angle_k, lips) = hit
                r = (two_angle - theta) % two_pi
                key = index, r if r < two_pi else 0.0
                tables[key] = after = tables.get(key) or _leg_table(scan_rows[index], key[1])
                lip = lips[0] if (dx * nx + dy * ny) < 0.0 else lips[1]
                step = hit[0] = (abs(denom) / length < eps_singular, lip, two_angle_k, length,
                                 after)
            grazing, lip, two_angle_k, length, after = step
            point = (ox + best_t * dx, oy + best_t * dy)
            if grazing or best_u * length < eps_singular or (1.0 - best_u) * length < eps_singular:
                status, stop_point = SINGULAR, point
                break
            if n == cap:
                status = BOUNCE_CAP_EXCEEDED
                break
            itinerary.append(lip)
            path.append(point)
            k = two_angle_k - k
            ox, oy = pos = point
            theta, dx, dy, rows = after
    unit = scene.angle_unit
    r = theta % two_pi  # wrap_angle, inlined
    return _new(TraceResult, (
        status,
        tuple(itinerary),
        tuple(path),
        pos,
        r if r < two_pi else 0.0,
        _new(GroupElement, (-1 if n % 2 else 1, k % (2 * unit), unit)),
        n,
        stop_point,
    ))


def exit_ray(point: Point, direction: float, circle: EnclosingCircle) -> Point:
    """Where the ray from ``point``, inside ``circle``, in ``direction``
    crosses the circle: for an escaped trace, from its exit point along its
    numeric exit direction."""
    ox, oy = point
    cx, cy = circle.center
    dx, dy = math.cos(direction), math.sin(direction)
    fx, fy = ox - cx, oy - cy
    b = dx * fx + dy * fy
    c = fx * fx + fy * fy - circle.radius * circle.radius
    disc = b * b - c
    if disc < 0 or c >= 0:
        raise ValueError("trace exit point is not inside the circle")
    t = -b + math.sqrt(disc)
    return (ox + t * dx, oy + t * dy)
