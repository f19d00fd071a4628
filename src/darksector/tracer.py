"""Billiard ray tracing through a mirror scene.

Each bounce updates the direction twice: numerically (for geometry) and
exactly, as the integer offset k of the isometry theta -> s*theta + k*pi/L
(L the scene's angle unit; a reflection in a mirror at angle a*pi maps k to
2aL - k and flips s), so the exit direction of an escaped ray can be
cross-checked against the exact group action on the launch direction.

:func:`trace` is one loop that calls no Python function per leg.  A leg
scans the rows of :attr:`Scene.scan_rows` for the mirror it leaves, each
``(ax, ay, ex, ey, -slack, 1.0 + slack, geometry)``: every other mirror in
scene order, the bounds of the segment parameter u that count as a hit,
and the mirror's full geometry, unpacked only for the nearest hit.  The
loop's float expressions are those of :func:`first_hit`, operand for
operand, and none may be rewritten into an algebraically equal form
(multiplied through, or reflecting (dx, dy) in place of cos/sin of the
wrapped angle): the circle map bisects on itinerary keys, so one rounding
flipped near a boundary moves its arcs and the report bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .exact_angle import TWO_PI, GroupElement, wrap_angle
from .scene import EPS_SINGULAR, EnclosingCircle, MirrorGeometry, Point, ScanRow, Scene

# Minimum advance along the ray before a hit counts; scene.MIN_SEPARATION,
# the clearance validation demands, stays above it.  EPS_SINGULAR, the
# radius around segment endpoints (or grazing angle) below which a hit is
# singular, lives with the per-mirror geometry that precomputes it.
EPS_ADVANCE = 1e-9

DEFAULT_BOUNCE_CAP = 10_000


class TraceStatus(Enum):
    ESCAPED = "escaped"
    BOUNCE_CAP_EXCEEDED = "bounce_cap_exceeded"
    SINGULAR = "singular"


@dataclass(frozen=True)
class Hit:
    """A regular mirror hit: 1-based mirror index, lip side, point, ray parameter."""

    mirror_index: int
    side: int  # +1: the ray arrives from the mirror's left-normal side
    point: Point
    t: float


@dataclass(frozen=True)
class SingularStop:
    """The nearest intersection is unusable: endpoint-adjacent or grazing."""

    mirror_index: int
    point: Point
    t: float
    reason: str  # "endpoint" or "grazing"


def _nearest_hit(
    ox: float,
    oy: float,
    dx: float,
    dy: float,
    rows: "tuple[ScanRow, ...]",
) -> "tuple[float, float, MirrorGeometry, float] | None":
    """The nearest intersection of the ray (ox, oy) + t (dx, dy), t > 0,
    with a mirror of ``rows`` (an entry of :attr:`Scene.scan_rows`):
    ``(t, u, row, denom)`` with u the hit's position along the segment (0 at
    the anchor, 1 at the far end), or None when the ray meets no mirror."""
    best_t = math.inf
    best = None
    for ax, ay, ex, ey, lo, hi, row in rows:
        denom = dx * ey - dy * ex
        if denom == 0.0:
            continue
        wx = ax - ox
        wy = ay - oy
        t = (wx * ey - wy * ex) / denom
        if t <= EPS_ADVANCE or t >= best_t:
            continue
        u = (wx * dy - wy * dx) / denom
        if u < lo or u > hi:
            continue
        best_t = t
        best = (t, u, row, denom)
    return best


def _singular_reason(u: float, length: float, denom: float) -> str | None:
    """Why a hit at segment position u is unusable, or None for a regular hit."""
    if abs(denom) / length < EPS_SINGULAR:
        return "grazing"
    if u * length < EPS_SINGULAR or (1.0 - u) * length < EPS_SINGULAR:
        return "endpoint"
    return None


def first_hit(
    origin: Point,
    theta: float,
    scene: Scene,
    exclude_index: int | None = None,
) -> "Hit | SingularStop | None":
    """Nearest mirror intersection of the ray from origin in direction theta.

    Returns None when the ray escapes, a SingularStop when the nearest
    intersection is within EPS_SINGULAR of a segment endpoint or the ray is
    nearly parallel to the hit mirror.  ``exclude_index`` skips the mirror
    the ray just left.
    """
    ox, oy = origin
    dx, dy = math.cos(theta), math.sin(theta)
    hit = _nearest_hit(ox, oy, dx, dy, scene.scan_rows[exclude_index or 0])
    if hit is None:
        return None
    t, u, row, denom = hit
    point = (ox + t * dx, oy + t * dy)
    reason = _singular_reason(u, row.length, denom)
    if reason is not None:
        return SingularStop(row.index, point, t, reason)
    side = 1 if (dx * row.nx + dy * row.ny) < 0.0 else -1
    return Hit(row.index, side, point, t)


class TraceResult(NamedTuple):
    status: TraceStatus
    itinerary: tuple[tuple[int, int], ...]  # (mirror_index, side) per bounce
    path: tuple[Point, ...]  # source followed by each reflection point
    exit_point: Point  # last reflection point, or the source
    exit_dir_numeric: float
    exit_dir_exact: GroupElement
    bounce_count: int
    stop_point: Point | None = None  # where a singular ray terminated


def trace(scene: Scene, theta0: float, cap: int = DEFAULT_BOUNCE_CAP) -> TraceResult:
    """Follow a ray from the source, reflecting until it escapes, turns
    singular, or would exceed ``cap`` reflections."""
    if cap < 1:
        raise ValueError("bounce cap must be >= 1")
    if not math.isfinite(theta0):
        raise ValueError(f"launch direction must be finite, got {theta0}")
    scan_rows = scene.scan_rows
    rows = scan_rows[0]
    cos, sin, inf = math.cos, math.sin, math.inf
    eps_advance, eps_singular, two_pi = EPS_ADVANCE, EPS_SINGULAR, TWO_PI
    theta = theta0  # wrapped on reflection; the first leg leaves along theta0 as given
    k = 0  # exact exit direction offset, in units of pi / scene.angle_unit
    ox, oy = pos = scene.source
    path = [pos]
    itinerary: list[tuple[int, int]] = []
    stop_point = None
    while True:
        dx, dy = cos(theta), sin(theta)
        # the nearest hit, as in _nearest_hit
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
            status = TraceStatus.ESCAPED
            break
        index, _, _, _, _, _, length, nx, ny, two_angle, two_angle_k, lips = hit
        point = (ox + best_t * dx, oy + best_t * dy)
        # as in _singular_reason
        if (
            abs(best_denom) / length < eps_singular
            or best_u * length < eps_singular
            or (1.0 - best_u) * length < eps_singular
        ):
            status, stop_point = TraceStatus.SINGULAR, point
            break
        if len(itinerary) == cap:
            status = TraceStatus.BOUNCE_CAP_EXCEEDED
            break
        itinerary.append(lips[0] if (dx * nx + dy * ny) < 0.0 else lips[1])
        path.append(point)
        r = (two_angle - theta) % two_pi  # wrap_angle, inlined
        theta = r if r < two_pi else 0.0
        k = two_angle_k - k
        ox, oy = pos = point
        rows = scan_rows[index]
    n = len(itinerary)
    unit = scene.angle_unit
    return TraceResult(
        status,
        tuple(itinerary),
        tuple(path),
        pos,
        wrap_angle(theta),
        GroupElement(-1 if n % 2 else 1, k % (2 * unit), unit),
        n,
        stop_point,
    )


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
