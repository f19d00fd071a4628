"""Billiard ray tracing through a mirror scene.

Each bounce updates the direction twice: numerically (for geometry) and
exactly, as the integer offset k of the isometry theta -> s*theta + k*pi/L
(L the scene's angle unit; a reflection in a mirror at angle a*pi maps k to
2aL - k and flips s), so the exit direction of an escaped ray can be
cross-checked against the exact group action on the launch direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .exact_angle import GroupElement, wrap_angle
from .scene import EPS_SINGULAR, EnclosingCircle, MirrorGeometry, Point, Scene

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
    geos: "tuple[MirrorGeometry, ...]",
    exclude: int | None,
) -> "tuple[float, float, MirrorGeometry, float] | None":
    """The nearest intersection of the ray (ox, oy) + t (dx, dy), t > 0,
    with a mirror other than ``exclude``: ``(t, u, row, denom)`` with u the
    hit's position along the segment (0 at the anchor, 1 at the far end),
    or None when the ray meets no mirror."""
    best_t = math.inf
    best = None
    for row in geos:
        index, ax, ay, ex, ey, slack, _, _, _, _, _, _ = row
        if index == exclude:
            continue
        denom = dx * ey - dy * ex
        if denom == 0.0:
            continue
        wx = ax - ox
        wy = ay - oy
        t = (wx * ey - wy * ex) / denom
        if t <= EPS_ADVANCE or t >= best_t:
            continue
        u = (wx * dy - wy * dx) / denom
        if u < -slack or u > 1.0 + slack:
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
    hit = _nearest_hit(ox, oy, dx, dy, scene.geometry, exclude_index)
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
    geos = scene.geometry
    cos, sin = math.cos, math.sin
    theta = theta0  # wrapped on reflection; the first leg leaves along theta0 as given
    k = 0  # exact exit direction offset, in units of pi / scene.angle_unit
    ox, oy = pos = scene.source
    path = [pos]
    itinerary: list[tuple[int, int]] = []
    last: int | None = None
    stop_point = None
    while True:
        dx, dy = cos(theta), sin(theta)
        hit = _nearest_hit(ox, oy, dx, dy, geos, last)
        if hit is None:
            status = TraceStatus.ESCAPED
            break
        t, u, row, denom = hit
        index, _, _, _, _, _, length, nx, ny, two_angle, two_angle_k, lips = row
        point = (ox + t * dx, oy + t * dy)
        if _singular_reason(u, length, denom) is not None:
            status, stop_point = TraceStatus.SINGULAR, point
            break
        if len(itinerary) == cap:
            status = TraceStatus.BOUNCE_CAP_EXCEEDED
            break
        itinerary.append(lips[0] if (dx * nx + dy * ny) < 0.0 else lips[1])
        path.append(point)
        theta = wrap_angle(two_angle - theta)
        k = two_angle_k - k
        ox, oy = pos = point
        last = index
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


def exit_ray(tr: TraceResult, circle: EnclosingCircle) -> tuple[Point, float]:
    """Where the final straight portion of an escaped trace crosses the
    enclosing circle, together with its direction."""
    if tr.status is not TraceStatus.ESCAPED:
        raise ValueError("exit_ray requires an escaped trace")
    ox, oy = tr.exit_point
    cx, cy = circle.center
    dx, dy = math.cos(tr.exit_dir_numeric), math.sin(tr.exit_dir_numeric)
    fx, fy = ox - cx, oy - cy
    b = dx * fx + dy * fy
    c = fx * fx + fy * fy - circle.radius * circle.radius
    disc = b * b - c
    if disc < 0 or c >= 0:
        raise ValueError("trace exit point is not inside the circle")
    t = -b + math.sqrt(disc)
    return (ox + t * dx, oy + t * dy), tr.exit_dir_numeric
