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

from .exact_angle import GroupElement, apply, make_rational_turn, wrap_angle
from .scene import EnclosingCircle, Point, Scene

# Minimum advance along the ray before a hit counts, and the radius around
# segment endpoints (or grazing angle) below which a hit is singular.
EPS_ADVANCE = 1e-9
EPS_SINGULAR = 1e-9

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
    geos = scene.geometry
    ox, oy = origin
    dx, dy = math.cos(theta), math.sin(theta)
    best_t = math.inf
    best = None
    for idx, g in enumerate(geos, start=1):
        if idx == exclude_index:
            continue
        denom = dx * g.ey - dy * g.ex
        if denom == 0.0:
            continue
        wx = g.ax - ox
        wy = g.ay - oy
        t = (wx * g.ey - wy * g.ex) / denom
        if t <= EPS_ADVANCE or t >= best_t:
            continue
        u = (wx * dy - wy * dx) / denom
        slack = EPS_SINGULAR / g.length
        if u < -slack or u > 1.0 + slack:
            continue
        best_t = t
        best = (t, u, idx, g, denom)
    if best is None:
        return None
    t, u, idx, g, denom = best
    point = (ox + t * dx, oy + t * dy)
    if abs(denom) / g.length < EPS_SINGULAR:
        return SingularStop(idx, point, t, "grazing")
    if u * g.length < EPS_SINGULAR or (1.0 - u) * g.length < EPS_SINGULAR:
        return SingularStop(idx, point, t, "endpoint")
    side = 1 if (dx * g.nx + dy * g.ny) < 0.0 else -1
    return Hit(idx, side, point, t)


@dataclass(frozen=True)
class TraceResult:
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
    theta = wrap_angle(theta0)
    k = 0  # exact exit direction offset, in units of pi / scene.angle_unit
    pos = scene.source
    path = [pos]
    itinerary: list[tuple[int, int]] = []
    last: int | None = None
    stop_point = None
    while True:
        res = first_hit(pos, theta, scene, exclude_index=last)
        if res is None:
            status = TraceStatus.ESCAPED
            break
        if isinstance(res, SingularStop):
            status, stop_point = TraceStatus.SINGULAR, res.point
            break
        if len(itinerary) == cap:
            status = TraceStatus.BOUNCE_CAP_EXCEEDED
            break
        geo = geos[res.mirror_index - 1]
        itinerary.append((res.mirror_index, res.side))
        path.append(res.point)
        theta = wrap_angle(geo.two_angle - theta)
        k = geo.two_angle_k - k
        pos = res.point
        last = res.mirror_index
    n = len(itinerary)
    return TraceResult(
        status=status,
        itinerary=tuple(itinerary),
        path=tuple(path),
        exit_point=pos,
        exit_dir_numeric=theta,
        exit_dir_exact=GroupElement(
            -1 if n % 2 else 1, make_rational_turn(k, scene.angle_unit)
        ),
        bounce_count=n,
        stop_point=stop_point,
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


def exact_numeric_gap(tr: TraceResult, theta0: float) -> float:
    """Circle distance between the numeric exit direction and the exact
    group element applied to the launch direction."""
    predicted = apply(tr.exit_dir_exact, theta0)
    d = (tr.exit_dir_numeric - predicted) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)
