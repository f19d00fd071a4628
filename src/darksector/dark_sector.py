"""Turning an unlit direction arc into a certified unilluminated planar sector.

Given an arc of escape directions that no exit ray attains, the two tangent
lines to the enclosing circle at right angles from the arc's endpoints bound
an infinite sector whose points can only be reached by rays with directions
inside that arc -- which is exactly the set with no rays.  The verification
routine re-checks this geometry independently by sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .arcs import Arc, arc_contains_arc, arc_intersection_measure
from .circle_map import Decomposition
from .exact_angle import TWO_PI, wrap_angle
from .scene import EnclosingCircle, Point
from .tracer import TraceStatus, exit_ray, trace

# Wide unlit arcs are shrunk symmetrically to just under a half turn, since
# the tangent construction needs an opening angle below pi.
MAX_SECTOR_MEASURE = math.pi - 1e-6

# A ray meets a sector only along a stretch of its parameter longer than this.
ENTRY_MARGIN = 1e-9

# Check (i) decides a point without the arc algebra when its direction arc
# clears both ends of the dark arc by more than this.
INSIDE_MARGIN = 1e-9

# Check (i) samples radii from the apex log-uniformly over [1, 10**SAMPLE_DECADES]*R.
SAMPLE_DECADES = 6


@dataclass(frozen=True)
class DarkSector:
    """An open infinite planar sector disjoint from the enclosing disk."""

    apex: Point
    dir_lo: float
    dir_hi: float
    tangent_points: tuple[Point, Point]

    @property
    def interior_angle(self) -> float:
        return (self.dir_hi - self.dir_lo) % TWO_PI


def shrink_below_pi(arc: Arc) -> Arc:
    """The arc itself, or when it spans pi or more, the arc of
    ``MAX_SECTOR_MEASURE`` about its midpoint."""
    if arc.measure < math.pi:
        return arc
    mid = arc.midpoint
    half = 0.5 * MAX_SECTOR_MEASURE
    return Arc(mid - half, mid + half)


def build_sector(arc: Arc, circle: EnclosingCircle) -> DarkSector:
    """Tangent-line construction of the sector certified by a dark arc.

    The tangent touch points sit a quarter turn from the arc endpoints; the
    tangent lines run in the endpoint directions and meet at the apex.
    """
    if arc.measure >= math.pi:
        raise ValueError("dark arc must span less than pi")
    lo, hi = arc.start, arc.end
    ox, oy = circle.center
    r = circle.radius
    t1 = (ox + r * math.cos(lo + 0.5 * math.pi), oy + r * math.sin(lo + 0.5 * math.pi))
    t2 = (ox + r * math.cos(hi - 0.5 * math.pi), oy + r * math.sin(hi - 0.5 * math.pi))
    u1 = (math.cos(lo), math.sin(lo))
    u2 = (math.cos(hi), math.sin(hi))
    # apex solves t1 + s*u1 == t2 + w*u2
    det = u1[0] * u2[1] - u1[1] * u2[0]  # sin(measure) != 0
    rx, ry = t2[0] - t1[0], t2[1] - t1[1]
    s = (rx * u2[1] - ry * u2[0]) / det
    apex = (t1[0] + s * u1[0], t1[1] + s * u1[1])
    return DarkSector(apex=apex, dir_lo=lo, dir_hi=hi, tangent_points=(t1, t2))


def _direction_span(p: Point, circle: EnclosingCircle) -> tuple[float, float]:
    """(psi, half): the direction from the circle's center to p, and
    asin(R/d) with d the distance between them."""
    dx, dy = p[0] - circle.center[0], p[1] - circle.center[1]
    d = math.hypot(dx, dy)
    if d <= circle.radius:
        raise ValueError("point must lie strictly outside the circle")
    return math.atan2(dy, dx), math.asin(circle.radius / d)


def sample_reach(eps_b: float) -> float:
    """How far from the enclosing circle's center, in radii R, check (i) of
    ``verify_darkness`` can sample a point, for a sector cut from an arc of
    ``unlit_arcs`` with boundary tolerance ``eps_b``.

    Such an arc spans more than 2*eps_b, so its sector's apex lies within
    R / sin(eps_b) of the center, and the samples within
    10**SAMPLE_DECADES * R of the apex.
    """
    return 1.0 / math.sin(eps_b) + 10.0**SAMPLE_DECADES


def direction_arc(p: Point, circle: EnclosingCircle) -> Arc:
    """Directions of all rays that leave the circle and pass through p.

    Requires p strictly outside the circle; the arc is centered on the
    direction from the circle's center to p with half-width asin(R/d).
    """
    psi, half = _direction_span(p, circle)
    return Arc(psi - half, psi + half)


def _clearly_inside(dark: Arc, psi: float, half: float) -> bool:
    """Whether the arc (psi - half, psi + half) lies inside ``dark`` with
    more than ``INSIDE_MARGIN`` to spare at both ends.

    Plain float arithmetic, sound only thanks to that margin: False means
    "not decided here", and the caller asks ``arc_contains_arc``.
    """
    offset = (psi - half - dark.start) % TWO_PI
    return INSIDE_MARGIN < offset and offset + 2.0 * half < dark.measure - INSIDE_MARGIN


def ray_enters_sector(origin: Point, theta: float, s: DarkSector) -> bool:
    """Whether the ray from origin in direction theta meets the open sector."""
    dx, dy = math.cos(theta), math.sin(theta)
    vx, vy = origin[0] - s.apex[0], origin[1] - s.apex[1]

    def halfplane_interval(ux: float, uy: float, want_positive: bool):
        # cross(u, v + t*d) > 0 (or < 0), affine in t
        c0 = ux * vy - uy * vx
        c1 = ux * dy - uy * dx
        if not want_positive:
            c0, c1 = -c0, -c1
        if c1 == 0.0:
            return (-math.inf, math.inf) if c0 > 0.0 else None
        root = -c0 / c1
        return (root, math.inf) if c1 > 0.0 else (-math.inf, root)

    i1 = halfplane_interval(math.cos(s.dir_lo), math.sin(s.dir_lo), True)
    i2 = halfplane_interval(math.cos(s.dir_hi), math.sin(s.dir_hi), False)
    if i1 is None or i2 is None:
        return False
    lo = max(i1[0], i2[0], 0.0)
    hi = min(i1[1], i2[1])
    return hi - lo > ENTRY_MARGIN


@dataclass
class DarknessReport:
    """Outcome of the three independent darkness checks."""

    sample_count: int
    direction_inclusion_ok: bool
    image_disjoint_ok: bool
    exit_rays_ok: bool
    bad_points: list[Point] = field(default_factory=list)
    overlapping_images: int = 0
    offending_rays: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.direction_inclusion_ok and self.image_disjoint_ok and self.exit_rays_ok

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "sample_count": self.sample_count,
            "direction_inclusion_ok": self.direction_inclusion_ok,
            "image_disjoint_ok": self.image_disjoint_ok,
            "exit_rays_ok": self.exit_rays_ok,
            "bad_points": [[p[0], p[1]] for p in self.bad_points[:10]],
            "overlapping_images": self.overlapping_images,
            "offending_rays": self.offending_rays[:10],
        }


def exit_probes(d: Decomposition) -> list[tuple[float, Point, float]]:
    """The exit rays of darkness check (iii) as (launch direction, point
    where the ray leaves ``d.circle``, exit direction): for each component
    in order, the escaped rays launched just inside its start, at its
    midpoint and just inside its end.

    They depend on the decomposition alone, so one list serves every sector
    checked against it.
    """
    probes = []
    for comp in d.components:
        m = comp.arc.measure
        h = m * 1e-3
        for theta_s in (
            comp.arc.start + h,
            comp.arc.midpoint,
            comp.arc.start + (m - h),
        ):
            theta = wrap_angle(theta_s)
            tr = trace(d.scene, theta, d.params.cap)
            if tr.status is TraceStatus.ESCAPED:
                probes.append((theta, *exit_ray(tr, d.circle)))
    return probes


def verify_darkness(
    s: DarkSector,
    d: Decomposition,
    n: int,
    probes: list[tuple[float, Point, float]],
    seed: int = 0,
) -> DarknessReport:
    """Re-check darkness of a sector against the decomposition it came from.

    (i) for n sampled sector points (log-uniform radii over [1, 1e6]*R, R
    the radius of ``d.circle``) the directions of rays leaving that circle
    and reaching them stay inside the dark arc; (ii) the dark
    arc is disjoint from every image arc; (iii) exit rays traced at component
    extremes and midpoints never enter the sector.  Check (i) passes a
    point on plain float arithmetic when its direction arc clears both ends
    of the dark arc by more than ``INSIDE_MARGIN``; ``arc_contains_arc``
    decides every other point.  Check (iii) reads ``probes``, the
    ``exit_probes(d)`` traced once per decomposition and shared by every
    sector verified against it.  A failure flags an upstream resolution
    problem, not a broken construction.
    """
    circle = d.circle
    dark = Arc(s.dir_lo, s.dir_hi)
    measure = dark.measure
    rng = random.Random(seed)

    bad_points: list[Point] = []
    for _ in range(n):
        theta = s.dir_lo + rng.random() * measure
        r = circle.radius * 10.0 ** (SAMPLE_DECADES * rng.random())
        p = (s.apex[0] + r * math.cos(theta), s.apex[1] + r * math.sin(theta))
        if _clearly_inside(dark, *_direction_span(p, circle)):
            continue
        if not arc_contains_arc(dark, direction_arc(p, circle), tol=1e-12):
            bad_points.append(p)

    overlapping = sum(
        1 for c in d.components if arc_intersection_measure(dark, c.image) > 1e-12
    )

    offending: list[float] = []
    for theta, point, direction in probes:
        if ray_enters_sector(point, direction, s):
            offending.append(theta)

    return DarknessReport(
        sample_count=n,
        direction_inclusion_ok=not bad_points,
        image_disjoint_ok=overlapping == 0,
        exit_rays_ok=not offending,
        bad_points=bad_points,
        overlapping_images=overlapping,
        offending_rays=offending,
    )


def sector_report(s: DarkSector, source_arc: Arc, verification: DarknessReport) -> dict:
    """JSON-ready description of one sector, cut from the unlit arc
    ``source_arc``."""
    return {
        "arc": Arc(s.dir_lo, s.dir_hi).to_dict(),
        "source_arc": source_arc.to_dict(),
        "apex": [s.apex[0], s.apex[1]],
        "dir_lo": s.dir_lo,
        "dir_hi": s.dir_hi,
        "interior_angle": s.interior_angle,
        "tangent_points": [
            [s.tangent_points[0][0], s.tangent_points[0][1]],
            [s.tangent_points[1][0], s.tangent_points[1][1]],
        ],
        "verification": verification.to_dict(),
    }
