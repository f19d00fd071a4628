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
from dataclasses import dataclass

from .arcs import Arc, arc_intersection_measure
from .circle_map import Decomposition
from .exact_angle import TWO_PI, wrap_angle
from .scene import EnclosingCircle, Point
from .tracer import ESCAPED, exit_ray, trace

# Wide unlit arcs are shrunk symmetrically to just under a half turn, since
# the tangent construction needs an opening angle below pi.
MAX_SECTOR_MEASURE = math.pi - 1e-6

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


def sample_reach(eps_b: float) -> float:
    """How far from the enclosing circle's center, in radii R, check (i) of
    ``verify_darkness`` can sample a point, for a sector cut from an arc of
    ``unlit_arcs`` with boundary tolerance ``eps_b``.

    Such an arc spans more than 2*eps_b, so its sector's apex lies within
    R / sin(eps_b) of the center, and the samples within
    10**SAMPLE_DECADES * R of the apex.
    """
    return 1.0 / math.sin(eps_b) + 10.0**SAMPLE_DECADES


def _uncovered(start: float, measure: float, psi: float, half: float) -> float:
    """The measure of the directions (psi - half, psi + half) that lie
    outside the dark arc from ``start`` of ``measure`` < 2*pi.

    Measured from start, the span runs from o to o + 2*half, and the dark
    arc covers [0, measure] and, one turn on, [2*pi, 2*pi + measure]; the
    span is shorter than pi, so it meets no other copy.
    """
    o = (psi - half - start) % TWO_PI
    end = o + 2.0 * half
    covered = min(end, measure) - o if o < measure else 0.0
    if end > TWO_PI:
        covered += min(end - TWO_PI, measure)
    return 2.0 * half - covered


@dataclass
class DarknessReport:
    """Outcome of the three independent darkness checks."""

    sample_count: int
    direction_inclusion_ok: bool
    image_disjoint_ok: bool
    exit_rays_ok: bool
    bad_points: list[Point]
    overlapping_images: int
    offending_rays: list[float]

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
            "bad_points": self.bad_points[:10],
            "overlapping_images": self.overlapping_images,
            "offending_rays": self.offending_rays[:10],
        }


def exit_probes(d: Decomposition) -> list[tuple[float, float]]:
    """The exit rays of darkness check (iii) as (launch direction, exit
    direction): for each component in order, the escaped rays launched just
    inside its start, at its midpoint and just inside its end.

    They depend on the decomposition alone, so one list serves every sector
    checked against it.  Raises ValueError if a ray leaves the mirrors at a
    point not strictly inside ``d.circle``.
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
            if tr.status is ESCAPED:
                direction = tr.exit_dir_numeric
                exit_ray(tr.exit_point, direction, d.circle)  # raises if not inside
                probes.append((theta, direction))
    return probes


def verify_darkness(
    s: DarkSector,
    d: Decomposition,
    n: int,
    probes: list[tuple[float, float]],
    seed: int = 0,
) -> DarknessReport:
    """Re-check darkness of a sector against the decomposition it came from.

    (i) for n sampled sector points (log-uniform radii over [1, 1e6]*R, R
    the radius of ``d.circle``) the directions of rays leaving that circle
    and reaching them stay inside the dark arc; (ii) the dark arc is
    disjoint from every image arc; (iii) exit rays traced at component
    extremes and midpoints never enter the sector.  Check (i) fails a point
    when more than 1e-12 of its direction span lies outside the dark arc, a
    measure taken in closed form on plain floats.  A failure flags an
    upstream resolution problem, not a broken construction.

    Check (iii) reads ``probes``, the ``exit_probes(d)`` traced once per
    decomposition and shared by every sector verified against it.  With
    ``s`` built by ``build_sector`` on ``d.circle`` and every exit point
    inside ``d.circle`` (``exit_probes`` checks this), a probe's ray enters
    the open sector exactly when its exit direction lies in the open dark
    arc: rays from the disk reach sector points only in directions of the
    closed arc (what check (i) samples), and a ray from inside the disk with
    a direction strictly inside the arc ends up inside the cone.
    """
    dark = Arc(s.dir_lo, s.dir_hi)
    start, measure = dark.start, dark.measure

    # one Python call per point, _uncovered: every lookup is hoisted
    random_ = random.Random(seed).random
    cos, sin, atan2, asin, hypot = math.cos, math.sin, math.atan2, math.asin, math.hypot
    lo, (ax, ay), decades = s.dir_lo, s.apex, SAMPLE_DECADES
    (cx, cy), radius = d.circle.center, d.circle.radius
    bad_points: list[Point] = []
    for _ in range(n):
        theta = lo + random_() * measure
        r = radius * 10.0 ** (decades * random_())
        p = (ax + r * cos(theta), ay + r * sin(theta))
        # the direction span of p: the direction psi from the center to p,
        # and the half-width asin(R/dist)
        dx, dy = p[0] - cx, p[1] - cy
        dist = hypot(dx, dy)
        if dist <= radius:
            raise ValueError("point must lie strictly outside the circle")
        if _uncovered(start, measure, atan2(dy, dx), asin(radius / dist)) > 1e-12:
            bad_points.append(p)

    overlapping = sum(
        1 for c in d.components if arc_intersection_measure(dark, c.image) > 1e-12
    )

    offending = [theta for theta, direction in probes
                 if 0.0 < (direction - dark.start) % TWO_PI < measure]

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
        "apex": s.apex,
        "dir_lo": s.dir_lo,
        "dir_hi": s.dir_hi,
        "interior_angle": s.interior_angle,
        "tangent_points": s.tangent_points,
        "verification": verification.to_dict(),
    }
