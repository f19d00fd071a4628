"""Turning an unlit direction arc into a certified unilluminated planar sector.

Given an arc of escape directions that no exit ray attains, the two tangent
lines to the enclosing circle at right angles from the arc's endpoints bound
an infinite sector whose points can only be reached by rays with directions
inside that arc -- which is exactly the set with no rays.  The verification
routine re-checks this geometry in closed form at the apex, and samples
sector points only for a sector that fails the closed form.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .arcs import Arc, arc_difference, arc_intersection_measure
from .circle_map import Decomposition
from .exact_angle import TWO_PI, wrap_angle
from .scene import EnclosingCircle, Point
from .tracer import ESCAPED, exit_ray, trace

# Wide unlit arcs are shrunk symmetrically to just under a half turn, since
# the tangent construction needs an opening angle below pi.
MAX_SECTOR_MEASURE = math.pi - 1e-6

# Check (i) samples radii from the apex log-uniformly over [1, 10**SAMPLE_DECADES]*R.
SAMPLE_DECADES = 6


class DarkSector(NamedTuple):
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
    """How far from the enclosing circle's center, in radii R, the sampled
    fallback of check (i) in ``verify_darkness`` can place a point, for a
    sector cut from an arc of ``unlit_arcs`` with boundary tolerance
    ``eps_b``.

    Such an arc spans more than 2*eps_b, so its sector's apex lies within
    R / sin(eps_b) of the center, and the samples within
    10**SAMPLE_DECADES * R of the apex.
    """
    return 1.0 / math.sin(eps_b) + 10.0**SAMPLE_DECADES


def _clears_disk(s: DarkSector, circle: EnclosingCircle) -> bool:
    """Check (i)'s tangent lemma, as ``verify_darkness`` states it."""
    (cx, cy), r = circle.center, circle.radius
    vx, vy = cx - s.apex[0], cy - s.apex[1]
    floor = r - (1e-12 * r + 16.0 * 2.0**-52 * (math.hypot(vx, vy) + r))
    return (math.sin(s.dir_lo) * vx - math.cos(s.dir_lo) * vy >= floor
            and math.cos(s.dir_hi) * vy - math.sin(s.dir_hi) * vx >= floor)


class DarknessReport(NamedTuple):
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

    (i) rays from the disk of ``d.circle`` (center C, radius R) reach
    sector points only in directions of the dark arc; (ii) the dark arc is
    disjoint from every image arc; (iii) exit rays traced at component
    extremes and midpoints never enter the sector.  A failure flags an
    upstream resolution problem, not a broken construction.

    Check (i) is the tangent lemma.  The sector is V + K, V the apex and K
    the closed cone of the arc's directions, and the intersection of P - K
    over all P in V + K is V - K: so for an opening below pi, as
    ``build_sector`` makes, check (i) holds exactly when the disk lies in
    V - K, C at least R right of the lo edge's line and left of the hi
    edge's, up to a slack of 1e-12*R + 16*2**-52*(|C - V| + R) for rounding.
    A sector that misses it falls back to n points drawn from
    ``random.Random(seed)`` (log-uniform radii over [1, 10**SAMPLE_DECADES]*R
    from the apex), each bad when ``arc_difference`` leaves more than 1e-12
    of its direction span outside the dark arc.  ``sample_count`` is n.

    Check (iii) reads ``probes``, the ``exit_probes(d)`` traced once per
    decomposition and shared by every sector verified against it.  With
    ``s`` built by ``build_sector`` on ``d.circle`` and every exit point
    inside ``d.circle`` (``exit_probes`` checks this), a probe's ray enters
    the open sector exactly when its exit direction lies in the open dark
    arc: rays from the disk reach sector points only in directions of the
    closed arc (check (i)'s lemma), and a ray from inside the disk with a
    direction strictly inside the arc ends up inside the cone.
    """
    dark = Arc(s.dir_lo, s.dir_hi)
    measure = dark.measure
    bad_points: list[Point] = []
    if not _clears_disk(s, d.circle):
        rng = random.Random(seed)
        (ax, ay), (cx, cy), radius = s.apex, d.circle.center, d.circle.radius
        for _ in range(n):
            theta = s.dir_lo + rng.random() * measure
            r = radius * 10.0 ** (SAMPLE_DECADES * rng.random())
            p = (ax + r * math.cos(theta), ay + r * math.sin(theta))
            dist = math.hypot(p[0] - cx, p[1] - cy)
            if dist <= radius:
                raise ValueError("point must lie strictly outside the circle")
            psi, half = math.atan2(p[1] - cy, p[0] - cx), math.asin(radius / dist)
            outside = arc_difference([Arc(psi - half, psi + half)], [dark])
            if sum(a.measure for a in outside) > 1e-12:
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
