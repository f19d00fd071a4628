import math
import random
from typing import NamedTuple

import pytest

from darksector.arcs import Arc, _union_pieces, arc_difference
from darksector.circle_map import (
    Decomposition,
    DecompositionParams,
    MapComponent,
    _image_of,
)
from darksector.dark_sector import DarkSector
from darksector.exact_angle import TWO_PI, GroupElement, make_rational_turn, wrap_angle
from darksector.scene import EnclosingCircle, Mirror, Point, Scene
from darksector.scenegen import random_scene
from darksector.tracer import TraceStatus, trace


# A ray meets a sector only along a stretch of its parameter longer than this.
ENTRY_MARGIN = 1e-9


def make_single_mirror_scene() -> Scene:
    """One horizontal mirror from (-1,0) to (1,0), source above at (0,1)."""
    return Scene(
        mirrors=(Mirror(anchor=(-1.0, 0.0), length=2.0, angle=make_rational_turn(0, 1)),),
        source=(0.0, 1.0),
    )


def make_toy_scene(source=(0.3, 0.7)) -> Scene:
    """Two disjoint perpendicular mirrors: one horizontal, one vertical."""
    return Scene(
        mirrors=(
            Mirror(anchor=(-1.0, 0.0), length=2.0, angle=make_rational_turn(0, 1)),
            Mirror(anchor=(1.5, 0.5), length=2.0, angle=make_rational_turn(1, 2)),
        ),
        source=source,
    )


def make_parallel_scene() -> Scene:
    """Two facing parallel mirrors with overlapping x-ranges."""
    return Scene(
        mirrors=(
            Mirror(anchor=(-1.0, 0.0), length=2.0, angle=make_rational_turn(0, 1)),
            Mirror(anchor=(-1.0, 1.0), length=2.0, angle=make_rational_turn(0, 1)),
        ),
        source=(0.0, 0.5),
    )


def make_box_scene(gap: float = 1e-3) -> Scene:
    """Four mirrors around the square [-1, 1]^2, their corners ``gap`` apart
    along each side, with the source inside."""
    side = 2.0 - 2.0 * gap
    flat, upright = make_rational_turn(0, 1), make_rational_turn(1, 2)
    return Scene(
        mirrors=(
            Mirror(anchor=(-1.0 + gap, -1.0), length=side, angle=flat),
            Mirror(anchor=(-1.0 + gap, 1.0), length=side, angle=flat),
            Mirror(anchor=(-1.0, -1.0 + gap), length=side, angle=upright),
            Mirror(anchor=(1.0, -1.0 + gap), length=side, angle=upright),
        ),
        source=(0.1, 0.2),
    )


def make_six_mirror_trap_scene() -> Scene:
    """The second draw of ``random_scene(Random(7), n_mirrors=6)``: two
    parallel mirror pairs with trapped bands between them."""
    rng = random.Random(7)
    random_scene(rng, n_mirrors=6)
    return random_scene(rng, n_mirrors=6)


@pytest.fixture
def single_mirror_scene() -> Scene:
    return make_single_mirror_scene()


@pytest.fixture
def single_mirror_circle() -> EnclosingCircle:
    return EnclosingCircle(center=(0.0, 0.5), radius=2.0)


@pytest.fixture
def toy_scene() -> Scene:
    return make_toy_scene()


@pytest.fixture
def parallel_scene() -> Scene:
    return make_parallel_scene()


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Reference group law for two elements of one angle unit: g1 after g2,
    theta -> s1*(s2*theta + k2*pi/L) + k1*pi/L."""
    s1, k1, unit = g1
    return GroupElement(s1 * g2.s, (s1 * g2.k + k1) % (2 * unit), unit)


def in_arc(a, theta: float) -> bool:
    """Whether theta lies in the open arc a."""
    return 0.0 < (theta - a.start) % (2.0 * math.pi) < a.measure


def angles_close(a: float, b: float, tol: float) -> bool:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


def walk_cone_cycles(surface) -> list[tuple[int, str, tuple[int, ...]]]:
    """Oracle for the census cycles: (slit, endpoint, sheets) of every cone
    point, found by walking around each slit endpoint.  A full turn around
    the tip inside sheet i leaves it through a lip of slit k, which the
    gluing joins to sheet perm[i]; the walk goes on until it is back in its
    first sheet.  Cycles start at their smallest sheet, in sheet order."""
    cycles = []
    for k, perm in enumerate(surface.gluings, start=1):
        for endpoint in ("first", "second"):
            seen: set[int] = set()
            for start in range(len(perm)):
                if start in seen:
                    continue
                cycle = [start]
                j = perm[start]
                while j != start:
                    cycle.append(j)
                    j = perm[j]
                seen.update(cycle)
                cycles.append((k, endpoint, tuple(cycle)))
    return cycles


def cell_count_euler(surface, cycles) -> int:
    """Oracle for the Euler characteristic, V - E + F over a cell structure:
    one vertex per cone cycle plus one per compactified sheet infinity; one
    edge per glued lip pair plus one spine edge from each sheet's infinity to
    each slit; one disc face per sheet (a sheet cut along its slits and
    spines is simply connected)."""
    m = surface.sheet_count
    vertices = len(cycles) + m
    lip_pairs = sum(len(perm) for perm in surface.gluings)  # 2*n*m lips / 2
    spine_edges = surface.slit_count * m
    return vertices - (lip_pairs + spine_edges) + m


def arcs_total_measure(arcs) -> float:
    """The measure of the union of arcs, from the interval form."""
    return sum(hi - lo for lo, hi in _union_pieces(arcs))


def arc_contains_arc(outer: Arc, inner: Arc, tol: float = 0.0) -> bool:
    """Oracle for darkness check (i), in the arc algebra: True when inner
    lies inside outer up to a measure of tol."""
    uncovered = arcs_total_measure(arc_difference([inner], [outer]))
    return uncovered <= tol


def direction_span(p: Point, circle: EnclosingCircle) -> tuple[float, float]:
    """(psi, half): the direction from the circle's center to p, and
    asin(R/d) with d the distance between them, as check (i) of
    ``verify_darkness`` computes them for its sample points."""
    dx, dy = p[0] - circle.center[0], p[1] - circle.center[1]
    d = math.hypot(dx, dy)
    if d <= circle.radius:
        raise ValueError("point must lie strictly outside the circle")
    return math.atan2(dy, dx), math.asin(circle.radius / d)


def direction_arc(p: Point, circle: EnclosingCircle) -> Arc:
    """Directions of all rays that leave the circle and pass through p,
    which must lie strictly outside it: the arc centered on the direction
    from the circle's center to p, of half-width asin(R/d)."""
    psi, half = direction_span(p, circle)
    return Arc(psi - half, psi + half)


def ray_enters_sector(origin: Point, theta: float, s: DarkSector) -> bool:
    """Oracle for darkness check (iii), in the half-plane algebra: whether
    the ray from origin in direction theta meets the open sector."""
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


class _Sample(NamedTuple):
    theta: float
    key: tuple
    isometry: GroupElement | None


def _sample(scene, theta: float, cap: int) -> _Sample:
    """A launch direction keyed from its trace alone: ``(status,)`` when
    trapped, else ``(status, itinerary)``, with an escaped trace's exact exit
    isometry."""
    tr = trace(scene, theta, cap)
    if tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED:
        return _Sample(theta, (tr.status,), None)
    iso = tr.exit_dir_exact if tr.status is TraceStatus.ESCAPED else None
    return _Sample(theta, (tr.status, tr.itinerary), iso)


def reference_decompose(scene, circle, seeds, eps_b, cap) -> Decomposition:
    """Oracle for ``decompose``: keep every sample, sort them all, and start
    a run at the midpoint of each pair of sorted neighbours with different
    keys, the wrap-around pair (last, first) included.  It samples through
    ``trace`` with a sampler of its own."""
    spacing = TWO_PI / seeds
    samples = [_sample(scene, i * spacing, cap) for i in range(seeds)]
    ring = samples + [samples[0]._replace(theta=samples[0].theta + TWO_PI)]
    pending = [(a, b) for a, b in zip(ring, ring[1:]) if a.key != b.key]
    while pending:
        a, b = pending.pop()
        theta = 0.5 * (a.theta + b.theta)
        if b.theta - a.theta <= eps_b or theta == a.theta or theta == b.theta:
            continue
        mid = _sample(scene, theta, cap)
        samples.append(mid)
        if mid.key != a.key:
            pending.append((a, mid))
        if mid.key != b.key:
            pending.append((mid, b))
    samples.sort(key=lambda s: s.theta)
    starts = [
        (b, wrap_angle(a.theta + 0.5 * ((b.theta - a.theta) % TWO_PI)))
        for a, b in zip(samples[-1:] + samples, samples)
        if a.key != b.key
    ]
    runs = [
        (s, Arc(lo, hi)) for (s, lo), (_, hi) in zip(starts, starts[1:] + starts[:1])
    ] or [(samples[0], Arc(0.0, 0.0))]
    components = sorted(
        (MapComponent(arc, s.key[1], s.isometry, _image_of(arc, s.isometry))
         for s, arc in runs if s.key[0] is TraceStatus.ESCAPED),
        key=lambda c: c.arc.start,
    )
    trapped = [arc for s, arc in runs if s.key[0] is TraceStatus.BOUNCE_CAP_EXCEEDED]
    return Decomposition(
        scene=scene,
        circle=circle,
        params=DecompositionParams(seeds=seeds, eps_b=eps_b, cap=cap),
        components=tuple(components),
        singular_directions=tuple(sorted(lo for _, lo in starts)),
        trapped_arcs=tuple(sorted(trapped, key=lambda a: a.start)),
        escape_measure=sum(c.arc.measure for c in components),
    )
