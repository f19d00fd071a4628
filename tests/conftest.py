import hashlib
import math
import random
from bisect import bisect_left
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
from darksector.scene import EnclosingCircle, Mirror, Point, Scene, endpoints
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


def make_dihedral_scene(n: int) -> Scene:
    """Mirrors at angles 0 and pi/n, one above the other: a reflection group
    of order 2n."""
    return Scene(
        mirrors=(
            Mirror(anchor=(-1.0, 0.0), length=2.0, angle=make_rational_turn(0, 1)),
            Mirror(anchor=(-1.0, 1.0), length=2.0, angle=make_rational_turn(1, n)),
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


# characters of each text shown on either side of the first difference
TEXT_CONTEXT = 30


def assert_same_text(actual: str, expected: str, label=None) -> None:
    """Fail at once when two report-sized texts differ, with both lengths,
    both SHA-256 digests, the first differing index and the text around it.
    pytest's own explanation of ``assert a == b`` diffs the two texts line
    by line, which runs for minutes on a multi-megabyte report."""
    if actual == expected:
        return
    block, i = 4096, 0
    while actual[i:i + block] == expected[i:i + block]:
        i += block
    while actual[i:i + 1] == expected[i:i + 1]:
        i += 1
    lo, hi = max(i - TEXT_CONTEXT, 0), i + TEXT_CONTEXT

    def describe(text):
        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
        return f"{len(text)} characters, sha256 {digest}, around it {text[lo:hi]!r}"

    pytest.fail(f"{'' if label is None else f'{label}: '}texts differ first at index {i}\n"
                f"  actual:   {describe(actual)}\n  expected: {describe(expected)}")


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
                    # a gluing that is no permutation would walk forever
                    assert len(cycle) < len(perm), f"slit {k} never leads back to sheet {start}"
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


class WitnessViolation(NamedTuple):
    """A failed witness check.  Check 1, the tiling, names the window (an
    arc of ``d.components`` or ``d.trapped_arcs``) by its start.  Check 2
    names the component, its leg (0 leaves the source, j the j-th bounce),
    the mirror endpoint (1-based mirror, 0 its anchor or 1 its far end)
    strictly inside the leg's span, and the launch direction whose leg runs
    through that endpoint."""

    check: int
    start: float  # the window's start
    component: int | None = None
    leg: int | None = None
    endpoint: tuple[int, int] | None = None
    launch: float | None = None


def _reflect(p: Point, m: Mirror) -> Point:
    """p reflected across the line of mirror m."""
    t = m.angle.radians()
    ux, uy = math.cos(t), math.sin(t)
    vx, vy = p[0] - m.anchor[0], p[1] - m.anchor[1]
    along = vx * ux + vy * uy
    return (m.anchor[0] + 2.0 * along * ux - vx, m.anchor[1] + 2.0 * along * uy - vy)


def _side(m: Mirror, p: Point) -> float:
    """Positive, negative or zero as p lies left of, right of or on m's line."""
    t = m.angle.radians()
    return math.cos(t) * (p[1] - m.anchor[1]) - math.sin(t) * (p[0] - m.anchor[0])


def _distance_to_line(apex: Point, phi: float, m: Mirror) -> float:
    """How far the ray from apex in direction phi runs to m's line; inf
    when it never gets there."""
    t = m.angle.radians()
    ux, uy = math.cos(t), math.sin(t)
    denom = ux * math.sin(phi) - uy * math.cos(phi)
    if denom == 0.0:
        return math.inf
    dist = (ux * (m.anchor[1] - apex[1]) - uy * (m.anchor[0] - apex[0])) / denom
    return dist if dist > 0.0 else math.inf


def witness_violations(d: Decomposition) -> list[WitnessViolation]:
    """Oracle for the decomposition as a certificate, after McConnell,
    Mehlhorn, Naher & Schweitzer, "Certifying algorithms" (2011): checks
    1 and 2 of ROADMAP item 9, on the windows alone.

    1. The windows tile the circle: each component and trapped arc runs from
       one of ``singular_directions`` to the next, and no two share a start;
       the runs left over are the singular gaps.
    2. Every leg of every component has one outcome across the window.  The
       leg's rays come from its virtual apex, the source reflected across
       the mirrors of the itinerary so far, in a span of directions as wide
       as the window.  No mirror endpoint may lie strictly inside that span,
       by more than 2*eps_b (the boundaries' bisection error), beyond the
       portal mirror's line and no farther than the hit mirror, or, on the
       last leg, at any distance.  Such an endpoint splits the leg, so a
       component was missed there.
    """
    out = []
    bounds = sorted(d.singular_directions)
    windows = sorted([c.arc for c in d.components] + list(d.trapped_arcs),
                     key=lambda a: a.start)
    for j, arc in enumerate(windows):
        if not bounds:  # one run, the whole circle
            tiles = len(windows) == 1 and arc.start == arc.end
        else:
            i = bisect_left(bounds, arc.start)
            tiles = (i < len(bounds) and bounds[i] == arc.start
                     and arc.end == bounds[(i + 1) % len(bounds)]
                     and not (j and windows[j - 1].start == arc.start))
        if not tiles:
            out.append(WitnessViolation(1, arc.start))

    mirrors = d.scene.mirrors
    ends = [(k, e, p) for k, m in enumerate(mirrors, start=1) for e, p in enumerate(endpoints(m))]
    margin = 2.0 * d.params.eps_b
    for i, c in enumerate(d.components):
        width = c.arc.measure
        apex, lo, portal = d.scene.source, c.arc.start, None
        for leg, (hit, _) in enumerate([*c.itinerary, (None, None)]):
            for k, e, p in ends:
                if k == portal:
                    continue
                phi = math.atan2(p[1] - apex[1], p[0] - apex[0])
                off = (phi - lo) % TWO_PI
                if not margin < off < width - margin:
                    continue
                if portal is not None and (
                        _side(mirrors[portal - 1], p) * _side(mirrors[portal - 1], apex) >= 0.0):
                    continue  # not beyond the portal
                if hit is not None and k != hit and (
                        math.dist(apex, p) > _distance_to_line(apex, phi, mirrors[hit - 1])):
                    continue  # behind the hit mirror
                # the leg's direction is the launch's, turned, and reversed on odd legs
                launch = wrap_angle(c.arc.start + (width - off if leg % 2 else off))
                out.append(WitnessViolation(2, c.arc.start, i, leg, (k, e), launch))
            if hit is None:
                break
            m = mirrors[hit - 1]
            apex, lo, portal = _reflect(apex, m), 2.0 * m.angle.radians() - lo - width, hit
    return out
