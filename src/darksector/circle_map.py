"""The escape-direction circle map and its arc decomposition.

The set of launch directions whose ray escapes to infinity is open; on each
maximal arc with constant itinerary the exit direction is a fixed exact
isometry of the launch direction.  This module samples the circle, refines
itinerary boundaries by bisection, and derives the per-arc isometries, their
image arcs, an injectivity test, and the unlit arcs (escape directions that
no exit ray attains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arcs import Arc, _pieces, angle_distance, arc_difference
from .exact_angle import TWO_PI, GroupElement, apply, inverse, wrap_angle
from .scene import EnclosingCircle, Scene, scene_to_document
from .tracer import DEFAULT_BOUNCE_CAP, TraceStatus, trace

DEFAULT_SEEDS = 4096
DEFAULT_EPS_B = 1e-10

# Image arcs overlapping by at most this measure count as disjoint.
MIN_OVERLAP = 1e-9


@dataclass(frozen=True)
class MapComponent:
    """One maximal escape arc: constant itinerary, one exact isometry."""

    arc: Arc
    itinerary: tuple[tuple[int, int], ...]
    isometry: GroupElement
    image: Arc


@dataclass(frozen=True)
class DecompositionParams:
    seeds: int
    eps_b: float
    cap: int


@dataclass(frozen=True)
class Decomposition:
    scene: Scene
    circle: EnclosingCircle
    params: DecompositionParams
    components: tuple[MapComponent, ...]
    singular_directions: tuple[float, ...]  # localized run boundaries
    trapped_arcs: tuple[Arc, ...]  # bounce-cap-exceeded runs
    escape_measure: float


class _Sample(NamedTuple):
    theta: float  # may exceed 2*pi during circular refinement; trace wraps it
    key: tuple  # (TraceStatus,) or (TraceStatus, itinerary)
    isometry: GroupElement | None


def _sample(scene: Scene, theta: float, cap: int) -> "_Sample":
    tr = trace(scene, theta, cap)
    status = tr.status
    # Trapped traces are keyed by status alone: their cap-length itineraries
    # are pairwise distinct at any resolution, so refining between two
    # trapped samples can never terminate in a component and would cost
    # cap-bounce traces all the way down to eps_b.
    if status is TraceStatus.BOUNCE_CAP_EXCEEDED:
        return _Sample(theta, (status,), None)
    iso = tr.exit_dir_exact if status is TraceStatus.ESCAPED else None
    return _Sample(theta, (status, tr.itinerary), iso)


def _image_of(arc: Arc, g: GroupElement) -> Arc:
    """Endpoint-wise image; orientation reverses when the isometry does."""
    fa = apply(g, arc.start)
    fb = apply(g, arc.end)
    if arc.start == arc.end:  # full circle maps onto the full circle
        return Arc(fa, fa)
    return Arc(fa, fb) if g.s == 1 else Arc(fb, fa)


def decompose(
    scene: Scene,
    circle: EnclosingCircle,
    seeds: int = DEFAULT_SEEDS,
    eps_b: float = DEFAULT_EPS_B,
    cap: int = DEFAULT_BOUNCE_CAP,
) -> Decomposition:
    """Sample ``seeds`` equispaced directions and bisect itinerary boundaries
    down to ``eps_b``.

    Maximal runs of equal (status, itinerary) keys become components (escaped)
    or trapped arcs (bounce cap exceeded); the localized boundaries between
    runs are reported as singular directions.  Components narrower than the
    seed spacing can be missed; the measure bookkeeping stays honest because
    only resolved arcs are counted.

    Near a trapped band the escape set accumulates infinitely many shrinking
    components, so refinement cost grows as eps_b shrinks; prefer a coarser
    eps_b for scenes with facing parallel mirrors.
    """
    if seeds < 8:
        raise ValueError("need at least 8 seed directions")
    if not eps_b > 0:  # NaN too: it would bisect down to adjacent floats
        raise ValueError("eps_b must be positive")

    spacing = TWO_PI / seeds
    samples = [_sample(scene, i * spacing, cap) for i in range(seeds)]

    # Circular adjacency: close the ring with a shifted copy of seed 0.
    ring = samples + [samples[0]._replace(theta=samples[0].theta + TWO_PI)]
    pending = [(a, b) for a, b in zip(ring, ring[1:]) if a.key != b.key]
    while pending:
        a, b = pending.pop()
        theta = 0.5 * (a.theta + b.theta)
        # between adjacent floats the midpoint rounds to one of them, and
        # sampling it would push the same pair back forever
        if b.theta - a.theta <= eps_b or theta == a.theta or theta == b.theta:
            continue
        mid = _sample(scene, theta, cap)
        samples.append(mid)
        if mid.key != a.key:
            pending.append((a, mid))
        if mid.key != b.key:
            pending.append((mid, b))
    samples.sort(key=lambda s: s.theta)

    # Each neighbouring pair with different keys, (samples[-1], samples[0])
    # included, starts a run at the midpoint of the pair; the run's first
    # sample stands for all of it.  One key all round is one full-circle run.
    starts = [
        (b, wrap_angle(a.theta + 0.5 * ((b.theta - a.theta) % TWO_PI)))
        for a, b in zip(samples[-1:] + samples, samples)
        if a.key != b.key
    ]
    runs = [
        (s, Arc(lo, hi)) for (s, lo), (_, hi) in zip(starts, starts[1:] + starts[:1])
    ] or [(samples[0], Arc(0.0, 0.0))]
    # trace derives the exact isometry from the itinerary alone, so the first
    # sample's isometry is the run's; singular runs only give their boundaries
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


def is_injective(d: Decomposition) -> tuple[bool, tuple[float, float] | None]:
    """Whether the exit-direction map is injective on the resolved arcs.

    On a positive-measure overlap of two image arcs the overlap midpoint is
    pulled back through both isometries, yielding launch directions
    theta1 != theta2 with equal exit directions.

    One sort-and-sweep over the images' linear pieces finds every overlap
    span: a piece overlaps an earlier-starting one exactly when it starts
    before that one ends.  The pairs are then tested in ascending index
    order, each on its widest span (the later one on a tie).
    """
    comps = d.components
    pieces = sorted((lo, hi, i) for i, c in enumerate(comps) for lo, hi in _pieces(c.image))
    spans: dict[tuple[int, int], list[tuple[float, float]]] = {}
    active: list[tuple[float, int]] = []  # (end, index) of the pieces still open
    for lo, hi, i in pieces:
        active = [(end, j) for end, j in active if end > lo]
        # the pieces of one arc are disjoint, so j != i
        for end, j in active:
            spans.setdefault((j, i) if j < i else (i, j), []).append((lo, min(hi, end)))
        active.append((hi, i))
    for (i, j), found in sorted(spans.items()):
        # latest start first: max keeps the later of two equal spans, and
        # the sum rounds as arc_intersection_measure's does
        found.reverse()
        if sum(hi - lo for lo, hi in found) <= MIN_OVERLAP:
            continue
        lo, hi = max(found, key=lambda span: span[1] - span[0])
        for frac in (0.5, 0.25, 0.75):
            phi = wrap_angle(lo + frac * (hi - lo))
            t1 = apply(inverse(comps[i].isometry), phi)
            t2 = apply(inverse(comps[j].isometry), phi)
            if angle_distance(t1, t2) > 1e-9:
                return False, (t1, t2)
    return True, None


def unlit_arcs(d: Decomposition) -> list[Arc]:
    """Escape arcs minus the closure of all image arcs, trimmed by eps_b.

    Each returned arc is a certificate candidate: a band of directions in
    which rays do escape but no exit ray travels.  Arcs thinner than the
    boundary resolution are dropped rather than reported.
    """
    eps = d.params.eps_b
    domain = [c.arc for c in d.components]
    images = [c.image for c in d.components]
    out = []
    for a in arc_difference(domain, images):
        if a.measure <= 4 * eps:
            continue
        out.append(Arc(a.start + eps, a.end - eps))
    return out


def decomposition_report(d: Decomposition) -> dict:
    """JSON-ready report: arcs, itineraries, exact isometries, parameters."""
    return {
        "scene": scene_to_document(d.scene),
        "circle": {"center": d.circle.center, "radius": d.circle.radius},
        "params": {
            "seeds": d.params.seeds,
            "eps_b": d.params.eps_b,
            "bounce_cap": d.params.cap,
        },
        "escape_measure": d.escape_measure,
        "components": [
            {
                "arc": c.arc.to_dict(),
                "itinerary": c.itinerary,
                "isometry": c.isometry.to_dict(),
                "image": c.image.to_dict(),
            }
            for c in d.components
        ],
        "trapped_arcs": [a.to_dict() for a in d.trapped_arcs],
        "singular_directions": d.singular_directions,
    }
