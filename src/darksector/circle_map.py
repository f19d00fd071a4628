"""The escape-direction circle map and its arc decomposition.

The set of launch directions whose ray escapes to infinity is open; on each
maximal arc with constant itinerary the exit direction is a fixed exact
isometry of the launch direction.  This module samples the circle, refines
itinerary boundaries by bisection, and derives the per-arc isometries, their
image arcs, an injectivity test, and the unlit arcs (escape directions that
no exit ray attains).

A sample costs its trace and little else, under the tracer's hot-path rule
(no Python frame per bounce, one per leg table in a long trace, and no
path built): a plain tuple ``(theta, key, isometry)``, no NamedTuple
constructor frame, and statuses tested against the tracer's module
constants, not the Enum.
"""

from __future__ import annotations

from typing import NamedTuple

from .arcs import Arc, _pieces, angle_distance, arc_difference
from .exact_angle import TWO_PI, GroupElement, apply, inverse, wrap_angle
from .scene import EnclosingCircle, Scene, scene_to_document
from .tracer import BOUNCE_CAP_EXCEEDED, DEFAULT_BOUNCE_CAP, ESCAPED, trace

DEFAULT_SEEDS = 4096
DEFAULT_EPS_B = 1e-10

# Image arcs overlapping by at most this measure count as disjoint.
MIN_OVERLAP = 1e-9


class MapComponent(NamedTuple):
    """One maximal escape arc: constant itinerary, one exact isometry."""

    arc: Arc
    itinerary: tuple[tuple[int, int], ...]
    isometry: GroupElement
    image: Arc


class DecompositionParams(NamedTuple):
    seeds: int
    eps_b: float
    cap: int


class Decomposition(NamedTuple):
    scene: Scene
    circle: EnclosingCircle
    params: DecompositionParams
    components: tuple[MapComponent, ...]
    singular_directions: tuple[float, ...]  # localized run boundaries
    trapped_arcs: tuple[Arc, ...]  # bounce-cap-exceeded runs
    escape_measure: float


def _sample(scene: Scene, theta: float, cap: int) -> tuple:
    """``(theta, key, isometry)``: theta is in [0, 2*pi), as are the seeds and
    each midpoint, below its bracket's end and so the ring's sentinel TWO_PI;
    the key is ``(status,)`` or ``(status, itinerary)``; the isometry is an
    escaped trace's, else None."""
    tr = trace(scene, theta, cap)
    status = tr.status
    # Trapped traces are keyed by status alone: their cap-length itineraries
    # are pairwise distinct at any resolution, so refining between two
    # trapped samples can never terminate in a component and would cost
    # cap-bounce traces all the way down to eps_b.
    if status is BOUNCE_CAP_EXCEEDED:
        return theta, (status,), None
    return theta, (status, tr.itinerary), tr.exit_dir_exact if status is ESCAPED else None


def _image_of(arc: Arc, g: GroupElement) -> Arc:
    """Endpoint-wise image; orientation reverses when the isometry does.  A
    full circle, with equal ends, maps onto the full circle."""
    fa = apply(g, arc.start)
    fb = apply(g, arc.end)
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
    seed spacing can be missed, inside a neighbouring run; the image of a
    missed component is never subtracted, so an arc of ``unlit_arcs`` can
    hold its exit directions (ROADMAP item 2).

    Near a trapped band the escape set accumulates infinitely many shrinking
    components, so refinement cost grows as eps_b shrinks; prefer a coarser
    eps_b for scenes with facing parallel mirrors.
    """
    if seeds < 8:
        raise ValueError("need at least 8 seed directions")
    if not eps_b > 0:  # NaN too: it would bisect down to adjacent floats
        raise ValueError("eps_b must be positive")

    spacing = TWO_PI / seeds
    # the ring closes with a shifted copy of seed 0
    ring = [_sample(scene, i * spacing, cap) for i in range(seeds)]
    ring.append((TWO_PI, *ring[0][1:]))

    # Brackets, pairs of neighbouring samples with different keys, are refined
    # in ring order, left half first, so they stop in angle order.  A stopped
    # bracket is a pair of neighbours in the final sampling: it starts a run
    # at its midpoint, and its right sample, the run's first, stands for it.
    starts = []
    pending = [(a, b) for a, b in zip(ring, ring[1:]) if a[1] != b[1]][::-1]
    while pending:
        a, b = pending.pop()
        ta, tb = a[0], b[0]
        theta = 0.5 * (ta + tb)
        # between adjacent floats the midpoint rounds to one of them, and
        # sampling it would push the same pair back forever
        if tb - ta <= eps_b or theta == ta or theta == tb:
            starts.append((b, wrap_angle(ta + 0.5 * (tb - ta))))
            continue
        mid = _sample(scene, theta, cap)
        if mid[1] != b[1]:
            pending.append((mid, b))
        if mid[1] != a[1]:
            pending.append((a, mid))
    # each run ends where the next starts; no bracket is one full-circle run
    runs = [
        (s, Arc(lo, hi)) for (s, lo), (_, hi) in zip(starts, starts[1:] + starts[:1])
    ] or [(ring[0], Arc(0.0, 0.0))]
    # trace derives the exact isometry from the itinerary alone, so the first
    # sample's isometry is the run's; singular runs only give their boundaries.
    # The starts are in angle order but the last may wrap to 0.0, when the
    # last bracket ends one ulp below 2*pi, so the outputs are sorted.
    components = sorted(
        (MapComponent(arc, key[1], iso, _image_of(arc, iso))
         for (_, key, iso), arc in runs if key[0] is ESCAPED),
        key=lambda c: c.arc.start,
    )
    trapped = [arc for (_, key, _), arc in runs if key[0] is BOUNCE_CAP_EXCEEDED]
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
