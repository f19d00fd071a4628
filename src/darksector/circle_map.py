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

from .arcs import (
    Arc,
    _pieces,
    angle_distance,
    arc_difference,
    arc_intersection_measure,
)
from .exact_angle import TWO_PI, GroupElement, apply, inverse, wrap_angle
from .scene import EnclosingCircle, Scene, scene_to_document
from .tracer import DEFAULT_BOUNCE_CAP, TraceResult, TraceStatus, trace

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


@dataclass(frozen=True)
class _Sample:
    theta: float  # may exceed 2*pi during circular refinement
    key: tuple
    isometry: GroupElement | None


def _trace_key(tr: TraceResult) -> tuple:
    # Trapped traces are keyed by status alone: their cap-length itineraries
    # are pairwise distinct at any resolution, so refining between two
    # trapped samples can never terminate in a component and would cost
    # cap-bounce traces all the way down to eps_b.
    if tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED:
        return (tr.status.value,)
    return (tr.status.value, tr.itinerary)


def _sample(scene: Scene, theta: float, cap: int) -> "_Sample":
    tr = trace(scene, wrap_angle(theta), cap)
    iso = tr.exit_dir_exact if tr.status is TraceStatus.ESCAPED else None
    return _Sample(theta, _trace_key(tr), iso)


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
    if eps_b <= 0:
        raise ValueError("eps_b must be positive")

    spacing = TWO_PI / seeds
    samples = [_sample(scene, i * spacing, cap) for i in range(seeds)]

    # Circular adjacency: close the ring with a shifted copy of seed 0.
    first = samples[0]
    sentinel = _Sample(first.theta + TWO_PI, first.key, first.isometry)
    ring = samples + [sentinel]

    extras: list[_Sample] = []
    pending = [
        (ring[i], ring[i + 1])
        for i in range(seeds)
        if ring[i].key != ring[i + 1].key
    ]
    while pending:
        a, b = pending.pop()
        if b.theta - a.theta <= eps_b:
            continue
        mid = _sample(scene, 0.5 * (a.theta + b.theta), cap)
        extras.append(mid)
        if mid.key != a.key:
            pending.append((a, mid))
        if mid.key != b.key:
            pending.append((mid, b))

    ordered = sorted(samples + extras, key=lambda s: s.theta)
    n = len(ordered)
    cuts = [i for i in range(n) if ordered[i].key != ordered[i - 1].key]

    components: list[MapComponent] = []
    trapped: list[Arc] = []
    boundaries: list[float] = []

    def emit_run(run: list[_Sample], arc: Arc) -> None:
        status = run[0].key[0]
        if status == TraceStatus.ESCAPED.value:
            # the run shares one itinerary, and trace derives the exact
            # isometry from the itinerary alone
            iso = run[0].isometry
            components.append(
                MapComponent(
                    arc=arc,
                    itinerary=run[0].key[1],
                    isometry=iso,
                    image=_image_of(arc, iso),
                )
            )
        elif status == TraceStatus.BOUNCE_CAP_EXCEEDED.value:
            trapped.append(arc)
        # singular runs only contribute their boundaries

    if not cuts:
        emit_run(ordered, Arc(0.0, 0.0))
    else:
        for j, start_idx in enumerate(cuts):
            prev = ordered[start_idx - 1]
            cur = ordered[start_idx]
            gap = (cur.theta - prev.theta) % TWO_PI
            boundaries.append(wrap_angle(prev.theta + 0.5 * gap))
        for j, start_idx in enumerate(cuts):
            end_idx = cuts[(j + 1) % len(cuts)]
            if end_idx > start_idx:
                run = ordered[start_idx:end_idx]
            else:
                run = ordered[start_idx:] + ordered[:end_idx]
            arc = Arc(boundaries[j], boundaries[(j + 1) % len(cuts)])
            emit_run(run, arc)

    components.sort(key=lambda c: c.arc.start)
    return Decomposition(
        scene=scene,
        circle=circle,
        params=DecompositionParams(seeds=seeds, eps_b=eps_b, cap=cap),
        components=tuple(components),
        singular_directions=tuple(sorted(boundaries)),
        trapped_arcs=tuple(sorted(trapped, key=lambda a: a.start)),
        escape_measure=sum(c.arc.measure for c in components),
    )


def is_injective(d: Decomposition) -> tuple[bool, tuple[float, float] | None]:
    """Whether the exit-direction map is injective on the resolved arcs.

    On a positive-measure overlap of two image arcs the overlap midpoint is
    pulled back through both isometries, yielding launch directions
    theta1 != theta2 with equal exit directions.  Only the pairs whose image
    arcs overlap are tested, in ascending index order; every other pair has
    intersection measure 0.
    """
    comps = d.components
    for i, j in _overlapping_pairs([c.image for c in comps]):
        if arc_intersection_measure(comps[i].image, comps[j].image) <= MIN_OVERLAP:
            continue
        overlap = _widest_overlap(comps[i].image, comps[j].image)
        if overlap is None:
            continue
        lo, hi = overlap
        for frac in (0.5, 0.25, 0.75):
            phi = wrap_angle(lo + frac * (hi - lo))
            t1 = apply(inverse(comps[i].isometry), phi)
            t2 = apply(inverse(comps[j].isometry), phi)
            if angle_distance(t1, t2) > 1e-9:
                return False, (t1, t2)
    return True, None


def _overlapping_pairs(arcs: list[Arc]) -> list[tuple[int, int]]:
    """The index pairs i < j, ascending, of arcs that share a linear piece
    of positive length.

    Sort-and-sweep over the pieces: a piece overlaps an earlier-starting one
    exactly when it starts before that one ends.
    """
    pieces = sorted((lo, hi, i) for i, a in enumerate(arcs) for lo, hi in _pieces(a))
    pairs: set[tuple[int, int]] = set()
    active: list[tuple[float, int]] = []  # (end, index) of the pieces still open
    for lo, hi, i in pieces:
        active = [(end, j) for end, j in active if end > lo]
        for _, j in active:
            if j != i:
                pairs.add((j, i) if j < i else (i, j))
        active.append((hi, i))
    return sorted(pairs)


def _widest_overlap(a: Arc, b: Arc) -> tuple[float, float] | None:
    best = None
    for alo, ahi in _pieces(a):
        for blo, bhi in _pieces(b):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
    return best


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
        "circle": {
            "center": [d.circle.center[0], d.circle.center[1]],
            "radius": d.circle.radius,
        },
        "params": {
            "seeds": d.params.seeds,
            "eps_b": d.params.eps_b,
            "bounce_cap": d.params.cap,
        },
        "escape_measure": d.escape_measure,
        "components": [
            {
                "arc": c.arc.to_dict(),
                "itinerary": [[k, side] for k, side in c.itinerary],
                "isometry": c.isometry.to_dict(),
                "image": c.image.to_dict(),
            }
            for c in d.components
        ],
        "trapped_arcs": [a.to_dict() for a in d.trapped_arcs],
        "singular_directions": list(d.singular_directions),
    }
