"""Random valid scenes for property tests and demos.

Each scene draws a common angle denominator, so all mirror-line angles are
exact rationals with a bounded denominator and the reflection group stays
small; mirrors are rejection-sampled to keep a comfortable pairwise gap.
"""

from __future__ import annotations

import random

from .exact_angle import make_rational_turn
from .scene import Mirror, Point, Scene, endpoints, point_segment_distance, segment_distance


def random_scene(
    rng: random.Random,
    n_mirrors: int | None = None,
    max_den: int = 12,
    box: float = 3.0,
    min_sep: float = 0.05,
    source_clearance: float = 0.1,
    min_len: float = 0.3,
    max_len: float = 1.5,
) -> Scene:
    """A valid scene with 1..6 disjoint mirrors at random rational angles."""
    n = n_mirrors if n_mirrors is not None else rng.randint(1, 6)
    den = rng.randint(1, max_den)
    mirrors: list[Mirror] = []
    placed: list[tuple[Point, Point]] = []
    for _ in range(n):
        for _attempt in range(200):
            angle = make_rational_turn(rng.randrange(2 * den), den)
            anchor = (rng.uniform(-box, box), rng.uniform(-box, box))
            length = rng.uniform(min_len, max_len)
            m = Mirror(anchor=anchor, length=length, angle=angle)
            a, b = endpoints(m)
            if all(segment_distance(a, b, *seg) >= min_sep for seg in placed):
                mirrors.append(m)
                placed.append((a, b))
                break
        # if placement keeps failing the scene simply has fewer mirrors
    while True:
        source = (rng.uniform(-box, box), rng.uniform(-box, box))
        if all(
            point_segment_distance(source, a, b) >= source_clearance
            for a, b in placed
        ):
            break
    return Scene(mirrors=tuple(mirrors), source=source)
