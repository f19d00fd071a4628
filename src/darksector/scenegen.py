"""Random valid scenes for property tests and demos.

Each scene draws a common angle denominator, so all mirror-line angles are
exact rationals with a bounded denominator and the reflection group stays
small; mirrors are rejection-sampled to keep a comfortable pairwise gap.
"""

from __future__ import annotations

import random

from .exact_angle import make_rational_turn
from .scene import Mirror, Point, Scene, endpoints, point_segment_distance, segment_distance


# anchors and the source are drawn from the square [-BOX, BOX]^2
BOX = 3.0
# least gap between two mirrors, and between the source and a mirror
MIN_SEP = 0.05
SOURCE_CLEARANCE = 0.1
# mirror lengths are drawn from [MIN_LEN, MAX_LEN]
MIN_LEN = 0.3
MAX_LEN = 1.5


def random_scene(rng: random.Random, n_mirrors: int | None = None, max_den: int = 12) -> Scene:
    """A valid scene with 1..6 disjoint mirrors at random rational angles."""
    n = n_mirrors if n_mirrors is not None else rng.randint(1, 6)
    den = rng.randint(1, max_den)
    mirrors: list[Mirror] = []
    placed: list[tuple[Point, Point]] = []
    for _ in range(n):
        for _attempt in range(200):
            angle = make_rational_turn(rng.randrange(2 * den), den)
            anchor = (rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
            length = rng.uniform(MIN_LEN, MAX_LEN)
            m = Mirror(anchor=anchor, length=length, angle=angle)
            a, b = endpoints(m)
            if all(segment_distance(a, b, *seg) >= MIN_SEP for seg in placed):
                mirrors.append(m)
                placed.append((a, b))
                break
        # if placement keeps failing the scene simply has fewer mirrors
    while True:
        source = (rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
        if all(
            point_segment_distance(source, a, b) >= SOURCE_CLEARANCE
            for a, b in placed
        ):
            break
    return Scene(mirrors=tuple(mirrors), source=source)
