import math
import random

import pytest

from darksector.exact_angle import make_rational_turn
from darksector.scene import EnclosingCircle, Mirror, Scene
from darksector.scenegen import random_scene


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


def angles_close(a: float, b: float, tol: float) -> bool:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol
