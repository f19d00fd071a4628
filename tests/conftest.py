import math
import random

import pytest

from darksector.exact_angle import GroupElement, make_rational_turn
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
