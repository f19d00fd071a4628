import math
import random

import pytest

from conftest import make_parallel_scene, make_single_mirror_scene, make_toy_scene
from darksector.exact_angle import (
    GroupElement,
    compose,
    make_rational_turn,
    mirror_reflection_element,
)
from darksector.scene import Mirror, Scene
from darksector.scenegen import random_scene
from darksector.unfolding import (
    build_surface,
    census,
    census_report,
    cone_cycles,
    euler_check,
    total_dark_angle,
)

TWO_PI = 2.0 * math.pi


def three_parallel_scene() -> Scene:
    return Scene(
        mirrors=(
            Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
            Mirror((-1.0, 1.0), 2.0, make_rational_turn(0, 1)),
            Mirror((-1.0, 2.0), 2.0, make_rational_turn(0, 1)),
        ),
        source=(0.0, 0.5),
    )


class TestBuildSurface:
    def test_toy_scene_four_sheets(self):
        s = build_surface(make_toy_scene())
        assert s.sheet_count == 4
        # canonical sheet order: rotations then reflections, by offset
        assert s.sheets == (
            GroupElement(1, make_rational_turn(0, 1)),
            GroupElement(1, make_rational_turn(1, 1)),
            GroupElement(-1, make_rational_turn(0, 1)),
            GroupElement(-1, make_rational_turn(1, 1)),
        )
        # hand-computed left-multiplication tables for the two slits
        assert s.gluings == ((2, 3, 0, 1), (3, 2, 1, 0))

    def test_single_mirror_two_sheets(self):
        s = build_surface(make_single_mirror_scene())
        assert s.sheet_count == 2
        assert s.gluings == ((1, 0),)

    def test_three_parallel_mirrors(self):
        s = build_surface(three_parallel_scene())
        assert s.sheet_count == 2
        assert s.gluings == ((1, 0), (1, 0), (1, 0))

    def test_gluings_are_fixed_point_free_involutions(self):
        rng = random.Random(314)
        for _ in range(40):
            s = build_surface(random_scene(rng), group_cap=100000)
            for perm in s.gluings:
                for i, j in enumerate(perm):
                    assert j != i
                    assert perm[j] == i

    def test_gluing_graph_connected(self):
        rng = random.Random(159)
        for _ in range(40):
            s = build_surface(random_scene(rng), group_cap=100000)
            reached = {0}
            frontier = [0]
            while frontier:
                i = frontier.pop()
                for perm in s.gluings:
                    j = perm[i]
                    if j not in reached:
                        reached.add(j)
                        frontier.append(j)
            assert reached == set(range(s.sheet_count))

    def test_gluing_matches_left_multiplication(self):
        # the closed-form gluings against composing each sheet with sigma_k
        rng = random.Random(20111)
        scenes = [make_toy_scene()] + [random_scene(rng, max_den=30) for _ in range(250)]
        for scene in scenes:
            s = build_surface(scene)
            for k, m in enumerate(scene.mirrors):
                sigma = mirror_reflection_element(m.angle)
                for i, g in enumerate(s.sheets):
                    assert s.sheets[s.gluings[k][i]] == compose(sigma, g)

    def test_requires_mirrors(self):
        with pytest.raises(ValueError):
            build_surface(Scene(mirrors=(), source=(0.0, 0.0)))


class TestConeCycles:
    def test_toy_scene_eight_simple_cone_points(self):
        s = build_surface(make_toy_scene())
        cycles = cone_cycles(s)
        assert len(cycles) == 8
        assert all(c.length == 2 for c in cycles)
        assert all(c.cone_angle == pytest.approx(4 * math.pi) for c in cycles)

    def test_single_mirror_two_cycles(self):
        s = build_surface(make_single_mirror_scene())
        cycles = cone_cycles(s)
        assert len(cycles) == 2
        assert all(c.length == 2 for c in cycles)

    def test_three_parallel_six_cycles(self):
        s = build_surface(three_parallel_scene())
        assert len(cone_cycles(s)) == 6

    def test_every_incidence_in_exactly_one_cycle(self):
        rng = random.Random(2718)
        for _ in range(20):
            s = build_surface(random_scene(rng), group_cap=100000)
            cycles = cone_cycles(s)
            incidences = [
                (c.slit, c.endpoint, i) for c in cycles for i in c.sheet_cycle
            ]
            assert len(incidences) == len(set(incidences))
            assert len(incidences) == 2 * s.slit_count * s.sheet_count


class TestCensus:
    def test_toy_scene_torus(self):
        s = build_surface(make_toy_scene())
        cycles = cone_cycles(s)
        c = census(s, cycles)
        assert c.sheet_count == 4
        assert len(c.zeros) == 8
        assert all(z.order == 1 for z in c.zeros)
        assert len(c.poles) == 4
        assert all(p.order == 2 and p.residue == 0 for p in c.poles)
        assert c.degree == 0
        assert c.genus == 1
        assert euler_check(s, cycles) == 0

    def test_single_mirror_sphere(self):
        s = build_surface(make_single_mirror_scene())
        cycles = cone_cycles(s)
        c = census(s, cycles)
        assert (c.sheet_count, len(c.zeros), c.degree, c.genus) == (2, 2, -2, 0)
        assert euler_check(s, cycles) == 2

    def test_three_parallel_genus_two(self):
        s = build_surface(three_parallel_scene())
        cycles = cone_cycles(s)
        c = census(s, cycles)
        assert (c.sheet_count, len(c.zeros), c.degree, c.genus) == (2, 6, 2, 2)
        assert euler_check(s, cycles) == -2

    def test_two_parallel_is_also_a_torus(self):
        s = build_surface(make_parallel_scene())
        cycles = cone_cycles(s)
        c = census(s, cycles)
        assert (c.sheet_count, c.genus) == (2, 1)
        assert euler_check(s, cycles) == 0

    def test_degree_formula_on_random_scenes(self):
        rng = random.Random(60221023)
        for _ in range(100):
            s = build_surface(random_scene(rng), group_cap=100000)
            cycles = cone_cycles(s)
            c = census(s, cycles)
            assert c.genus >= 0
            assert sum(z.order for z in c.zeros) - 2 * c.sheet_count == 2 * c.genus - 2
            assert euler_check(s, cycles) == 2 - 2 * c.genus
            assert len(c.zeros) == s.slit_count * s.sheet_count

    def test_report_shape(self):
        s = build_surface(make_toy_scene())
        cycles = cone_cycles(s)
        c = census(s, cycles)
        rep = census_report(s, cycles, c, euler_check(s, cycles))
        assert rep["sheet_count"] == 4
        assert rep["genus"] == 1
        assert rep["euler_characteristic"] == 0
        assert len(rep["cycles"]) == 8
        assert len(rep["gluings"]) == 2

    def test_inconsistent_surface_is_reported(self):
        # four sheets glued along a single slit can come from no scene (one
        # mirror generates a two-element group); the degree bookkeeping
        # yields a negative genus and must fail loudly
        from darksector.exact_angle import generate_group, sorted_elements
        from darksector.unfolding import CensusError, UnfoldedSurface

        group = generate_group(
            {make_rational_turn(0, 1), make_rational_turn(1, 2)}
        )
        fake = UnfoldedSurface(
            sheets=tuple(sorted_elements(group)),
            gluings=((2, 3, 0, 1),),
            group=group,
        )
        cycles = cone_cycles(fake)
        with pytest.raises(CensusError):
            census(fake, cycles)


class TestTotalDarkAngle:
    def test_toy_scene_three_full_turns(self):
        s = build_surface(make_toy_scene())
        c = census(s, cone_cycles(s))
        assert total_dark_angle(c, TWO_PI) == pytest.approx(6 * math.pi)

    def test_single_mirror_one_turn(self):
        s = build_surface(make_single_mirror_scene())
        c = census(s, cone_cycles(s))
        assert total_dark_angle(c, TWO_PI) == pytest.approx(2 * math.pi)

    def test_single_sheet_would_be_zero(self):
        from darksector.unfolding import SurfaceCensus

        c = SurfaceCensus(sheet_count=1, zeros=(), poles=(), degree=-2, genus=0)
        assert total_dark_angle(c, TWO_PI) == 0.0
