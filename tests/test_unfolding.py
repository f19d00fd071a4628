import math
import random

import pytest

from conftest import (
    cell_count_euler,
    compose,
    make_parallel_scene,
    make_single_mirror_scene,
    make_toy_scene,
    walk_cone_cycles,
)
from darksector.exact_angle import GroupElement, make_rational_turn
from darksector.scene import Mirror, Scene
from darksector.scenegen import random_scene
from darksector.unfolding import build_surface, census_report, cone_cycles, total_dark_angle

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


def census_of(scene: Scene, **kwargs):
    """The surface, its census document and the walked cone cycles."""
    s = build_surface(scene, **kwargs)
    return s, census_report(s, cone_cycles(s)), walk_cone_cycles(s)


class TestBuildSurface:
    def test_toy_scene_four_sheets(self):
        s = build_surface(make_toy_scene())
        assert s.sheet_count == 4
        # canonical sheet order: rotations then reflections, by offset in
        # units of pi/2
        assert s.sheets == (
            GroupElement(1, 0, 2),
            GroupElement(1, 2, 2),
            GroupElement(-1, 0, 2),
            GroupElement(-1, 2, 2),
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

    def test_gluings_swap_rotations_and_reflections(self):
        # the closed-form census rests on this: a reflection glues each
        # rotation to a reflection and back, never a sheet to itself, so every
        # cone cycle has two sheets and the census cannot come out
        # inconsistent
        rng = random.Random(1618)
        scenes = [make_toy_scene(), three_parallel_scene()]
        scenes += [random_scene(rng, max_den=30) for _ in range(200)]
        for scene in scenes:
            s = build_surface(scene)
            half = s.sheet_count // 2
            assert [g.s for g in s.sheets] == [1] * half + [-1] * half
            for perm in s.gluings:
                assert sorted(perm) == list(range(s.sheet_count))
                for i, j in enumerate(perm):
                    assert j != i and perm[j] == i
                    assert s.sheets[i].s == -s.sheets[j].s

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
        # the closed-form gluings against composing each sheet with sigma_k,
        # the reflection theta -> 2*a_k*pi - theta in mirror k's line
        rng = random.Random(20111)
        scenes = [make_toy_scene()] + [random_scene(rng, max_den=30) for _ in range(250)]
        for scene in scenes:
            s = build_surface(scene)
            unit = scene.angle_unit
            for k, m in enumerate(scene.mirrors):
                sigma = GroupElement(-1, int(2 * m.angle.fraction * unit) % (2 * unit), unit)
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
        assert all(c["length"] == 2 for c in cycles)
        assert all(c["cone_angle"] == pytest.approx(4 * math.pi) for c in cycles)

    def test_single_mirror_two_cycles(self):
        s = build_surface(make_single_mirror_scene())
        cycles = cone_cycles(s)
        assert len(cycles) == 2
        assert all(c["length"] == 2 for c in cycles)

    def test_three_parallel_six_cycles(self):
        s = build_surface(three_parallel_scene())
        assert len(cone_cycles(s)) == 6

    def test_every_incidence_in_exactly_one_cycle(self):
        rng = random.Random(2718)
        for _ in range(20):
            s = build_surface(random_scene(rng), group_cap=100000)
            cycles = cone_cycles(s)
            incidences = [
                (c["slit"], c["endpoint"], i) for c in cycles for i in c["sheets"]
            ]
            assert len(incidences) == len(set(incidences))
            assert len(incidences) == 2 * s.slit_count * s.sheet_count


class TestCensus:
    def test_toy_scene_torus(self):
        s, doc, walk = census_of(make_toy_scene())
        assert doc["sheet_count"] == 4
        assert len(doc["zeros"]) == 8
        assert all(z["order"] == 1 for z in doc["zeros"])
        assert len(doc["poles"]) == 4
        assert all(p["order"] == 2 and p["residue"] == 0 for p in doc["poles"])
        assert doc["degree"] == 0
        assert doc["genus"] == 1
        assert doc["euler_characteristic"] == 0
        assert cell_count_euler(s, walk) == 0

    def test_single_mirror_sphere(self):
        s, doc, walk = census_of(make_single_mirror_scene())
        assert (doc["sheet_count"], len(doc["zeros"]), doc["degree"], doc["genus"]) == (2, 2, -2, 0)
        assert doc["euler_characteristic"] == cell_count_euler(s, walk) == 2

    def test_three_parallel_genus_two(self):
        s, doc, walk = census_of(three_parallel_scene())
        assert (doc["sheet_count"], len(doc["zeros"]), doc["degree"], doc["genus"]) == (2, 6, 2, 2)
        assert doc["euler_characteristic"] == cell_count_euler(s, walk) == -2

    def test_two_parallel_is_also_a_torus(self):
        s, doc, walk = census_of(make_parallel_scene())
        assert (doc["sheet_count"], doc["genus"]) == (2, 1)
        assert doc["euler_characteristic"] == cell_count_euler(s, walk) == 0

    def test_degree_formula_on_random_scenes(self):
        rng = random.Random(60221023)
        for _ in range(100):
            s, doc, walk = census_of(random_scene(rng), group_cap=100000)
            genus = doc["genus"]
            assert genus >= 0
            assert sum(z["order"] for z in doc["zeros"]) - 2 * doc["sheet_count"] == 2 * genus - 2
            assert doc["degree"] == 2 * genus - 2
            assert doc["euler_characteristic"] == cell_count_euler(s, walk) == 2 - 2 * genus
            assert len(doc["zeros"]) == s.slit_count * s.sheet_count

    def test_report_matches_the_oracles_on_random_scenes(self):
        rng = random.Random(8128)
        for _ in range(400):
            s, doc, walk = census_of(random_scene(rng, max_den=30))
            rows = doc["cycles"]
            assert [(r["slit"], r["endpoint"], r["sheets"]) for r in rows] == walk
            assert [(r["length"], r["cone_angle"]) for r in rows] == [
                (len(c), TWO_PI * len(c)) for _, _, c in walk
            ]
            zeros = [(z["slit"], z["endpoint"], z["order"]) for z in doc["zeros"]]
            assert zeros == [(k, e, len(c) - 1) for k, e, c in walk]
            assert doc["poles"] == [
                {"sheet_index": i, "order": 2, "residue": 0} for i in range(s.sheet_count)
            ]
            assert doc["euler_characteristic"] == cell_count_euler(s, walk)
            assert doc["genus"] == 1 + s.sheet_count // 2 * (s.slit_count - 2)
            assert len(doc["zeros"]) == s.slit_count * s.sheet_count

    def test_report_shape(self):
        s = build_surface(make_toy_scene())
        rep = census_report(s, cone_cycles(s))
        assert rep["sheet_count"] == 4
        assert rep["genus"] == 1
        assert rep["euler_characteristic"] == 0
        assert len(rep["cycles"]) == 8
        assert len(rep["gluings"]) == 2


class TestTotalDarkAngle:
    def test_toy_scene_three_full_turns(self):
        s = build_surface(make_toy_scene())
        assert total_dark_angle(s.sheet_count, TWO_PI) == pytest.approx(6 * math.pi)

    def test_single_mirror_one_turn(self):
        s = build_surface(make_single_mirror_scene())
        assert total_dark_angle(s.sheet_count, TWO_PI) == pytest.approx(2 * math.pi)

    def test_single_sheet_would_be_zero(self):
        assert total_dark_angle(1, TWO_PI) == 0.0

    def test_trapped_directions_are_dark_on_every_sheet(self):
        # six sheets and a quarter turn trapped: every infinity misses the
        # trapped quarter, 6 * 2pi - 7pi/4 in all, not 5 copies of 7pi/4
        escape = TWO_PI - math.pi / 4
        assert total_dark_angle(6, escape) == pytest.approx(6 * TWO_PI - escape)
        assert total_dark_angle(6, escape) - 5 * escape == pytest.approx(6 * math.pi / 4)
