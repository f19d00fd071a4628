import json
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import darksector.unfolding as unfolding
from conftest import (
    assert_same_text,
    cell_count_euler,
    compose,
    make_dihedral_scene,
    make_parallel_scene,
    make_single_mirror_scene,
    make_toy_scene,
    walk_cone_cycles,
)
from darksector.exact_angle import GroupElement, GroupOrderError, make_rational_turn
from darksector.scene import Mirror, Scene
from darksector.scenegen import random_scene
from darksector.unfolding import (
    CHUNK_ROWS,
    CONE_ANGLE,
    build_surface,
    census_report,
    cone_cycles,
    total_dark_angle,
    write_census,
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
        # the gluing's first run is all of its rotation half when m_k = N - 1
        # and one sheet when m_k = 0; N = 1 (all mirrors parallel); order 1680
        edges = [scene_of([make_rational_turn(0, 1), make_rational_turn(4, 5),
                           make_rational_turn(9, 5)]),
                 make_single_mirror_scene(), three_parallel_scene(), make_dihedral_scene(840)]
        scenes = [make_toy_scene(), *edges] + [random_scene(rng, max_den=30) for _ in range(250)]
        seen = set()  # (m_k, N)
        for scene in scenes:
            s = build_surface(scene)
            unit, n = scene.angle_unit, s.sheet_count // 2
            for k, m in enumerate(scene.mirrors):
                seen.add((s.gluings[k][0] - n, n))
                sigma = GroupElement(-1, int(2 * m.angle.fraction * unit) % (2 * unit), unit)
                for i, g in enumerate(s.sheets):
                    assert s.sheets[s.gluings[k][i]] == compose(sigma, g)
        assert {(0, 5), (4, 5), (0, 1), (0, 840), (1, 840)} <= seen

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
            assert doc["genus"] == s.genus == 1 + s.sheet_count // 2 * (s.slit_count - 2)
            assert len(doc["zeros"]) == s.slit_count * s.sheet_count

    def test_report_shape(self):
        s = build_surface(make_toy_scene())
        rep = census_report(s, cone_cycles(s))
        assert rep["sheet_count"] == 4
        assert rep["genus"] == 1
        assert rep["euler_characteristic"] == 0
        assert len(rep["cycles"]) == 8
        assert len(rep["gluings"]) == 2


def census_text(s) -> str:
    """The oracle of write_census: the census document as json.dumps writes it."""
    return json.dumps(census_report(s, cone_cycles(s)), indent=2) + "\n"


def written(s) -> "list[str]":
    pieces = []
    write_census(s, pieces.append)
    return pieces


def rows_in(piece: str) -> int:
    """The list items a piece holds: census rows, or sheet indices of a gluing."""
    return piece.count("\n    {") + len(re.findall(r"\n      \d", piece))


def scene_of(turns) -> Scene:
    mirrors = tuple(Mirror((-1.0, float(i)), 2.0, turn) for i, turn in enumerate(turns))
    return Scene(mirrors=mirrors, source=(0.0, -0.5))


def turn_lists(denominators):
    turns = st.builds(make_rational_turn, st.integers(-2000, 2000), st.sampled_from(denominators))
    return st.one_of(
        st.lists(turns, min_size=1, max_size=6),
        # all mirrors parallel: one rotation, N = 1
        st.builds(lambda turn, count: [turn] * count, turns, st.integers(1, 6)),
    )


DIVISORS_OF_840 = [d for d in range(1, 841) if 840 % d == 0]


def surface_of(turns):
    try:
        return build_surface(scene_of(turns))
    except GroupOrderError:
        assume(False)


class TestWriteCensus:
    @settings(max_examples=100, deadline=None)
    @given(turns=turn_lists(DIVISORS_OF_840 + [11, 13, 17]))
    def test_matches_the_report_oracle(self, turns):
        s = surface_of(turns)
        assert_same_text("".join(written(s)), census_text(s))

    @settings(max_examples=100, deadline=None)
    @given(turns=turn_lists([1, 2, 3, 4, 5, 6, 8, 12]), bound=st.integers(1, 5))
    def test_pieces_split_at_any_row_bound(self, turns, bound):
        s = surface_of(turns)
        with mock.patch.object(unfolding, "CHUNK_ROWS", bound):
            pieces = written(s)
        assert_same_text("".join(pieces), census_text(s))
        assert max(map(rows_in, pieces)) <= bound

    def test_order_1680_scene(self):
        s = build_surface(make_dihedral_scene(840))
        assert s.sheet_count == 1680
        assert_same_text("".join(written(s)), census_text(s))

    def test_no_write_holds_more_than_the_row_bound(self):
        s = build_surface(make_dihedral_scene(2520))
        assert s.sheet_count // 2 > CHUNK_ROWS
        pieces = written(s)
        assert max(map(rows_in, pieces)) == CHUNK_ROWS
        assert_same_text("".join(pieces), census_text(s))

    def test_census_formats_its_one_cone_angle_once(self, monkeypatch):
        calls = []

        class Counted(float):
            def __repr__(self):
                calls.append(self)
                return float.__repr__(self)

        monkeypatch.setattr(unfolding, "CONE_ANGLE", Counted(CONE_ANGLE))
        text = "".join(written(build_surface(make_dihedral_scene(840))))
        assert text.count(f'"cone_angle": {CONE_ANGLE!r}\n') == 2 * 2 * 840
        assert len(calls) == 1


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
