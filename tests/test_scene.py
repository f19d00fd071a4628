import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_toy_scene
from darksector.circle_map import decompose
from darksector.exact_angle import make_rational_turn
from darksector.scene import (
    MIN_SEPARATION,
    Mirror,
    Scene,
    SceneFormatError,
    enclosing_circle,
    endpoints,
    load_scene,
    point_segment_distance,
    save_scene,
    scene_to_document,
    segment_distance,
    validate_scene,
)
from darksector.scenegen import random_scene
from darksector.tracer import EPS_ADVANCE, TraceStatus, trace


class TestEndpoints:
    def test_horizontal(self):
        m = Mirror(anchor=(-1.0, 0.0), length=2.0, angle=make_rational_turn(0, 1))
        assert endpoints(m) == ((-1.0, 0.0), (1.0, 0.0))

    def test_vertical(self):
        m = Mirror(anchor=(0.0, 0.0), length=1.0, angle=make_rational_turn(1, 2))
        a, b = endpoints(m)
        assert a == (0.0, 0.0)
        assert b[0] == pytest.approx(0.0, abs=1e-12)
        assert b[1] == pytest.approx(1.0)

    def test_diagonal(self):
        m = Mirror(anchor=(0.0, 0.0), length=math.sqrt(2), angle=make_rational_turn(1, 4))
        _, b = endpoints(m)
        assert b[0] == pytest.approx(1.0, abs=1e-12)
        assert b[1] == pytest.approx(1.0, abs=1e-12)


class TestValidate:
    def test_toy_scene_valid(self, toy_scene):
        assert validate_scene(toy_scene) == []

    def test_crossing_mirrors(self):
        s = Scene(
            mirrors=(
                Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                Mirror((0.0, -1.0), 2.0, make_rational_turn(1, 2)),
            ),
            source=(5.0, 5.0),
        )
        codes = [v.code for v in validate_scene(s)]
        assert "mirrors-intersect" in codes

    def test_source_on_mirror(self):
        s = Scene(
            mirrors=(Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),),
            source=(0.0, 0.0),
        )
        codes = [v.code for v in validate_scene(s)]
        assert "source-on-mirror" in codes

    def test_non_positive_length(self):
        s = Scene(
            mirrors=(Mirror((0.0, 0.0), -1.0, make_rational_turn(0, 1)),),
            source=(5.0, 5.0),
        )
        codes = [v.code for v in validate_scene(s)]
        assert "non-positive-length" in codes

    def test_no_mirrors(self):
        codes = [v.code for v in validate_scene(Scene(mirrors=(), source=(0.0, 0.0)))]
        assert codes == ["no-mirrors"]

    def test_overflowing_endpoint(self):
        s = Scene(
            mirrors=(Mirror((1e308, 0.0), 1e308, make_rational_turn(0, 1)),),
            source=(0.0, 1.0),
        )
        violations = validate_scene(s)
        assert [(v.code, v.mirrors) for v in violations] == [("non-finite-endpoint", (1,))]
        assert "inf" in violations[0].detail

    def test_overflowing_extent(self):
        # every point is finite, but the width is 3e308
        s = Scene(
            mirrors=(
                Mirror((-1.5e308, 0.0), 1.0, HORIZONTAL),
                Mirror((1.5e308, 0.0), 1.0, HORIZONTAL),
            ),
            source=(0.0, 1.0),
        )
        violations = validate_scene(s)
        assert [(v.code, v.mirrors) for v in violations] == [("non-finite-extent", ())]
        assert math.isinf(enclosing_circle(s).radius)

    def test_generator_output_always_valid(self):
        rng = random.Random(99)
        for _ in range(50):
            assert validate_scene(random_scene(rng)) == []


HORIZONTAL = make_rational_turn(0, 1)
coords = st.floats(-3.0, 3.0)
lengths = st.floats(0.1, 2.0)


def assert_valid_and_accounted(scene):
    """The scene validates, and its decomposition never counts more than a
    full turn of escape and trapped directions."""
    assert validate_scene(scene) == []
    d = decompose(scene, enclosing_circle(scene), seeds=64, eps_b=1e-6, cap=50)
    assert d.escape_measure + sum(a.measure for a in d.trapped_arcs) <= 2 * math.pi + 1e-9


class TestValidationEdges:
    @settings(max_examples=25, deadline=None)
    @given(x=coords, l1=lengths, l2=lengths, source=st.tuples(coords, st.floats(0.5, 3.0)))
    def test_mirrors_exactly_min_separation_apart(self, x, l1, l2, source):
        low = Mirror((x, 0.0), l1, HORIZONTAL)
        high = Mirror((x, MIN_SEPARATION), l2, HORIZONTAL)
        assert segment_distance(*endpoints(low), *endpoints(high)) == MIN_SEPARATION
        assert_valid_and_accounted(Scene(mirrors=(low, high), source=source))

    @settings(max_examples=25, deadline=None)
    @given(x=coords, length=lengths, frac=st.floats(0.0, 1.0), side=st.sampled_from([1, -1]))
    def test_source_at_minimum_clearance(self, x, length, frac, side):
        m = Mirror((x, 0.0), length, HORIZONTAL)
        source = (x + frac * length, side * MIN_SEPARATION)
        assert point_segment_distance(source, *endpoints(m)) >= MIN_SEPARATION
        assert_valid_and_accounted(Scene(mirrors=(m,), source=source))

    def test_ray_from_minimum_clearance_bounces(self):
        # a hit nearer than the tracer's EPS_ADVANCE would be skipped
        assert MIN_SEPARATION > EPS_ADVANCE
        m = Mirror((-1.0, 0.0), 2.0, HORIZONTAL)
        scene = Scene(mirrors=(m,), source=(0.0, MIN_SEPARATION))
        assert validate_scene(scene) == []
        tr = trace(scene, 3 * math.pi / 2)
        assert (tr.status, tr.itinerary) == (TraceStatus.ESCAPED, ((1, 1),))
        assert tr.exit_dir_numeric == pytest.approx(math.pi / 2)

    @settings(max_examples=25, deadline=None)
    @given(
        num=st.integers(0, 11),
        den=st.integers(1, 6),
        anchor=st.tuples(coords, coords),
        spans=st.lists(st.tuples(lengths, st.floats(0.01, 1.0)), min_size=2, max_size=4),
        offset=st.floats(0.1, 2.0),
    )
    def test_mirrors_on_one_line(self, num, den, anchor, spans, offset):
        angle = make_rational_turn(num, den)
        ux, uy = math.cos(angle.radians()), math.sin(angle.radians())
        mirrors, along = [], 0.0
        for length, gap in spans:
            mirrors.append(
                Mirror((anchor[0] + along * ux, anchor[1] + along * uy), length, angle)
            )
            along += length + gap
        source = (anchor[0] - offset * uy, anchor[1] + offset * ux)
        assert_valid_and_accounted(Scene(mirrors=tuple(mirrors), source=source))


class TestSegmentDistance:
    def test_crossing_is_zero(self):
        assert segment_distance((-1, 0), (1, 0), (0, -1), (0, 1)) == 0.0

    def test_parallel_offset(self):
        assert segment_distance((-1, 0), (1, 0), (-1, 1), (1, 1)) == pytest.approx(1.0)

    def test_endpoint_to_endpoint(self):
        assert segment_distance((0, 0), (1, 0), (2, 0), (3, 0)) == pytest.approx(1.0)

    def test_point_segment(self):
        assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)
        assert point_segment_distance((2, 0), (-1, 0), (1, 0)) == pytest.approx(1.0)


class TestEnclosingCircle:
    def test_single_mirror_above_source(self, single_mirror_scene):
        k = enclosing_circle(single_mirror_scene)
        # bounding box of (-1,0),(1,0),(0,1) has center (0, 0.5); the farthest
        # point is an endpoint at distance sqrt(1.25)
        assert k.center == (0.0, 0.5)
        assert k.radius == pytest.approx(1.25 * math.sqrt(1.25))

    def test_tiny_mirror(self):
        s = Scene(
            mirrors=(Mirror((0.0, 0.0), 1e-6, make_rational_turn(0, 1)),),
            source=(0.0, 1.0),
        )
        k = enclosing_circle(s)
        assert k.center[1] == pytest.approx(0.5)
        assert k.radius == pytest.approx(1.25 * 0.5, rel=1e-4)

    def test_symmetric_cross_centered(self):
        s = Scene(
            mirrors=(
                Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                Mirror((0.0, -1.0), 2.0, make_rational_turn(1, 2)),
            ),
            source=(0.0, 0.0),
        )
        k = enclosing_circle(s)
        assert k.center == (0.0, 0.0)

    def test_everything_strictly_inside(self, toy_scene):
        k = enclosing_circle(toy_scene)
        pts = [toy_scene.source]
        for m in toy_scene.mirrors:
            pts.extend(endpoints(m))
        for p in pts:
            d = math.hypot(p[0] - k.center[0], p[1] - k.center[1])
            assert d / k.radius <= 0.8 + 1e-12


class TestSceneIO:
    def test_round_trip_toy(self, toy_scene):
        assert load_scene(save_scene(toy_scene)) == toy_scene

    def test_loads_handwritten_document(self):
        doc = {
            "mirrors": [
                {"anchor": [-1.0, 0.0], "length": 2.0, "angle": {"num": 0, "den": 1}},
                {"anchor": [1.5, 0.5], "length": 2.0, "angle": {"num": 1, "den": 2}},
            ],
            "source": [0.3, 0.7],
        }
        s = load_scene(json.dumps(doc))
        assert s == make_toy_scene()

    def test_angle_reduction_on_load(self):
        doc = {
            "mirrors": [
                {"anchor": [0.0, 0.0], "length": 1.0, "angle": {"num": 10, "den": 4}}
            ],
            "source": [0.0, 1.0],
        }
        s = load_scene(json.dumps(doc))
        assert s.mirrors[0].angle == make_rational_turn(1, 2)

    def test_zero_denominator_is_parse_error(self):
        doc = {
            "mirrors": [
                {"anchor": [0.0, 0.0], "length": 1.0, "angle": {"num": 1, "den": 0}}
            ],
            "source": [0.0, 1.0],
        }
        with pytest.raises(SceneFormatError, match="den"):
            load_scene(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = {
            "mirrors": [],
            "source": [0.0, 0.0],
            "color": "red",
        }
        with pytest.raises(SceneFormatError, match="unknown"):
            load_scene(json.dumps(doc))

    def test_unknown_mirror_field_rejected(self):
        doc = {
            "mirrors": [
                {
                    "anchor": [0.0, 0.0],
                    "length": 1.0,
                    "angle": {"num": 0, "den": 1},
                    "shiny": True,
                }
            ],
            "source": [0.0, 1.0],
        }
        with pytest.raises(SceneFormatError, match="unknown"):
            load_scene(json.dumps(doc))

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"mirrors": [], "source": [0, 1], "source": [0, 2]}', "source"),
            ('{"mirrors": [{"anchor": [0, 0], "length": 1, '
             '"angle": {"num": 0, "den": 1, "den": 2}}], "source": [0, 1]}', "den"),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_field_rejected(self, text, field):
        # the last value is not silently read in place of the first
        with pytest.raises(SceneFormatError, match=f"^repeated field '{field}'$"):
            load_scene(text)

    def test_invalid_json_reports_position(self):
        with pytest.raises(SceneFormatError, match="line"):
            load_scene(b'{"mirrors": [')

    def test_boolean_is_not_a_number(self):
        doc = {"mirrors": [], "source": [True, 0.0]}
        with pytest.raises(SceneFormatError, match="number"):
            load_scene(json.dumps(doc))

    def test_non_finite_rejected(self):
        with pytest.raises(SceneFormatError):
            load_scene('{"mirrors": [], "source": [NaN, 0.0]}')

    @given(st.integers(0, 2**30))
    def test_round_trip_random_scenes(self, seed):
        s = random_scene(random.Random(seed))
        assert load_scene(save_scene(s)) == s

    def test_saved_bytes_are_json_dumps_of_the_document(self, toy_scene):
        tests = Path(__file__).resolve().parent
        files = [*sorted((tests.parent / "scenes").glob("*.json")),
                 *sorted((tests / "scenes").glob("*.json"))]
        assert len(files) >= 4
        rng = random.Random(27)
        scenes = [toy_scene, *(load_scene(f.read_bytes()) for f in files),
                  *(random_scene(rng) for _ in range(50))]
        for s in scenes:
            assert save_scene(s) == (json.dumps(scene_to_document(s), indent=2) + "\n").encode()


# scene files holding bytes or numbers that cannot become text or a float;
# each is a parse error, naming the field where there is one
UNREADABLE = {
    "400-digit-length": (
        '{"mirrors": [{"anchor": [0, 0], "length": 1%s, "angle": {"num": 0, "den": 1}}],'
        ' "source": [0, 1]}' % ("0" * 400),
        "mirrors\\[0\\].length",
    ),
    "400-digit-den": (
        '{"mirrors": [{"anchor": [0, 0], "length": 1, "angle": {"num": 1, "den": 1%s}}],'
        ' "source": [0, 1]}' % ("0" * 400),
        "mirrors\\[0\\].angle",
    ),
    "5000-digit-integer": (
        '{"mirrors": [], "source": [%s, 0]}' % ("1" * 5000),
        "unreadable document",
    ),
    "non-utf8": (b'{"mirrors": [], "source": [0, \xff]}', "utf-8"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_value_is_a_parse_error(case):
    data, message = UNREADABLE[case]
    with pytest.raises(SceneFormatError, match=message):
        load_scene(data)


def _one_mirror(**mirror) -> dict:
    """A one-mirror scene document with ``mirror`` in place of its mirror's fields."""
    fields = {"anchor": [0, 0], "length": 1, "angle": {"num": 0, "den": 1}, **mirror}
    return {"mirrors": [{k: v for k, v in fields.items() if v is not None}], "source": [0, 1]}


# scene documents of the wrong shape; each is a parse error naming the field
MISSHAPEN = {
    "top-level-list": ([], "^top-level value must be an object$"),
    "mirrors-not-a-list": ({"mirrors": {}, "source": [0, 1]}, "^mirrors: expected a list$"),
    "mirror-not-an-object": ({"mirrors": [[0, 0]], "source": [0, 1]},
                             "^mirrors\\[0\\]: expected an object$"),
    "missing-angle": (_one_mirror(angle=None), "^mirrors\\[0\\]: missing field\\(s\\) \\['angle'\\]$"),
    "angle-not-an-object": (_one_mirror(angle=0.5), "^mirrors\\[0\\].angle: expected an object"),
    "non-integer-num": (_one_mirror(angle={"num": 0.5, "den": 1}),
                        "^mirrors\\[0\\].angle.num: expected an integer$"),
    "boolean-den": (_one_mirror(angle={"num": 1, "den": True}),
                    "^mirrors\\[0\\].angle.den: expected an integer$"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_misshapen_document_is_a_parse_error(case):
    doc, message = MISSHAPEN[case]
    with pytest.raises(SceneFormatError, match=message):
        load_scene(json.dumps(doc))
