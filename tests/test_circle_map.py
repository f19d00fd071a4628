import gc
import json
import math
import random
import sys
from pathlib import Path

import pytest

from conftest import (
    angles_close,
    assert_same_text,
    in_arc,
    make_box_scene,
    make_parallel_scene,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
    make_toy_scene,
    reference_decompose,
    WitnessViolation,
    witness_violations,
)
from darksector import circle_map
from darksector.arcs import Arc, _pieces, angle_distance, arc_intersection_measure
from darksector.circle_map import (
    DEFAULT_EPS_B,
    DEFAULT_SEEDS,
    Decomposition,
    DecompositionParams,
    MapComponent,
    _image_of,
    decompose,
    decomposition_report,
    is_injective,
    unlit_arcs,
)
from darksector.exact_angle import (
    GroupElement,
    apply,
    inverse,
    make_rational_turn,
    reflection_group,
    wrap_angle,
)
from darksector.scene import EnclosingCircle, Mirror, Scene, enclosing_circle, load_scene
from darksector.scenegen import random_scene
from darksector.tracer import DEFAULT_BOUNCE_CAP, TraceStatus, trace
from test_golden import make_mixed_denominator_scene

TWO_PI = 2.0 * math.pi


def single_mirror_decomposition(scene, circle, seeds=512, cap=50):
    return decompose(scene, circle, seeds=seeds, eps_b=1e-10, cap=cap)


class TestDecomposeIdentityCase:
    def test_no_mirrors_gives_identity_map(self):
        scene = Scene(mirrors=(), source=(0.0, 0.0))
        circle = EnclosingCircle((0.0, 0.0), 1.0)
        d = decompose(scene, circle, seeds=64, eps_b=1e-10, cap=10)
        assert len(d.components) == 1
        c = d.components[0]
        assert c.arc.measure == TWO_PI
        assert c.itinerary == ()
        assert c.isometry == GroupElement(1, 0, 1)
        assert c.image.measure == TWO_PI
        assert d.escape_measure == pytest.approx(TWO_PI)
        assert unlit_arcs(d) == []
        assert is_injective(d) == (True, None)

    def test_parameter_bounds(self):
        scene = Scene(mirrors=(), source=(0.0, 0.0))
        circle = EnclosingCircle((0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            decompose(scene, circle, seeds=4)
        with pytest.raises(ValueError):
            decompose(scene, circle, seeds=64, eps_b=0.0)

    @pytest.mark.parametrize("eps_b", [math.nan, -math.inf, -1e-9])
    def test_eps_b_must_be_a_positive_number(self, single_mirror_scene, eps_b):
        # a NaN tolerance passes an ``eps_b <= 0`` guard, then bisects to
        # adjacent floats and turns every unlit arc into the full circle
        circle = enclosing_circle(single_mirror_scene)
        with pytest.raises(ValueError, match="eps_b"):
            decompose(single_mirror_scene, circle, seeds=256, eps_b=eps_b)


class TestDecomposeSingleMirror:
    def test_two_components(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        assert len(d.components) == 2
        by_itinerary = {c.itinerary: c for c in d.components}
        assert set(by_itinerary) == {(), ((1, 1),)}

        direct = by_itinerary[()]
        bounced = by_itinerary[((1, 1),)]
        # boundaries are the directions from (0,1) to the mirror tips
        assert angles_close(bounced.arc.start, 5 * math.pi / 4, 1e-8)
        assert angles_close(bounced.arc.end, 7 * math.pi / 4, 1e-8)
        assert angles_close(direct.arc.start, 7 * math.pi / 4, 1e-8)
        assert angles_close(direct.arc.end, 5 * math.pi / 4, 1e-8)
        assert direct.isometry == GroupElement(1, 0, 1)
        assert bounced.isometry == GroupElement(-1, 0, 1)
        # image of the bounced arc: negate both endpoints, reverse orientation
        assert angles_close(bounced.image.start, math.pi / 4, 1e-8)
        assert angles_close(bounced.image.end, 3 * math.pi / 4, 1e-8)

    def test_measure_nearly_full(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        # only the two endpoint-singular slivers are missing
        assert d.escape_measure >= TWO_PI - 1e-7

    def test_partition_accounting(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        covered = d.escape_measure + sum(a.measure for a in d.trapped_arcs)
        assert TWO_PI - covered <= d.params.seeds * d.params.eps_b + 1e-7

    def test_partition_accounting_toy(self, toy_scene):
        d = decompose(toy_scene, enclosing_circle(toy_scene), seeds=512, cap=500)
        covered = d.escape_measure + sum(a.measure for a in d.trapped_arcs)
        assert TWO_PI - covered <= d.params.seeds * d.params.eps_b + 1e-7

    def test_boundaries_are_singular_directions(
        self, single_mirror_scene, single_mirror_circle
    ):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        eps = d.params.eps_b
        for b in d.singular_directions:
            keys = []
            for delta in (-5 * eps, -eps, eps, 5 * eps):
                tr = trace(single_mirror_scene, (b + delta) % TWO_PI, cap=50)
                keys.append((tr.status.value, tr.itinerary))
            assert len(set(keys)) >= 2


class TestImageArcs:
    def test_rotation_shifts_endpoints(self):
        g = GroupElement(1, 2, 3)
        arc = Arc(1.0, 2.0)
        img = _image_of(arc, g)
        shift = 2 * math.pi / 3
        assert angles_close(img.start, 1.0 + shift, 1e-12)
        assert angles_close(img.end, 2.0 + shift, 1e-12)

    def test_reflection_reverses_orientation(self):
        g = GroupElement(-1, 0, 1)
        img = _image_of(Arc(5 * math.pi / 4, 7 * math.pi / 4), g)
        assert angles_close(img.start, math.pi / 4, 1e-12)
        assert angles_close(img.end, 3 * math.pi / 4, 1e-12)

    def test_measure_preserved(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        for c in d.components:
            assert c.image.measure == pytest.approx(c.arc.measure, abs=1e-9)

    def test_identity_images_equal_components(self):
        scene = Scene(mirrors=(), source=(0.0, 0.0))
        d = decompose(scene, EnclosingCircle((0.0, 0.0), 1.0), seeds=64, cap=10)
        assert [c.image for c in d.components] == [c.arc for c in d.components]


class TestInjectivity:
    def test_single_mirror_not_injective(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        injective, witness = is_injective(d)
        assert not injective
        t1, t2 = witness
        assert t1 != t2
        # both launch directions exit in the same direction
        tr1 = trace(single_mirror_scene, t1, cap=50)
        tr2 = trace(single_mirror_scene, t2, cap=50)
        assert tr1.status is TraceStatus.ESCAPED
        assert tr2.status is TraceStatus.ESCAPED
        assert angles_close(tr1.exit_dir_numeric, tr2.exit_dir_numeric, 1e-9)

    def test_toy_scene_not_injective(self, toy_scene):
        d = decompose(toy_scene, enclosing_circle(toy_scene), seeds=1024, cap=200)
        injective, witness = is_injective(d)
        assert not injective
        assert witness is not None


def widest_overlap(a, b):
    """The widest span shared by a linear piece of a and one of b; of
    equal spans, the first found."""
    best = None
    for alo, ahi in _pieces(a):
        for blo, bhi in _pieces(b):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
    return best


def brute_force_is_injective(d, tol=1e-9):
    """Reference for ``is_injective``: the same test on every component pair."""
    comps = d.components
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if arc_intersection_measure(comps[i].image, comps[j].image) <= tol:
                continue
            lo, hi = widest_overlap(comps[i].image, comps[j].image)
            for frac in (0.5, 0.25, 0.75):
                phi = wrap_angle(lo + frac * (hi - lo))
                t1 = apply(inverse(comps[i].isometry), phi)
                t2 = apply(inverse(comps[j].isometry), phi)
                if angle_distance(t1, t2) > 1e-9:
                    return False, (t1, t2)
    return True, None


def hand_built(parts) -> Decomposition:
    """A decomposition whose components are the given (image, isometry)
    pairs, in that order, each launched on its own image arc."""
    return Decomposition(
        scene=Scene(mirrors=(), source=(0.0, 0.0)),
        circle=EnclosingCircle((0.0, 0.0), 1.0),
        params=DecompositionParams(seeds=64, eps_b=1e-6, cap=10),
        components=tuple(
            MapComponent(arc=image, itinerary=(), isometry=iso, image=image)
            for image, iso in parts
        ),
        singular_directions=(),
        trapped_arcs=(),
        escape_measure=0.0,
    )


def pulled_back(g1, g2, phi):
    return apply(inverse(g1), phi), apply(inverse(g2), phi)


class TestInjectivityWitness:
    """Which overlap the witness comes from, pinned on hand-built images."""

    g1, g2, g3, g4 = (GroupElement(1, 0, 6), GroupElement(1, 1, 6),
                      GroupElement(-1, 5, 6), GroupElement(-1, 0, 6))

    @pytest.mark.parametrize("swap", [False, True], ids=["wrapping_second", "wrapping_first"])
    def test_equal_spans_give_the_later_one(self, swap):
        # Arc(0.5, 3.5) and the wrapping Arc(3.0, 1.0) overlap in (3.0, 3.5)
        # and (0.5, 1.0), both exactly 0.5 wide
        parts = [(Arc(0.5, 3.5), self.g1), (Arc(3.0, 1.0), self.g2)]
        if swap:
            parts.reverse()
        (_, a), (_, b) = parts
        assert is_injective(hand_built(parts)) == (False, pulled_back(a, b, 3.25))

    def test_equal_spans_of_two_wrapping_images(self):
        # both images wrap through 0: split there, they overlap in the
        # pieces (6.0, 2pi), (2.0, 2.5) and (0.0, 0.5); the last two tie
        parts = [(Arc(2.0, 0.5), self.g1), (Arc(6.0, 2.5), self.g3)]
        got = is_injective(hand_built(parts))
        assert got == (False, pulled_back(self.g1, self.g3, 2.25))

    def test_the_lowest_overlapping_pair_gives_the_witness(self):
        parts = [
            (Arc(4.0, 5.0), self.g1),
            (Arc(5.0 - 1e-10, 6.0), self.g2),  # (0, 1): overlap below MIN_OVERLAP
            (Arc(4.2, 4.8), self.g1),  # (0, 2): same isometry, no witness
            (Arc(1.0, 2.0), self.g2),
            (Arc(1.5, 2.5), self.g3),  # (3, 4): the first overlap by angle
            (Arc(4.5, 5.5), self.g4),  # (0, 5): the witness, from (4.5, 5.0)
        ]
        got = is_injective(hand_built(parts))
        assert got == (False, pulled_back(self.g1, self.g4, 4.75))


class TestInjectivityMargins:
    """Overlaps and pull-backs just past is_injective's thresholds."""

    identity, reflection, rotation = (GroupElement(1, 0, 6), GroupElement(-1, 0, 6),
                                      GroupElement(1, 1, 6))

    @pytest.mark.parametrize("half", [0.5, 5e-6])
    def test_pull_backs_that_meet_only_at_the_midpoint(self, half):
        # theta -> theta and theta -> -theta both pull pi back to pi, and the
        # quarter points of the overlap to directions 2*half apart: 1.0, or
        # 1e-5, just past the separation of 1e-9
        image = Arc(math.pi - half, math.pi + half)
        got = is_injective(hand_built([(image, self.identity), (image, self.reflection)]))
        assert got[0] is False
        assert angle_distance(*got[1]) == pytest.approx(half, rel=1e-6)

    def test_an_overlap_of_1e_8_is_tested(self):
        # past MIN_OVERLAP (1e-9) and below 1e-6
        parts = [(Arc(1.0, 2.0), self.identity), (Arc(2.0 - 1e-8, 3.0), self.rotation)]
        assert is_injective(hand_built(parts))[0] is False


class TestInjectivitySweep:
    def test_matches_pair_loop_on_random_scenes(self):
        rng = random.Random(404)
        for _ in range(120):
            scene = random_scene(rng)
            d = decompose(scene, enclosing_circle(scene), seeds=64, eps_b=1e-6, cap=30)
            assert is_injective(d) == brute_force_is_injective(d)

    def test_matches_pair_loop_on_overlapping_wrapping_images(self):
        # images drawn at random overlap each other many times, and many
        # wrap through 0; isometries shared by overlapping components make
        # some overlapping pairs no witness, so the first witness found
        # depends on the order in which the pairs are tested
        rng = random.Random(77)
        isometries = [
            GroupElement(s, num, 6) for s in (1, -1) for num in (0, 1, 5)
        ]
        injective_seen = 0
        for trial in range(200):
            parts = []
            for _ in range(rng.randint(2, 40)):
                start = rng.uniform(0.0, TWO_PI)
                image = Arc(start, start + rng.uniform(1e-3, 2.5))
                parts.append((image, rng.choice(isometries[: 1 + trial % len(isometries)])))
            d = hand_built(parts)
            got = is_injective(d)
            assert got == brute_force_is_injective(d)
            injective_seen += got[0]
        assert 0 < injective_seen < 200


class TestUnlitArcs:
    def test_single_mirror_unlit_arc(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        unlit = unlit_arcs(d)
        assert len(unlit) == 1
        assert angles_close(unlit[0].start, 5 * math.pi / 4, 1e-8)
        assert angles_close(unlit[0].end, 7 * math.pi / 4, 1e-8)

    @pytest.mark.parametrize("short, count", [(3, 0), (5, 1)])
    def test_a_gap_is_certified_only_past_four_eps_b(self, short, count):
        # one component launched on Arc(1, 2) whose image ends ``short``
        # eps_b before 2: an unlit gap of 3 eps_b is dropped, one of 5 kept
        d = hand_built([(Arc(1.0, 2.0 - short * 1e-6), GroupElement(1, 0, 6))])
        assert d.params.eps_b == 1e-6
        comp = d.components[0]._replace(arc=Arc(1.0, 2.0))
        assert len(unlit_arcs(d._replace(components=(comp,)))) == count

    def test_unlit_disjoint_from_images(self, toy_scene):
        d = decompose(toy_scene, enclosing_circle(toy_scene), seeds=1024, cap=200)
        for a in unlit_arcs(d):
            for img in [c.image for c in d.components]:
                assert arc_intersection_measure(a, img) <= 1e-12


class TestRefinement:
    def test_monotone_under_refinement(self, toy_scene):
        circle = enclosing_circle(toy_scene)
        d1 = decompose(toy_scene, circle, seeds=256, eps_b=1e-9, cap=200)
        d2 = decompose(toy_scene, circle, seeds=512, eps_b=5e-10, cap=400)
        assert d2.escape_measure >= d1.escape_measure - 256 * 1e-9

    def test_isometries_exact_group_members(self):
        rng = random.Random(31)
        for _ in range(10):
            scene = random_scene(rng)
            circle = enclosing_circle(scene)
            d = decompose(scene, circle, seeds=128, eps_b=1e-9, cap=100)
            sheets = reflection_group((m.angle for m in scene.mirrors), cap=100000)
            for c in d.components:
                assert c.isometry in sheets

    def test_trapped_arc_detected(self, parallel_scene):
        # the trapped-band edge is an accumulation point of ever-thinner
        # escape components, so a coarse eps_b keeps the refinement bounded
        circle = enclosing_circle(parallel_scene)
        d = decompose(parallel_scene, circle, seeds=256, eps_b=1e-5, cap=60)
        assert d.trapped_arcs
        trapped_measure = sum(a.measure for a in d.trapped_arcs)
        d_more = decompose(parallel_scene, circle, seeds=256, eps_b=1e-5, cap=400)
        trapped_more = sum(a.measure for a in d_more.trapped_arcs)
        assert trapped_more <= trapped_measure + 1e-9

    def test_every_direction_trapped_is_one_full_circle_arc(self):
        # at cap 1 every seed ray meets a second wall of the box: one key all
        # round the circle, so one trapped run with no boundaries
        scene = make_box_scene()
        d = decompose(scene, enclosing_circle(scene), seeds=8, eps_b=1e-10, cap=1)
        assert d.trapped_arcs == (Arc(0.0, 0.0),)
        assert d.components == ()
        assert d.singular_directions == ()
        assert d.escape_measure == 0

    def test_trapped_measure_scales_inversely_with_cap(self, parallel_scene):
        # directions down a parallel channel escape after ~1/angle bounces,
        # so the unresolved trapped band shrinks like 1/cap
        circle = enclosing_circle(parallel_scene)
        trapped = []
        for cap in (25, 50, 100):
            d = decompose(parallel_scene, circle, seeds=512, eps_b=1e-5, cap=cap)
            trapped.append(sum(a.measure for a in d.trapped_arcs))
        assert trapped[0] > trapped[1] > trapped[2] > 0
        assert trapped[1] == pytest.approx(trapped[0] / 2, rel=0.1)
        assert trapped[2] == pytest.approx(trapped[1] / 2, rel=0.1)

    def test_deterministic(self, toy_scene):
        circle = enclosing_circle(toy_scene)
        a = decompose(toy_scene, circle, seeds=128, cap=100)
        b = decompose(toy_scene, circle, seeds=128, cap=100)
        assert a == b

    def test_traced_exit_directions_land_in_image_arcs(self):
        # orientation handling of image arcs, checked against actual traces
        rng = random.Random(77)
        checked = 0
        while checked < 500:
            scene = random_scene(rng)
            circle = enclosing_circle(scene)
            d = decompose(scene, circle, seeds=256, eps_b=1e-6, cap=200)
            for c in d.components:
                m = c.arc.measure
                theta = (c.arc.start + rng.uniform(0.05, 0.95) * m) % TWO_PI
                tr = trace(scene, theta, cap=200)
                if tr.status is not TraceStatus.ESCAPED or tr.itinerary != c.itinerary:
                    continue
                off = (tr.exit_dir_numeric - c.image.start) % TWO_PI
                assert off <= c.image.measure + 1e-9
                checked += 1


def report_text(decomposer, scene, seeds, eps_b, cap) -> str:
    d = decomposer(scene, enclosing_circle(scene), seeds=seeds, eps_b=eps_b, cap=cap)
    return json.dumps(decomposition_report(d))


SCENES = Path(__file__).resolve().parent.parent / "scenes"
MAP_DEFAULTS = (DEFAULT_SEEDS, DEFAULT_EPS_B, DEFAULT_BOUNCE_CAP)
# scene maker -> (seeds, eps_b, cap): the bundled scenes at the defaults of
# ``map``, the trapped scenes at their benchmark parameters
SAMPLER_CASES = {
    "single_mirror": (lambda: load_scene((SCENES / "single_mirror.json").read_bytes()),
                      MAP_DEFAULTS),
    "two_perpendicular": (lambda: load_scene((SCENES / "two_perpendicular.json").read_bytes()),
                          MAP_DEFAULTS),
    "channel": (make_parallel_scene, (256, 1e-5, 400)),
    "six_mirror_trap": (make_six_mirror_trap_scene, (1024, 1e-6, 100)),
    "mixed_denominator": (make_mixed_denominator_scene, MAP_DEFAULTS),
}


class TestSamplerOracle:
    """``decompose`` records each run start where its bisection stops; the
    oracle keeps every sample, sorts them and rescans the neighbours.  Both
    must give the same report text."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_matches_the_oracle_on_fixed_scenes(self, name):
        make_scene, params = SAMPLER_CASES[name]
        scene = make_scene()
        assert_same_text(report_text(decompose, scene, *params),
                         report_text(reference_decompose, scene, *params))

    def test_matches_the_oracle_on_random_scenes(self):
        rng = random.Random(16)
        for i in range(300):
            scene = random_scene(rng)
            params = ((8, 16, 64, 256)[i % 4], (1e-4, 1e-8, 1e-12, 1e-15, 1e-17)[i % 5],
                      (3, 12, 40)[i % 3])
            assert_same_text(report_text(decompose, scene, *params),
                             report_text(reference_decompose, scene, *params), (i, params))

    def test_a_run_start_that_wraps_to_zero(self):
        # the mirror subtends ~1e-6 rad just above theta = 0, so the last
        # bracket, (seed 7, seed 0 at 2*pi), is refined down to adjacent
        # floats and its run start rounds to 2*pi and wraps to 0.0: the last
        # start in bracket order is the first in angle order
        scene = Scene(
            mirrors=(Mirror(anchor=(1e6, 0.0), length=1.0, angle=make_rational_turn(1, 2)),),
            source=(0.0, 0.0),
        )
        d = decompose(scene, enclosing_circle(scene), seeds=8, eps_b=1e-17, cap=5)
        assert d.singular_directions[0] == 0.0
        assert_same_text(report_text(decompose, scene, 8, 1e-17, 5),
                         report_text(reference_decompose, scene, 8, 1e-17, 5))


class TestSampledDirections:
    @pytest.mark.parametrize(
        "scene, cap",
        [(make_single_mirror_scene(), 10), (make_parallel_scene(), 60),
         (make_six_mirror_trap_scene(), 60)],
        ids=["single_mirror", "channel", "six_mirror_trap"],
    )
    def test_every_traced_direction_lies_in_one_turn(self, scene, cap, monkeypatch):
        # trace leaves along the direction as given, so the sampler must hand
        # it directions in [0, 2pi): the seeds, and midpoints below the
        # ring's sentinel TWO_PI
        thetas = []

        def recording_trace(scene, theta, cap):
            thetas.append(theta)
            return trace(scene, theta, cap)

        monkeypatch.setattr(circle_map, "trace", recording_trace)
        d = decompose(scene, enclosing_circle(scene), seeds=256, eps_b=1e-7, cap=cap)
        assert d.components and len(thetas) > 256
        assert all(0.0 <= theta < TWO_PI for theta in thetas)


class TestCallsPerSample:
    def test_python_calls_besides_the_traces_do_not_grow_with_the_seeds(
        self, single_mirror_scene, single_mirror_circle
    ):
        # the single mirror's two components are found at either seed count,
        # so the calls per component stay the same; a Python-level frame
        # made per sample, besides its trace and one sampling helper, would
        # add its calls once per extra seed
        code_of_trace = trace.__code__
        single_mirror_decomposition(single_mirror_scene, single_mirror_circle)

        def calls(seeds):
            codes = []
            samplers = set()

            def profile(frame, event, arg):
                if event == "call":
                    codes.append(frame.f_code)
                    if frame.f_code is code_of_trace:
                        samplers.add(frame.f_back.f_code)

            # a collection would run the gc callbacks other libraries register
            gc.disable()
            sys.setprofile(profile)
            try:
                d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle,
                                                seeds=seeds)
            finally:
                sys.setprofile(None)
                gc.enable()
            assert len(samplers) == 1
            assert {c.itinerary for c in d.components} == {(), ((1, 1),)}
            traces = codes.count(code_of_trace)
            assert traces >= seeds
            return len(codes) - traces - codes.count(samplers.pop())

        assert calls(256) == calls(4096)


class TestReport:
    def test_report_shape(self, single_mirror_scene, single_mirror_circle):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        rep = decomposition_report(d)
        assert rep["params"] == {"seeds": 512, "eps_b": 1e-10, "bounce_cap": 50}
        assert len(rep["components"]) == 2
        for comp in rep["components"]:
            iso = comp["isometry"]
            assert iso["s"] in (1, -1)
            mid = Arc(comp["arc"]["start"], comp["arc"]["end"]).midpoint
            exit_dir = iso["s"] * mid + math.pi * iso["c_num"] / iso["c_den"]
            assert in_arc(Arc(comp["image"]["start"], comp["image"]["end"]), exit_dir)

    def test_component_isometry_preserves_distances(
        self, single_mirror_scene, single_mirror_circle
    ):
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        rng = random.Random(0)
        for c in d.components:
            m = c.arc.measure
            for _ in range(200):
                t1 = (c.arc.start + rng.uniform(0.01, 0.99) * m) % TWO_PI
                t2 = (c.arc.start + rng.uniform(0.01, 0.99) * m) % TWO_PI
                f1 = apply(c.isometry, t1)
                f2 = apply(c.isometry, t2)
                d12 = (t2 - t1) % TWO_PI
                d12 = min(d12, TWO_PI - d12)
                f12 = (f2 - f1) % TWO_PI
                f12 = min(f12, TWO_PI - f12)
                assert abs(d12 - f12) <= 1e-9


TEST_SCENES = Path(__file__).resolve().parent / "scenes"
# the random_sectors workload's --samples, --eps-b and --cap
RANDOM_SECTORS_PARAMS = (1024, 1e-8, 12)
# the pinned lit certificates: the component and leg the witness flags, the
# (mirror, end) pairs it names, and the launch of the ray that lights the
# certified sector (test_dark_sector.test_no_exit_ray_enters_a_certified_sector)
LIT_CERTIFICATES = {
    "random_sectors_seed5_243": (3, 0, [(1, 0), (1, 1)], 6.26544),
    "random_sectors_seed9_134": (13, 0, [(5, 0), (5, 1)], 4.25919),
}


class TestWitness:
    """``witness_violations``, checks 1 and 2 of ROADMAP item 9, as an
    oracle for decompositions that missed no component."""

    @pytest.mark.parametrize("name", list(LIT_CERTIFICATES))
    def test_names_the_leg_and_endpoint_of_a_missed_component(self, name):
        scene = load_scene((TEST_SCENES / f"{name}.json").read_bytes())
        d = decompose(scene, enclosing_circle(scene), *RANDOM_SECTORS_PARAMS)
        component, leg, ends, lit = LIT_CERTIFICATES[name]
        found = witness_violations(d)
        assert [(v.check, v.component, v.leg, v.endpoint) for v in found] == [
            (2, component, leg, end) for end in ends]
        # the missed component lies between the launches through the two
        # ends of the named mirror, and its itinerary is not in the report
        lo, hi = sorted(v.launch for v in found)
        assert lo < lit < hi
        tr = trace(scene, lit, RANDOM_SECTORS_PARAMS[2])
        assert tr.status is TraceStatus.ESCAPED
        assert tr.itinerary not in {c.itinerary for c in d.components}

    @pytest.mark.parametrize(
        "scene,params",
        [
            (load_scene((SCENES / "single_mirror.json").read_bytes()), MAP_DEFAULTS),
            (load_scene((SCENES / "two_perpendicular.json").read_bytes()), MAP_DEFAULTS),
            # the trapped workload's channel and trap, at its arguments
            (make_parallel_scene(), (256, 1e-5, 400)),
            (make_six_mirror_trap_scene(), (1024, 1e-6, 100)),
        ],
        ids=["single_mirror", "two_perpendicular", "channel", "six_mirror_trap"],
    )
    def test_flags_nothing_on_the_bundled_and_trapped_scenes(self, scene, params):
        d = decompose(scene, enclosing_circle(scene), *params)
        assert d.components
        assert witness_violations(d) == []

    def test_a_passed_scene_gains_no_itinerary_at_64_times_the_seeds(self):
        # the first 16 scenes of the random_sectors workload at seed 1
        rng = random.Random(1)
        flagged = []
        for i in range(16):
            scene = random_scene(rng, n_mirrors=1 + i % 5)
            circle = enclosing_circle(scene)
            d = decompose(scene, circle, *RANDOM_SECTORS_PARAMS)
            finer = decompose(scene, circle, 64 * RANDOM_SECTORS_PARAMS[0],
                              *RANDOM_SECTORS_PARAMS[1:])
            gained = {c.itinerary for c in finer.components} - {c.itinerary for c in d.components}
            if witness_violations(d):
                flagged.append(i)
            else:
                assert not gained, i
        assert flagged == [14]  # the one scene of the sample that misses a component

    def test_windows_that_do_not_tile_fail_check_1(self, single_mirror_scene,
                                                   single_mirror_circle):
        # two components, bounded by four singular directions: the first
        # ends at the third, the second at the first
        d = single_mirror_decomposition(single_mirror_scene, single_mirror_circle)
        assert witness_violations(d) == []
        first, second = d.components
        wider = first._replace(arc=Arc(first.arc.start, first.arc.end + 1e-3))
        for broken, named in (
            (d._replace(components=(wider, second)), first),
            (d._replace(components=(first, first, second)), first),
            (d._replace(singular_directions=d.singular_directions[1:]), second),
        ):
            assert WitnessViolation(1, named.arc.start) in witness_violations(broken)
