import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angles_close,
    compose,
    make_parallel_scene,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
)
from darksector.exact_angle import (
    GroupElement,
    apply,
    make_rational_turn,
    reflection_group,
    wrap_angle,
)
from darksector.scene import EnclosingCircle, Mirror, Scene, enclosing_circle, endpoints
from darksector.scenegen import random_scene
from darksector.tracer import Hit, SingularStop, TraceStatus, exit_ray, first_hit, trace

TWO_PI = 2.0 * math.pi


class TestFirstHit:
    def test_vertical_drop(self, single_mirror_scene):
        h = first_hit((0.0, 1.0), 3 * math.pi / 2, single_mirror_scene)
        assert isinstance(h, Hit)
        assert h.mirror_index == 1
        assert h.side == 1  # arrives from the mirror's left-normal side
        assert h.point[0] == pytest.approx(0.0, abs=1e-12)
        assert h.point[1] == pytest.approx(0.0, abs=1e-12)
        assert h.t == pytest.approx(1.0)

    def test_miss_escapes(self, single_mirror_scene):
        assert first_hit((0.0, 1.0), 0.0, single_mirror_scene) is None

    def test_aimed_at_endpoint_is_singular(self, single_mirror_scene):
        # the ray from (0,1) at 7*pi/4 meets y=0 exactly at the endpoint (1,0)
        h = first_hit((0.0, 1.0), 7 * math.pi / 4, single_mirror_scene)
        assert isinstance(h, SingularStop)
        assert h.reason == "endpoint"

    def test_grazing_hit_is_singular(self, single_mirror_scene):
        # from far off to the left, the ray meets y = 0 near x = 0.5 at an
        # angle of ~1e-10: too shallow to reflect, and clear of both endpoints
        scene = Scene(mirrors=single_mirror_scene.mirrors, source=(-1000.0, 1e-7))
        theta = math.atan2(-1e-7, 1000.5)
        h = first_hit(scene.source, theta, scene)
        assert isinstance(h, SingularStop)
        assert h.reason == "grazing"
        tr = trace(scene, theta)
        assert tr.status is TraceStatus.SINGULAR
        assert tr.bounce_count == 0
        x, y = tr.stop_point
        assert y == pytest.approx(0.0, abs=1e-9) and -1.0 < x < 1.0

    def test_trace_leaves_along_the_launch_direction_as_given(self, single_mirror_scene):
        # theta < 0 here; wrapping it into [0, 2pi) first moves its sine by
        # 5e-6 relative, which at this grazing angle moves the stop point
        # along the mirror from 0.5 to ~0.495
        scene = Scene(mirrors=single_mirror_scene.mirrors, source=(-1000.0, 1e-7))
        theta = math.atan2(-1e-7, 1000.5)
        assert theta < 0.0
        tr = trace(scene, theta)
        assert tr.stop_point == first_hit(scene.source, theta, scene).point
        assert tr.stop_point == pytest.approx((0.5, 0.0), abs=1e-12)
        assert tr.exit_dir_numeric == wrap_angle(theta)

    def test_hit_from_below_has_minus_side(self, single_mirror_scene):
        h = first_hit((0.0, -1.0), math.pi / 2, single_mirror_scene)
        assert isinstance(h, Hit)
        assert h.side == -1

    def test_excluded_mirror_is_skipped(self, single_mirror_scene):
        h = first_hit((0.0, 1.0), 3 * math.pi / 2, single_mirror_scene, exclude_index=1)
        assert h is None

    def test_nearest_of_two(self):
        s = make_parallel_scene()
        h = first_hit((0.0, 0.5), math.pi / 2, s)
        assert isinstance(h, Hit)
        assert h.mirror_index == 2
        assert h.t == pytest.approx(0.5)


class TestTrace:
    def test_one_bounce(self, single_mirror_scene):
        tr = trace(single_mirror_scene, 3 * math.pi / 2, cap=10)
        assert tr.status is TraceStatus.ESCAPED
        assert tr.itinerary == ((1, 1),)
        assert tr.bounce_count == 1
        assert tr.exit_dir_numeric == pytest.approx(math.pi / 2)
        assert tr.exit_dir_exact == GroupElement(-1, 0, 1)
        assert apply(tr.exit_dir_exact, 3 * math.pi / 2) == pytest.approx(math.pi / 2)
        assert tr.path[0] == (0.0, 1.0)
        assert tr.exit_point[1] == pytest.approx(0.0, abs=1e-12)

    def test_direct_escape(self, single_mirror_scene):
        tr = trace(single_mirror_scene, 0.0, cap=10)
        assert tr.status is TraceStatus.ESCAPED
        assert tr.itinerary == ()
        assert tr.exit_dir_numeric == 0.0
        assert tr.exit_dir_exact == GroupElement(1, 0, 1)
        assert tr.exit_point == (0.0, 1.0)

    def test_periodic_orbit_hits_cap(self, parallel_scene):
        tr = trace(parallel_scene, math.pi / 2, cap=25)
        assert tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED
        assert tr.bounce_count == 25

    def test_singular_status_propagates(self, single_mirror_scene):
        tr = trace(single_mirror_scene, 7 * math.pi / 4, cap=10)
        assert tr.status is TraceStatus.SINGULAR
        assert tr.stop_point is not None
        assert tr.stop_point[0] == pytest.approx(1.0, abs=1e-9)

    def test_cap_must_be_positive(self, single_mirror_scene):
        with pytest.raises(ValueError):
            trace(single_mirror_scene, 0.0, cap=0)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_launch_direction_must_be_finite(self, parallel_scene, theta0):
        # a NaN direction used to "hit" mirror 2 at (nan, nan) and escape
        with pytest.raises(ValueError, match="launch direction"):
            trace(parallel_scene, theta0, 5)

    def test_deterministic(self, toy_scene):
        a = trace(toy_scene, 4.0, cap=100)
        b = trace(toy_scene, 4.0, cap=100)
        assert a == b


def outcome(tr):
    return (tr.status, tr.itinerary, tr.path, tr.exit_point, tr.exit_dir_numeric,
            tr.exit_dir_exact, tr.bounce_count, tr.stop_point)


def trace_by_first_hit(scene, theta0, cap):
    """``outcome(trace(scene, theta0, cap))``, stepped by hand from the
    source with ``first_hit``, which takes theta0 as given."""
    theta = theta0
    pos = scene.source
    path, itinerary, last = [pos], [], None
    unit = scene.angle_unit
    g = GroupElement(1, 0, unit)
    while True:
        res = first_hit(pos, theta, scene, exclude_index=last)
        status, stop_point = None, None
        if res is None:
            status = TraceStatus.ESCAPED
        elif isinstance(res, SingularStop):
            status, stop_point = TraceStatus.SINGULAR, res.point
        elif len(itinerary) == cap:
            status = TraceStatus.BOUNCE_CAP_EXCEEDED
        if status is not None:
            return (status, tuple(itinerary), tuple(path), pos, wrap_angle(theta), g,
                    len(itinerary), stop_point)
        itinerary.append((res.mirror_index, res.side))
        path.append(res.point)
        geo = scene.geometry[res.mirror_index - 1]
        theta = wrap_angle(geo.two_angle - theta)
        g = compose(GroupElement(-1, geo.two_angle_k, unit), g)
        pos, last = res.point, res.mirror_index


def launch_directions(scene, rng, n, band):
    """n directions from the source: a quarter within 1e-9 of one aimed at
    a mirror tip, half in ``band`` (centre, half-width), the rest uniform."""
    sx, sy = scene.source
    centre, half_width = band
    out = []
    for i in range(n):
        if i % 4 == 0:
            tx, ty = rng.choice(endpoints(rng.choice(scene.mirrors)))
            out.append(math.atan2(ty - sy, tx - sx) + rng.uniform(-1e-9, 1e-9))
        elif i % 4 == 1:
            out.append(rng.uniform(0.0, TWO_PI))
        else:
            out.append(centre + rng.uniform(-half_width, half_width))
    return out


class TestTraceMatchesFirstHit:
    def test_random_scenes(self):
        rng = random.Random(8128)
        statuses = set()
        for _ in range(400):
            scene = random_scene(rng)
            theta0 = rng.uniform(0.0, TWO_PI)
            if rng.random() < 0.25:  # aim at a mirror tip: a singular stop
                tip = rng.choice(endpoints(rng.choice(scene.mirrors)))
                theta0 = math.atan2(tip[1] - scene.source[1], tip[0] - scene.source[0])
            cap = rng.choice([1, 2, 5, 200])
            tr = trace(scene, theta0, cap)
            assert outcome(tr) == trace_by_first_hit(scene, theta0, cap)
            statuses.add(tr.status)
        assert statuses == set(TraceStatus)

    def test_singular_hit_at_the_cap_is_singular(self, parallel_scene):
        # off the bottom mirror at x = 1/3, then onto the top mirror's tip
        # (1, 1): the second hit is singular, and that outranks the cap of 1
        theta0 = math.atan2(-1.5, 1.0)
        tr = trace(parallel_scene, theta0, 1)
        assert tr.status is TraceStatus.SINGULAR and tr.bounce_count == 1
        assert outcome(tr) == trace_by_first_hit(parallel_scene, theta0, 1)

    def test_channel_to_the_cap(self, parallel_scene):
        rng = random.Random(9)
        for _ in range(40):
            theta0 = math.pi / 2 + rng.uniform(-0.2, 0.2)
            tr = trace(parallel_scene, theta0, 150)
            assert outcome(tr) == trace_by_first_hit(parallel_scene, theta0, 150)

    @pytest.mark.parametrize(
        "scene, cap, band",
        [
            (make_parallel_scene(), 400, (math.pi / 2, 0.01)),
            (make_six_mirror_trap_scene(), 100, (2.6185, 0.003)),
        ],
        ids=["channel", "six_mirror_trap"],
    )
    def test_trapped_scenes(self, scene, cap, band):
        # the scenes and caps of the benchmark's trapped jobs; each band
        # straddles the edge of a trapped arc, where long escapes and
        # trapped rays mix
        statuses = set()
        for theta0 in launch_directions(scene, random.Random(cap), 200, band):
            tr = trace(scene, theta0, cap)
            assert outcome(tr) == trace_by_first_hit(scene, theta0, cap)
            statuses.add(tr.status)
        assert statuses == set(TraceStatus)


class TestScanRows:
    @pytest.mark.parametrize(
        "scene",
        [make_single_mirror_scene(), make_parallel_scene(), make_six_mirror_trap_scene()],
        ids=["single_mirror", "channel", "six_mirror_trap"],
    )
    def test_each_leg_scans_every_other_mirror_once_in_scene_order(self, scene):
        rows = scene.scan_rows
        geos = scene.geometry
        assert len(rows) == len(geos) + 1
        for i, leg in enumerate(rows):
            assert [row[6] for row in leg] == [g for g in geos if g.index != i]
            for ax, ay, ex, ey, lo, hi, g in leg:
                assert (ax, ay, ex, ey, lo, hi) == (g.ax, g.ay, g.ex, g.ey, -g.slack, 1.0 + g.slack)


class TestNoCallPerBounce:
    def test_python_calls_do_not_grow_with_the_bounces(self, parallel_scene):
        # a ray straight up the channel is trapped at any cap; a Python-level
        # helper called per leg would add its calls once per bounce
        theta0 = math.pi / 2 + 1e-3
        trace(parallel_scene, theta0, 1)  # fill the scene's cached geometry

        def calls(cap):
            events = []
            sys.setprofile(lambda frame, event, arg: events.append(event))
            try:
                tr = trace(parallel_scene, theta0, cap)
            finally:
                sys.setprofile(None)
            assert tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED and tr.bounce_count == cap
            return events.count("call")

        assert calls(10) == calls(200)


class TestSharedItineraryEntries:
    def test_entries_are_the_mirrors_lips(self):
        # each entry is the very tuple of its mirror's geometry, so a trace
        # allocates nothing per bounce for its itinerary
        rng = random.Random(5)
        channel = [(make_parallel_scene(), math.pi / 2 + rng.uniform(-0.01, 0.01))
                   for _ in range(10)]
        scattered = [(random_scene(rng), rng.uniform(0.0, TWO_PI)) for _ in range(200)]
        entries = 0
        for scene, theta0 in channel + scattered:
            tr = trace(scene, theta0, 200)
            entries += len(tr.itinerary)
            for entry in tr.itinerary:
                lips = scene.geometry[entry[0] - 1].lips
                assert entry is lips[0 if entry[1] == 1 else 1]
        assert entries > 1000


class TestExitRay:
    def test_after_one_bounce(self, single_mirror_scene, single_mirror_circle):
        tr = trace(single_mirror_scene, 3 * math.pi / 2, cap=10)
        assert tr.exit_dir_numeric == pytest.approx(math.pi / 2)
        point = exit_ray(tr.exit_point, tr.exit_dir_numeric, single_mirror_circle)
        # straight up from (0,0): crosses the circle centered (0, 0.5) of
        # radius 2 at (0, 2.5)
        assert point[0] == pytest.approx(0.0, abs=1e-12)
        assert point[1] == pytest.approx(2.5)

    def test_direct_escape(self, single_mirror_scene, single_mirror_circle):
        tr = trace(single_mirror_scene, 0.0, cap=10)
        assert tr.exit_dir_numeric == 0.0
        point = exit_ray(tr.exit_point, tr.exit_dir_numeric, single_mirror_circle)
        # from (0,1) heading right: x solves x^2 + 0.25 = 4
        assert point[0] == pytest.approx(math.sqrt(3.75))
        assert point[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("point", [(0.0, 2.5), (3.0, 3.0)], ids=["on", "outside"])
    def test_rejects_a_point_not_inside_the_circle(self, single_mirror_circle, point):
        with pytest.raises(ValueError, match="not inside the circle"):
            exit_ray(point, 0.0, single_mirror_circle)


class TestTraceProperties:
    def test_parity_and_agreement(self):
        rng = random.Random(123)
        for _ in range(300):
            scene = random_scene(rng)
            theta0 = rng.uniform(0.0, TWO_PI)
            tr = trace(scene, theta0, cap=200)
            assert tr.exit_dir_exact.s == (-1) ** tr.bounce_count
            assert angles_close(tr.exit_dir_numeric, apply(tr.exit_dir_exact, theta0), 1e-6)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, TWO_PI, exclude_max=True))
    def test_exact_element_is_the_itinerary_folded(self, seed, theta0):
        # the exit element is a function of the itinerary alone: the product
        # of the reflections theta -> -theta + two_angle_k*pi/L it lists
        scene = random_scene(random.Random(seed))
        tr = trace(scene, theta0, cap=200)
        unit = scene.angle_unit
        g = GroupElement(1, 0, unit)
        for index, _ in tr.itinerary:
            g = compose(GroupElement(-1, scene.geometry[index - 1].two_angle_k, unit), g)
        assert tr.exit_dir_exact == g

    def test_exact_element_in_reflection_group(self):
        rng = random.Random(42)
        for _ in range(60):
            scene = random_scene(rng)
            sheets = reflection_group((m.angle for m in scene.mirrors), cap=100000)
            tr = trace(scene, rng.uniform(0.0, TWO_PI), cap=200)
            assert tr.exit_dir_exact in sheets

    def test_path_stays_inside_enclosing_circle(self):
        rng = random.Random(7)
        for _ in range(100):
            scene = random_scene(rng)
            circle = enclosing_circle(scene)
            tr = trace(scene, rng.uniform(0.0, TWO_PI), cap=200)
            for p in tr.path:
                d = math.hypot(p[0] - circle.center[0], p[1] - circle.center[1])
                assert d < circle.radius
            if tr.status is TraceStatus.ESCAPED:
                # the final portion leaves the circle exactly once: the exit
                # point is inside, so the line-circle equation has one
                # positive root
                exit_ray(tr.exit_point, tr.exit_dir_numeric, circle)

    def test_time_reversal(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 60:
            scene = random_scene(rng)
            circle = enclosing_circle(scene)
            tr = trace(scene, rng.uniform(0.0, TWO_PI), cap=200)
            if tr.status is not TraceStatus.ESCAPED or tr.bounce_count == 0:
                continue
            start = exit_ray(tr.exit_point, tr.exit_dir_numeric, circle)
            back = trace(
                Scene(mirrors=scene.mirrors, source=start),
                tr.exit_dir_numeric + math.pi,
                cap=400,
            )
            forward_indices = [k for k, _ in tr.itinerary]
            back_indices = [k for k, _ in back.itinerary[: tr.bounce_count]]
            assert back_indices == forward_indices[::-1]
            checked += 1

    def test_multi_bounce_channel_agreement(self):
        channel = Scene(
            mirrors=(
                Mirror((-8.0, 0.0), 16.0, make_rational_turn(0, 1)),
                Mirror((-8.0, 1.0), 16.0, make_rational_turn(0, 1)),
            ),
            source=(0.0, 0.5),
        )
        rng = random.Random(11)
        for _ in range(200):
            theta0 = math.pi / 2 + rng.uniform(-0.4, 0.4)
            tr = trace(channel, theta0, cap=500)
            assert angles_close(tr.exit_dir_numeric, apply(tr.exit_dir_exact, theta0), 1e-6)
            assert tr.exit_dir_exact.s == (-1) ** tr.bounce_count
