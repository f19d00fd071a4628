import math
import random
import sys
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angles_close,
    compose,
    exact_leg,
    make_parallel_scene,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
    make_toy_scene,
)
from darksector.arcs import _pieces
from darksector.circle_map import decompose, decomposition_report
from darksector.exact_angle import (
    GroupElement,
    apply,
    make_rational_turn,
    reflection_group,
    wrap_angle,
)
from darksector.scene import (
    EPS_SINGULAR,
    EnclosingCircle,
    Mirror,
    Scene,
    _source_arc,
    enclosing_circle,
    endpoints,
    load_scene,
    validate_scene,
)
from darksector.scenegen import random_scene
from darksector import tracer
from darksector.tracer import (
    WARM,
    Hit,
    SingularStop,
    TraceStatus,
    exit_ray,
    first_hit,
    reflection_points,
    trace,
)
from test_golden import LONG_TRACE_SCENES, LONG_TRACES, SCENES

TWO_PI = 2.0 * math.pi
TEST_SCENES = Path(__file__).resolve().parent / "scenes"


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
        assert reflection_points(single_mirror_scene, 3 * math.pi / 2, tr)[0] == (0.0, 1.0)
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
        with pytest.raises(ValueError, match="bounce cap must be >= 1"):
            trace(single_mirror_scene, 0.0, cap=0)

    @pytest.mark.parametrize("theta0", [1.0, 3 * math.pi / 2, 1.0 + TWO_PI, 3 * math.pi / 2 + TWO_PI])
    def test_cap_is_checked_at_every_launch(self, single_mirror_scene, theta0):
        # 1.0 looks up a cell with no mirror, 3pi/2 the mirror's cell, and a
        # launch a turn on scans every mirror
        bounds, cells = single_mirror_scene.source_cells
        assert [len(cells[bisect_right(bounds, t)]) for t in (1.0, 3 * math.pi / 2)] == [0, 1]
        with pytest.raises(ValueError, match="bounce cap must be >= 1"):
            trace(single_mirror_scene, theta0, cap=0)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_cap_is_checked_before_the_direction(self, parallel_scene, theta0):
        with pytest.raises(ValueError, match="bounce cap must be >= 1"):
            trace(parallel_scene, theta0, 0)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_launch_direction_must_be_finite(self, parallel_scene, theta0):
        # a NaN direction used to "hit" mirror 2 at (nan, nan) and escape
        with pytest.raises(ValueError, match="launch direction"):
            trace(parallel_scene, theta0, 5)

    def test_deterministic(self, toy_scene):
        a = trace(toy_scene, 4.0, cap=100)
        b = trace(toy_scene, 4.0, cap=100)
        assert a == b


def outcome(scene, theta0, tr):
    """The fields of ``tr``, the trace of ``theta0`` in ``scene``, with the
    source and reflection points that reflection_points rebuilds."""
    return (tr.status, tr.itinerary, reflection_points(scene, theta0, tr), tr.exit_point,
            tr.exit_dir_numeric, tr.exit_dir_exact, tr.bounce_count, tr.stop_point)


def trace_by_first_hit(scene, theta0, cap):
    """``outcome(scene, theta0, trace(scene, theta0, cap))``, stepped by hand from the
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


SWITCH_COUNTS = (WARM - 1, WARM, WARM + 1, 2 * WARM)


def nth_random_scene(seed, n):
    """The nth draw of ``random_scene(Random(seed), n_mirrors=6)``."""
    rng = random.Random(seed)
    for _ in range(n):
        scene = random_scene(rng, n_mirrors=6)
    return scene


def ending_launches(scene, thetas):
    """``(status, m) -> (theta0, cap)`` for each m of SWITCH_COUNTS: a launch
    among ``thetas`` that escapes after m reflections, one stopped by a cap
    of m, and one found by bisecting between neighbours whose (m + 1)th hit
    differs that stops singular after m reflections."""
    found = {}
    traces = [trace(scene, theta0, 100) for theta0 in thetas]
    for theta0, tr in zip(thetas, traces):
        for m in SWITCH_COUNTS:
            if tr.status is TraceStatus.ESCAPED and tr.bounce_count == m:
                found.setdefault((TraceStatus.ESCAPED, m), (theta0, 100))
            if tr.bounce_count > m:
                found.setdefault((TraceStatus.BOUNCE_CAP_EXCEEDED, m), (theta0, m))
    for (a, ta), (b, tb) in zip(zip(thetas, traces), zip(thetas[1:], traces[1:])):
        for m in SWITCH_COUNTS:
            key = ta.itinerary[: m + 1]
            if ((TraceStatus.SINGULAR, m) in found or ta.itinerary[:m] != tb.itinerary[:m]
                    or key == tb.itinerary[: m + 1]):
                continue
            lo, hi = a, b
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                tr = trace(scene, mid, 100)
                if tr.status is TraceStatus.SINGULAR and tr.bounce_count == m:
                    found[TraceStatus.SINGULAR, m] = (mid, 100)
                    break
                lo, hi = (mid, hi) if tr.itinerary[: m + 1] == key else (lo, mid)
    return found


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
            assert outcome(scene, theta0, tr) == trace_by_first_hit(scene, theta0, cap)
            statuses.add(tr.status)
        assert statuses == set(TraceStatus)

    def test_singular_hit_at_the_cap_is_singular(self, parallel_scene):
        # off the bottom mirror at x = 1/3, then onto the top mirror's tip
        # (1, 1): the second hit is singular, and that outranks the cap of 1
        theta0 = math.atan2(-1.5, 1.0)
        tr = trace(parallel_scene, theta0, 1)
        assert tr.status is TraceStatus.SINGULAR and tr.bounce_count == 1
        assert outcome(parallel_scene, theta0, tr) == trace_by_first_hit(parallel_scene, theta0, 1)

    def test_channel_to_the_cap(self, parallel_scene):
        rng = random.Random(9)
        for _ in range(40):
            theta0 = math.pi / 2 + rng.uniform(-0.2, 0.2)
            tr = trace(parallel_scene, theta0, 150)
            assert outcome(parallel_scene, theta0, tr) == trace_by_first_hit(
                parallel_scene, theta0, 150)

    def test_grazing_threshold(self, single_mirror_scene):
        # rays from far off to the left aimed at the mirror's middle meet it
        # at incidence angles of ~h / 1000, on both sides of the grazing
        # threshold EPS_SINGULAR = 1e-9: a grazing stop below it, a
        # reflection and escape above it
        heights = [0.5e-6 + 1.5e-6 * i / 40 for i in range(41)]
        heights += [1e-6 * (1.0 + j * 1e-13) for j in range(-20, 21)]
        statuses = set()
        for h in heights:
            scene = Scene(mirrors=single_mirror_scene.mirrors, source=(-1000.0, h))
            theta0 = math.atan2(-h, 1000.0)
            tr = trace(scene, theta0, 5)
            assert outcome(scene, theta0, tr) == trace_by_first_hit(scene, theta0, 5)
            if tr.status is TraceStatus.SINGULAR:
                assert first_hit(scene.source, theta0, scene).reason == "grazing"
            statuses.add(tr.status)
        assert statuses == {TraceStatus.SINGULAR, TraceStatus.ESCAPED}

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
            assert outcome(scene, theta0, tr) == trace_by_first_hit(scene, theta0, cap)
            statuses.add(tr.status)
        assert statuses == set(TraceStatus)

    @pytest.mark.parametrize(
        "scene, thetas",
        [
            (make_parallel_scene(), [math.pi / 2 - 0.3 + 0.6 * i / 2000 for i in range(2001)]),
            (make_six_mirror_trap_scene(), [TWO_PI * i / 20000 for i in range(20000)]),
            (nth_random_scene(5, 2), [TWO_PI * i / 4000 for i in range(4000)]),
            (nth_random_scene(7, 2), [TWO_PI * i / 4000 for i in range(4000)]),
        ],
        ids=["channel", "six_mirror_trap", "random_5", "random_7"],
    )
    def test_every_end_at_the_switch(self, scene, thetas):
        # trace goes on from leg tables after WARM reflections; each status
        # at WARM - 1, WARM, WARM + 1 and 2 * WARM reflections, each launch
        # also under the caps around the switch
        launches = ending_launches(scene, thetas)
        assert set(launches) == {(s, m) for s in TraceStatus for m in SWITCH_COUNTS}
        for (status, m), (theta0, cap) in launches.items():
            tr = trace(scene, theta0, cap)
            assert (tr.status, tr.bounce_count) == (status, m)
            for c in (cap, WARM - 1, WARM, WARM + 1):
                assert outcome(scene, theta0, trace(scene, theta0, c)) == trace_by_first_hit(
                    scene, theta0, c)

    def test_grazing_stop_past_the_switch(self):
        # a ray just below the horizontal bounces between two upright mirrors
        # 2000 apart and sinks 2000 * s a pass, so it meets the flat mirror in
        # the middle after 2 * WARM reflections at an incidence of s, on both
        # sides of the grazing threshold EPS_SINGULAR = 1e-9
        mirrors = (
            Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
            Mirror((-1000.0, -1.0), 2.0, make_rational_turn(1, 2)),
            Mirror((1000.0, -1.0), 2.0, make_rational_turn(1, 2)),
        )
        statuses = set()
        for i in range(41):
            s = 0.5e-9 + 1.5e-9 * i / 40
            scene = Scene(mirrors=mirrors, source=(0.0, 2 * WARM * 2000.0 * s))
            theta0 = TWO_PI - math.atan(s)
            tr = trace(scene, theta0, 5 * WARM)
            assert outcome(scene, theta0, tr) == trace_by_first_hit(scene, theta0, 5 * WARM)
            if tr.status is TraceStatus.SINGULAR:
                assert tr.bounce_count == 2 * WARM
                stop = first_hit(tr.exit_point, tr.exit_dir_numeric, scene, tr.itinerary[-1][0])
                assert (stop.mirror_index, stop.reason) == (1, "grazing")
            statuses.add(tr.status)
        assert statuses == {TraceStatus.SINGULAR, TraceStatus.BOUNCE_CAP_EXCEEDED}


def wall_scene(num, anchor_y):
    """A long upright mirror at x = -1 and, at x = 1, a unit mirror at angle
    num/2 * pi anchored at (1, anchor_y), the source at the origin.  The
    launch at 0.0 runs along the x axis to the unit mirror and back, and
    each return leg (cos pi = -1, sin pi > 0) lifts it by about 2.4e-16, so
    each hit on the unit mirror sits a little higher than the one before."""
    upright = make_rational_turn(1, 2)
    return Scene(mirrors=(Mirror((-1.0, -5.0), 10.0, upright),
                          Mirror((1.0, anchor_y), 1.0, make_rational_turn(num, 2))),
                 source=(0.0, 0.0))


def wall_hit_u(scene, n):
    """u of the launch's nth hit (n even, on the unit mirror), by trace's
    own expressions for a leg along 0.0."""
    tr = trace(scene, 0.0, 2 * WARM)
    ox, oy = reflection_points(scene, 0.0, tr)[n]
    ax, ay, ex, ey, *_ = scene.scan_rows[0][1]
    dx, dy = math.cos(0.0), math.sin(0.0)
    wx, wy = ax - ox, ay - oy
    return (wx * dy - wy * dx) / (dx * ey - dy * ex)


def wall_scene_hit_at(num, n, u, anchor_y):
    """The wall_scene whose launch meets its unit mirror at exactly u on
    its nth reflection: the anchor moved from anchor_y by the miss in u
    (the downward mirror's u grows with its anchor, the upward one's falls),
    then an ulp at a time."""
    sign = 1.0 if num == 3 else -1.0
    for _ in range(100):
        scene = wall_scene(num, anchor_y)
        got = wall_hit_u(scene, n)
        if got == u:
            return scene
        moved = anchor_y + sign * (u - got)
        if moved == anchor_y:
            moved = math.nextafter(anchor_y, sign * (u - got) * math.inf)
        anchor_y = moved
    raise AssertionError(f"no anchor puts hit {n} at u = {u!r}")


def leg_verdict(hit):
    """first_hit's answer in exact_leg's form."""
    if hit is None:
        return None
    return hit.mirror_index, hit.reason if isinstance(hit, SingularStop) else hit.side


def exact_checked_scenes():
    """(scene, cap, launches) of the traces whose legs TestExactPredicates
    checks: the golden long traces, 32 launches on each bundled scene, the
    channel and the trap, and 32 at cap 12 on 30 seed-1 random scenes."""
    for name, theta, cap in sorted(LONG_TRACES):
        yield LONG_TRACE_SCENES[name](), cap, [float(theta)]
    spread = [(i + 0.5) * TWO_PI / 32 for i in range(32)]
    for path in sorted([*SCENES.glob("*.json"), *TEST_SCENES.glob("*.json")]):
        yield load_scene(path.read_bytes()), 100, spread
    yield make_parallel_scene(), 400, spread
    yield make_six_mirror_trap_scene(), 100, spread
    rng = random.Random(1)
    for _ in range(30):
        scene = random_scene(rng)
        yield scene, 12, [rng.uniform(0.0, TWO_PI) for _ in range(32)]


def aimed_launches(scene):
    """For each mirror, the launches from the source at u = -s/2, s/2,
    1 - s/2 and 1 + s/2, s = EPS_SINGULAR / length: endpoint-singular hits,
    two of them beyond the segment but within its u slack."""
    sx, sy = scene.source
    for m in scene.mirrors:
        s = EPS_SINGULAR / m.length
        (ax, ay), (bx, by) = endpoints(m)
        for u in (-s / 2, s / 2, 1 - s / 2, 1 + s / 2):
            yield wrap_angle(math.atan2(ay + u * (by - ay) - sy, ax + u * (bx - ax) - sx))


class TestExactPredicates:
    def test_first_hit_decides_every_leg_as_exact_arithmetic_does(self):
        # each leg of each trace, from the tracer's own reflection points; a
        # leg that leaves a mirror is asked once more with no mirror
        # excluded, where the mirror it leaves lies at t ~ 0 <= EPS_ADVANCE
        legs, verdicts, disagreements = 0, set(), []
        for scene, cap, launches in exact_checked_scenes():
            for theta0 in [*launches, *aimed_launches(scene)]:
                tr = trace(scene, theta0, cap)
                theta, last = theta0, None
                for point, (index, _) in zip(reflection_points(scene, theta0, tr),
                                             [*tr.itinerary, (None, None)]):
                    for exclude in {last, None}:
                        want = exact_leg(point, theta, scene, exclude)
                        got = leg_verdict(first_hit(point, theta, scene, exclude))
                        if got != want:
                            disagreements.append((scene, theta0, point, theta, exclude, got, want))
                        verdicts.add(None if want is None else want[1])
                    legs += 1
                    if index is not None:
                        theta = wrap_angle(scene.geometry[index - 1].two_angle - theta)
                        last = index
        assert disagreements == []
        assert verdicts == {None, "endpoint", 1, -1}
        assert legs > 2500


class TestEndpointThresholdsInTheLoop:
    """A hit at exactly u_lo or u_hi reflects and one a float beyond it
    stops, in the plain loop (hits 0 and 2) and in the tabled loop (hit
    WARM sets its row's step and hit WARM + 2 reads it)."""

    @pytest.mark.parametrize("n", [0, 2, WARM, WARM + 2])
    @pytest.mark.parametrize("side", ["u_lo", "u_hi"])
    def test_a_hit_on_the_threshold_and_beyond(self, side, n):
        # u_hi on the upward mirror, whose u rises hit by hit, so the hits
        # before the nth are clear of both ends; u_lo on the downward one
        num, anchor_y = (1, -1.0 + 2e-9) if side == "u_hi" else (3, 2e-9)
        geometry = wall_scene(num, anchor_y).geometry[1]
        u_lo, u_hi = geometry.u_lo, geometry.u_hi
        at, beyond = ((u_hi, math.nextafter(u_hi, math.inf)) if side == "u_hi"
                      else (u_lo, math.nextafter(u_lo, -math.inf)))
        for u, status, bounces in ((at, None, None), (beyond, TraceStatus.SINGULAR, n)):
            scene = wall_scene_hit_at(num, n, u, anchor_y)
            assert (scene.geometry[1].u_lo, scene.geometry[1].u_hi) == (u_lo, u_hi)
            tr = trace(scene, 0.0, 2 * WARM)
            assert outcome(scene, 0.0, tr) == trace_by_first_hit(scene, 0.0, 2 * WARM)
            if status is None:
                assert tr.bounce_count > n
            else:
                assert (tr.status, tr.bounce_count) == (status, bounces)


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
                (ax0, ay0), (bx, by) = endpoints(scene.mirrors[g.index - 1])
                slack = EPS_SINGULAR / g.length
                assert (ax, ay) == (ax0, ay0)
                assert (ex, ey, lo, hi) == (bx - ax, by - ay, -slack, 1.0 + slack)


def shifted(scene, dx, dy):
    """The scene translated by (dx, dy)."""
    return Scene(
        mirrors=tuple(Mirror((m.anchor[0] + dx, m.anchor[1] + dy), m.length, m.angle)
                      for m in scene.mirrors),
        source=(scene.source[0] + dx, scene.source[1] + dy),
    )


def long_channel_scene():
    """Two facing parallel mirrors 1e4 long, the source between them."""
    flat = make_rational_turn(0, 1)
    return Scene(mirrors=(Mirror((-5e3, 0.0), 1e4, flat), Mirror((-5e3, 1.0), 1e4, flat)),
                 source=(1.0, 0.5))


def edge_launches(scene):
    """Directions in [0, 2pi) at and within 1e-15 to 1e-6 of each cell bound
    and each direction from the source to a slack-extended mirror endpoint."""
    sx, sy = scene.source
    edges = list(scene.source_cells[0])
    for ax, ay, ex, ey, lo, hi, _ in scene.scan_rows[0]:
        edges += [math.atan2(ay + u * ey - sy, ax + u * ex - sx) for u in (lo, hi)]
    offsets = [0.0] + [sign * 10.0**-k for k in range(6, 16) for sign in (1, -1)]
    return [wrap_angle(e + o) for e in edges if math.isfinite(e) for o in offsets]


# Whole turns added to each launch: 0 looks the first leg's cell up, and
# every other turn scans every mirror.
TURNS = (0, 1, 3, -3, 10**6, 10**15)


def assert_matches_the_full_scan(scene, cap=3):
    for theta in edge_launches(scene):
        for k in TURNS:
            theta0 = theta + k * TWO_PI
            tr = trace(scene, theta0, cap)
            assert outcome(scene, theta0, tr) == trace_by_first_hit(scene, theta0, cap), (theta, k)


def assert_cells_list_the_rows_their_arcs_meet(scene):
    bounds, cells = scene.source_cells
    rows = scene.scan_rows[0]
    arcs = [_source_arc(scene.source, row) for row in rows]
    assert list(bounds) == sorted(set(bounds)) and all(0.0 < b < TWO_PI for b in bounds)
    assert len(cells) == len(bounds) + 1
    edges = (0.0, *bounds, TWO_PI)
    for cell, left, right in zip(cells, edges, edges[1:]):
        assert cell == tuple(row for row, arc in zip(rows, arcs)
                             if any(lo < right and left < hi for lo, hi in arc))
    sx, sy = scene.source
    for (ax, ay, ex, ey, lo, hi, _), arc in zip(rows, arcs):
        if arc == ((0.0, TWO_PI),):
            continue
        # an indexed arc is narrower than a half turn and holds the
        # directions to both extended endpoints
        assert sum(end - start for start, end in arc) < math.pi
        for u in (lo, hi):
            direction = wrap_angle(math.atan2(ay + u * ey - sy, ax + u * ex - sx))
            assert any(start <= direction < end for start, end in arc)


TABLE_SCENES = {
    "single_mirror": make_single_mirror_scene(),
    "toy": make_toy_scene(),
    "channel": make_parallel_scene(),
    "six_mirror_trap": make_six_mirror_trap_scene(),
    "long_channel": long_channel_scene(),
    "toy_shifted": shifted(make_toy_scene(), 1e6, -1e6),
    "trap_shifted": shifted(make_six_mirror_trap_scene(), -1e6, 1e6),
    "long_channel_shifted": shifted(long_channel_scene(), 1e6, 1e6),
}


class TestSourceCells:
    """A first leg scans only the rows of its direction's cell; the full
    scan of first_hit, stepped by trace_by_first_hit, is the oracle."""

    @pytest.mark.parametrize("scene", TABLE_SCENES.values(), ids=TABLE_SCENES.keys())
    def test_translated_scenes_and_long_mirrors(self, scene):
        assert_cells_list_the_rows_their_arcs_meet(scene)
        assert_matches_the_full_scan(scene)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("gap", [1e-8, 1e-7, 1e-6])
    def test_source_near_a_mirror(self, gap, shift):
        # the toy's mirror 1 runs from (-1, 0) to (1, 0), its mirror 2 from
        # (1.5, 0.5) to (1.5, 2.5): above and below the middle of one, on its
        # line beyond either tip, off a tip, and beside the other and on its
        # line beyond a tip
        toy = make_toy_scene()
        for source in [(0.25, gap), (0.25, -gap), (1.0 + gap, 0.0), (-1.0 - gap, 0.0),
                       (1.0 + gap, gap), (1.5 - gap, 1.5), (1.5, 0.5 - gap)]:
            scene = shifted(Scene(mirrors=toy.mirrors, source=source), shift, -shift)
            assert_cells_list_the_rows_their_arcs_meet(scene)
            assert_matches_the_full_scan(scene)

    def test_zero_length_mirror_is_in_every_cell(self):
        toy = make_toy_scene()
        dot = Mirror((0.0, -2.0), 0.0, make_rational_turn(1, 4))
        scene = Scene(mirrors=(*toy.mirrors, dot), source=toy.source)
        assert [v.code for v in validate_scene(scene)] == ["non-positive-length"]
        zero = scene.scan_rows[0][2]
        assert all(any(row is zero for row in cell) for cell in scene.source_cells[1])
        assert_cells_list_the_rows_their_arcs_meet(scene)
        assert_matches_the_full_scan(scene)

    def test_a_leg_that_sees_no_mirror_escapes_at_once(self, single_mirror_scene):
        # the single mirror is seen below the source only; the other cells
        # are empty, and the result is the loop's own escape at n = 0
        bounds, cells = single_mirror_scene.source_cells
        assert [len(cell) for cell in cells] == [0, 1, 0]
        for theta0 in (0.0, 1.0, bounds[0] - 1e-3, bounds[1] + 1e-3, TWO_PI - 1e-12):
            for k in (0, 1, 3):
                theta = theta0 + k * TWO_PI
                tr = trace(single_mirror_scene, theta, 5)
                assert tr.status is TraceStatus.ESCAPED and tr.bounce_count == 0
                assert outcome(single_mirror_scene, theta, tr) == trace_by_first_hit(
                    single_mirror_scene, theta, 5)

    def test_an_empty_cell_escape_is_in_its_own_scenes_unit(self):
        # one mirror at a third or at a quarter turn, far below the source:
        # straight up is an empty cell, and its escape is the identity in the
        # scene's own unit, pi/3 or pi/4, whichever scene traced before it
        scenes = [Scene(mirrors=(Mirror((-0.5, 0.0), 1.0, make_rational_turn(1, den)),),
                        source=(0.0, 3.0)) for den in (3, 4)]
        assert [scene.angle_unit for scene in scenes] == [3, 4]
        for scene in scenes + scenes:
            identity = GroupElement(1, 0, scene.angle_unit)
            bounds, cells = scene.source_cells
            assert not cells[bisect_right(bounds, math.pi / 2)]
            assert scene.source_escape == (scene.source, identity)
            tr = trace(scene, math.pi / 2, 5)
            assert outcome(scene, math.pi / 2, tr) == trace_by_first_hit(scene, math.pi / 2, 5)
            assert tr.exit_dir_exact == identity
            d = decompose(scene, enclosing_circle(scene), seeds=64)
            direct = [i for i, c in enumerate(d.components) if c.itinerary == ()]
            assert any(lo <= math.pi / 2 < hi for i in direct for lo, hi in _pieces(d.components[i].arc))
            report = decomposition_report(d)["components"]
            for i in direct:
                assert d.components[i].isometry == identity
                assert report[i]["isometry"] == identity.to_dict()

    def test_a_launch_at_minus_zero_exits_at_plus_zero(self, single_mirror_scene):
        # -0.0 passes 0.0 <= theta0 and finds the empty cell at 0; its exit
        # direction is +0.0, as theta % TWO_PI gives on the full scan
        tr = trace(single_mirror_scene, -0.0, 5)
        assert tr.status is TraceStatus.ESCAPED and tr.bounce_count == 0
        assert tr.exit_dir_numeric == 0.0 and math.copysign(1.0, tr.exit_dir_numeric) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e6]),
        st.booleans(),
        st.one_of(st.none(), st.floats(1e-8, 1e-6)),
        st.floats(-0.5, 1.5),
    )
    def test_random_scenes(self, seed, shift, stretch, gap, u):
        # mirror 1 optionally 1e4 long, and the source optionally moved to
        # ``gap`` off its line, at u along it (beyond a tip when u < 0 or > 1)
        scene = random_scene(random.Random(seed))
        first = scene.mirrors[0]
        if stretch:
            first = Mirror(first.anchor, 1e4, first.angle)
        source = scene.source
        if gap is not None:
            (ax, ay), (bx, by) = endpoints(first)
            t = first.angle.radians()
            source = (ax + u * (bx - ax) - gap * math.sin(t), ay + u * (by - ay) + gap * math.cos(t))
        scene = shifted(Scene(mirrors=(first, *scene.mirrors[1:]), source=source), shift, -shift)
        assert_cells_list_the_rows_their_arcs_meet(scene)
        assert_matches_the_full_scan(scene)


class TestNoCallPerBounce:
    def test_python_calls_do_not_grow_with_the_bounces(self, parallel_scene):
        # a ray 1e-6 off straight up the channel stays trapped to cap 2,000
        # (at 1e-3 off it escapes after 1,000 reflections); a Python-level
        # helper called per leg would add its calls once per bounce
        theta0 = math.pi / 2 + 1e-6
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

        assert calls(10) == calls(200) == calls(2000)

    def test_python_calls_do_not_grow_with_the_bounces_in_the_trap(self):
        # a launch trapped between the six-mirror trap's parallel pairs
        scene = make_six_mirror_trap_scene()
        theta0 = 2.618
        trace(scene, theta0, 1)

        def calls(cap):
            events = []
            sys.setprofile(lambda frame, event, arg: events.append(event))
            try:
                tr = trace(scene, theta0, cap)
            finally:
                sys.setprofile(None)
            assert tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED and tr.bounce_count == cap
            return events.count("call")

        assert calls(10) == calls(200)


TRAPPED_LAUNCHES = [(make_parallel_scene, math.pi / 2 + 1e-6), (make_six_mirror_trap_scene, 2.618)]


class TestLegTables:
    @pytest.mark.parametrize("make_scene, theta0", TRAPPED_LAUNCHES,
                             ids=["channel", "six_mirror_trap"])
    def test_tables_built_do_not_grow_with_the_cap(self, make_scene, theta0, monkeypatch):
        scene = make_scene()
        built = []
        leg_table = tracer._leg_table

        def counting(rows, theta):
            built.append(theta)
            return leg_table(rows, theta)

        monkeypatch.setattr(tracer, "_leg_table", counting)

        def tables(cap):
            built.clear()
            tr = trace(scene, theta0, cap)
            assert tr.status is TraceStatus.BOUNCE_CAP_EXCEEDED and tr.bounce_count == cap
            return len(built)

        assert 0 < tables(100) == tables(400) == tables(2000)

    def test_tables_belong_to_one_trace(self):
        names = set(vars(tracer))
        for make_scene, theta0 in TRAPPED_LAUNCHES:
            scene = make_scene()
            for cap in (100, 2000):
                trace(scene, theta0, cap)
            assert set(scene.__dict__) <= {
                "angle_unit", "source_escape", "geometry", "scan_rows", "source_cells"}
        assert set(vars(tracer)) == names


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
            theta0 = rng.uniform(0.0, TWO_PI)
            tr = trace(scene, theta0, cap=200)
            for p in reflection_points(scene, theta0, tr):
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
