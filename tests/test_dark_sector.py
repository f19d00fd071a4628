import dataclasses
import gc
import json
import math
import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    angles_close,
    arc_contains_arc,
    direction_arc,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
    make_toy_scene,
    ray_enters_sector,
)
from darksector import dark_sector
from darksector.arcs import Arc
from darksector.circle_map import decompose, unlit_arcs
from darksector.cli import main
from darksector.dark_sector import (
    MAX_SECTOR_MEASURE,
    DarkSector,
    _clears_disk,
    build_sector,
    exit_probes,
    shrink_below_pi,
    verify_darkness,
)
from darksector.exact_angle import wrap_angle
from darksector.scene import EnclosingCircle, enclosing_circle, load_scene
from darksector.tracer import TraceStatus, trace

TWO_PI = 2.0 * math.pi
SCENES = Path(__file__).resolve().parent / "scenes"


def contains(s, p):
    """Strict membership of the point p in the open sector s."""
    vx, vy = p[0] - s.apex[0], p[1] - s.apex[1]
    clo = math.cos(s.dir_lo) * vy - math.sin(s.dir_lo) * vx
    chi = math.cos(s.dir_hi) * vy - math.sin(s.dir_hi) * vx
    return clo > 0.0 and chi < 0.0


def oracle_bad_points(s, circle, n, seed):
    """Check (i)'s bad points as the arc algebra finds them, on the points
    verify_darkness draws: radii from the apex log-uniform over
    [1, 10**6]*R, the 6 written out so that a change to SAMPLE_DECADES
    shows."""
    dark = Arc(s.dir_lo, s.dir_hi)
    rng = random.Random(seed)
    bad = []
    for _ in range(n):
        theta = s.dir_lo + rng.random() * dark.measure
        r = circle.radius * 10.0 ** (6 * rng.random())
        p = (s.apex[0] + r * math.cos(theta), s.apex[1] + r * math.sin(theta))
        if not arc_contains_arc(dark, direction_arc(p, circle), tol=1e-12):
            bad.append(p)
    return bad


@pytest.fixture
def single_mirror_pipeline(single_mirror_scene, single_mirror_circle):
    d = decompose(single_mirror_scene, single_mirror_circle, seeds=512, eps_b=1e-10, cap=50)
    return d, unlit_arcs(d)


class TestShrinkBelowPi:
    def test_single_mirror_arc_is_kept(self, single_mirror_pipeline):
        d, unlit = single_mirror_pipeline
        assert len(unlit) == 1
        dark = shrink_below_pi(unlit[0])
        assert dark == unlit[0]
        assert angles_close(dark.start, 5 * math.pi / 4, 1e-8)
        assert angles_close(dark.end, 7 * math.pi / 4, 1e-8)
        assert dark.measure == pytest.approx(math.pi / 2, abs=1e-8)

    def test_arc_just_below_a_half_turn_is_kept(self):
        arc = Arc(0.0, 0.95 * math.pi)
        assert shrink_below_pi(arc) == arc

    def test_wide_arc_shrunk_about_midpoint(self):
        wide = Arc(0.0, 1.5 * math.pi)
        dark = shrink_below_pi(wide)
        assert dark.measure == pytest.approx(math.pi - 1e-6)
        assert angles_close(dark.midpoint, wide.midpoint, 1e-12)


class TestBuildSector:
    def test_downward_sector_geometry(self):
        k = EnclosingCircle((0.0, 0.5), 2.0)
        s = build_sector(Arc(5 * math.pi / 4, 7 * math.pi / 4), k)
        r2 = math.sqrt(2.0)
        assert s.apex[0] == pytest.approx(0.0, abs=1e-12)
        assert s.apex[1] == pytest.approx(0.5 - 2 * r2)
        assert s.tangent_points[0][0] == pytest.approx(r2)
        assert s.tangent_points[0][1] == pytest.approx(0.5 - r2)
        assert s.tangent_points[1][0] == pytest.approx(-r2)
        assert s.tangent_points[1][1] == pytest.approx(0.5 - r2)
        assert s.interior_angle == pytest.approx(math.pi / 2)

    def test_upward_sector_geometry(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        s = build_sector(Arc(math.pi / 4, 3 * math.pi / 4), k)
        assert s.apex[0] == pytest.approx(0.0, abs=1e-12)
        assert s.apex[1] == pytest.approx(math.sqrt(2.0))
        assert s.interior_angle == pytest.approx(math.pi / 2)

    def test_interior_angle_equals_arc_measure_exactly(self):
        k = EnclosingCircle((0.3, -0.2), 1.7)
        arc = Arc(0.3, 2.1)
        s = build_sector(arc, k)
        assert s.interior_angle == arc.measure

    def test_tangency(self):
        k = EnclosingCircle((0.4, 1.2), 2.5)
        for start, width in ((0.0, 1.0), (3.0, 2.0), (5.5, 2.5)):
            arc = Arc(start, start + width)
            s = build_sector(arc, k)
            for tp, direction in ((s.tangent_points[0], s.dir_lo), (s.tangent_points[1], s.dir_hi)):
                # distance from the circle center to each boundary line is R
                ux, uy = math.cos(direction), math.sin(direction)
                vx, vy = k.center[0] - tp[0], k.center[1] - tp[1]
                assert abs(ux * vy - uy * vx) == pytest.approx(k.radius, abs=1e-9)
            # the apex stays outside the circle
            d = math.hypot(s.apex[0] - k.center[0], s.apex[1] - k.center[1])
            assert d > k.radius

    def test_rejects_wide_arc(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        arc = Arc(0.0, math.pi + 0.1)
        with pytest.raises(ValueError):
            build_sector(arc, k)

    def test_sector_disjoint_from_closed_disk(self):
        k = EnclosingCircle((-0.7, 0.9), 1.3)
        rng = random.Random(8)
        for start, width in ((0.2, 0.9), (2.0, 1.4), (4.4, 2.8)):
            arc = Arc(start, start + width)
            s = build_sector(arc, k)
            for _ in range(500):
                theta = s.dir_lo + rng.random() * s.interior_angle
                r = 10 ** rng.uniform(-3, 2) * k.radius
                p = (s.apex[0] + r * math.cos(theta), s.apex[1] + r * math.sin(theta))
                if contains(s, p):
                    d = math.hypot(p[0] - k.center[0], p[1] - k.center[1])
                    assert d >= k.radius - 1e-9

    def test_monotone_in_the_arc(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        inner = Arc(1.2, 2.2)
        outer = Arc(1.0, 2.5)
        si = build_sector(inner, k)
        so = build_sector(outer, k)
        rng = random.Random(1)
        for _ in range(300):
            theta = rng.uniform(si.dir_lo + 1e-6, si.dir_lo + inner.measure - 1e-6)
            r = 10 ** rng.uniform(-2, 3)
            p = (si.apex[0] + r * math.cos(theta), si.apex[1] + r * math.sin(theta))
            assert contains(so, p)


class TestContains:
    def test_derived_points(self):
        k = EnclosingCircle((0.0, 0.5), 2.0)
        arc = Arc(5 * math.pi / 4, 7 * math.pi / 4)
        s = build_sector(arc, k)
        assert contains(s, (0.0, -100.0))
        assert not contains(s, (100.0, 0.0))
        assert not contains(s, s.apex)

    def test_boundary_rays_excluded(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        arc = Arc(0.0, 1.0)
        s = build_sector(arc, k)
        on_lo = (s.apex[0] + 5 * math.cos(s.dir_lo), s.apex[1] + 5 * math.sin(s.dir_lo))
        assert not contains(s, on_lo)


class TestDirectionArc:
    def test_far_point(self):
        k = EnclosingCircle((0.0, 0.5), 2.0)
        arc = direction_arc((0.0, -100.0), k)
        assert angles_close(arc.midpoint, 3 * math.pi / 2, 1e-12)
        assert arc.measure / 2 == pytest.approx(math.asin(2.0 / 100.5))

    def test_double_radius(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        arc = direction_arc((2.0, 0.0), k)
        assert arc.measure / 2 == pytest.approx(math.pi / 6)

    def test_inside_rejected(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            direction_arc((0.5, 0.0), k)
        with pytest.raises(ValueError):
            direction_arc((1.0, 0.0), k)

    def test_enumeration_oracle(self):
        # every direction from a boundary point toward p must lie in the arc
        k = EnclosingCircle((0.3, -0.1), 1.7)
        p = (4.0, 5.0)
        arc = direction_arc(p, k)
        seen = []
        for i in range(720):
            t = TWO_PI * i / 720
            q = (k.center[0] + k.radius * math.cos(t), k.center[1] + k.radius * math.sin(t))
            seen.append(math.atan2(p[1] - q[1], p[0] - q[0]) % TWO_PI)
        for direction in seen:
            off = (direction - arc.start) % TWO_PI
            assert off <= arc.measure + 1e-9
        # and the arc is tight: its endpoints are approached by samples
        lo_gap = min((d - arc.start) % TWO_PI for d in seen)
        hi_gap = min((arc.end - d) % TWO_PI for d in seen)
        assert lo_gap <= 1e-2 and hi_gap <= 1e-2


class TestCheckI:
    """Check (i)'s tangent lemma, ``_clears_disk``, against sampling."""

    @settings(max_examples=100, deadline=None)
    @given(
        # arcs anywhere, often wrapping through 0, of any opening, tiny ones
        # log-uniform, and near the cap
        lo=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                     st.floats(TWO_PI - 0.5, TWO_PI, exclude_max=True)),
        width=st.one_of(st.floats(2e-10, MAX_SECTOR_MEASURE),
                        st.floats(math.log10(2e-10), 0.0).map(lambda e: 10.0**e),
                        st.floats(MAX_SECTOR_MEASURE - 1e-6, MAX_SECTOR_MEASURE)),
        radius=st.floats(1e-3, 1e3),
        # the center within 100 radii of the origin
        rho=st.floats(0.0, 100.0),
        phi=st.floats(0.0, TWO_PI),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_built_sector_clears_and_no_sample_fails_it(
        self, lo, width, radius, rho, phi, seed
    ):
        circle = EnclosingCircle(
            (rho * radius * math.cos(phi), rho * radius * math.sin(phi)), radius)
        s = build_sector(Arc(lo, lo + width), circle)
        assert _clears_disk(s, circle)
        assert oracle_bad_points(s, circle, 2000, seed) == []

    @pytest.mark.parametrize("start, end, move, clears", [
        (1.0, 1.0 + 1e-6, None, True),
        # turned 1e-9 rad about the center: its points see directions up to
        # ~1e-9 outside the arc
        (1.0, 1.0 + 1e-6, "turn", False),
        (1.0, 1.0 + 1e-6, "center", False),
        (0.0, 3.0, None, True),
        # pushed 1e-7*R toward the center across the lo edge: the disk
        # crosses that edge's line by 1e-7*R, ~1e5 times the slack
        (0.0, 3.0, "push", False),
    ], ids=["thin", "thin_turned", "thin_at_center", "wide", "wide_pushed"])
    def test_controls(self, start, end, move, clears):
        circle = EnclosingCircle((0.0, 0.0), 1.0)
        s = build_sector(Arc(start, end), circle)
        (x, y), c, si = s.apex, math.cos(1e-9), math.sin(1e-9)
        apex = {
            None: s.apex,
            "turn": (c * x - si * y, si * x + c * y),
            "center": circle.center,
            "push": (x + 1e-7 * math.sin(s.dir_lo), y - 1e-7 * math.cos(s.dir_lo)),
        }[move]
        assert _clears_disk(dataclasses.replace(s, apex=apex), circle) is clears

    def test_a_far_sector_falls_back_to_sampling_and_passes(self):
        # single_mirror moved 10**6 along x, as tools/parity.py runs it: the
        # apex's rounding there misses the lemma's slack, so check (i)
        # samples, and finds no bad point
        scene = make_single_mirror_scene()
        scene = dataclasses.replace(
            scene, source=(scene.source[0] + 1e6, scene.source[1]),
            mirrors=tuple(dataclasses.replace(m, anchor=(m.anchor[0] + 1e6, m.anchor[1]))
                          for m in scene.mirrors))
        d = decompose(scene, enclosing_circle(scene), seeds=64, eps_b=1e-4, cap=30)
        (arc,) = unlit_arcs(d)
        s = build_sector(shrink_below_pi(arc), d.circle)
        assert not _clears_disk(s, d.circle)
        report = verify_darkness(s, d, 200, exit_probes(d), seed=0)
        assert report.passed and report.sample_count == 200
        assert oracle_bad_points(s, d.circle, 200, seed=0) == []


class TestProbeDirections:
    @pytest.mark.parametrize(
        "make_scene, seeds, eps_b, cap",
        [(make_single_mirror_scene, 512, 1e-10, 50), (make_toy_scene, 256, 1e-7, 60),
         (make_six_mirror_trap_scene, 128, 1e-4, 30)],
        ids=["single_mirror", "toy", "six_mirror_trap"],
    )
    def test_every_probe_direction_lies_in_one_turn(
        self, make_scene, seeds, eps_b, cap, monkeypatch
    ):
        # trace leaves along the direction as given, so exit_probes must hand
        # it directions in [0, 2pi), also on the component through 0, whose
        # end probe lies past 2pi until wrapped
        scene = make_scene()
        d = decompose(scene, enclosing_circle(scene), seeds=seeds, eps_b=eps_b, cap=cap)
        assert any(c.arc.start + c.arc.measure > TWO_PI for c in d.components)
        thetas = []

        def recording_trace(scene, theta, cap):
            thetas.append(theta)
            return trace(scene, theta, cap)

        monkeypatch.setattr(dark_sector, "trace", recording_trace)
        assert exit_probes(d)
        assert len(thetas) == 3 * len(d.components)
        assert all(0.0 <= theta < TWO_PI for theta in thetas)


class TestVerifyDarkness:
    def test_single_mirror_passes(self, single_mirror_pipeline, single_mirror_circle):
        d, unlit = single_mirror_pipeline
        s = build_sector(shrink_below_pi(unlit[0]), single_mirror_circle)
        report = verify_darkness(s, d, 300, exit_probes(d), seed=5)
        assert report.passed
        assert report.direction_inclusion_ok
        assert report.image_disjoint_ok
        assert report.exit_rays_ok

    def test_a_certified_sector_costs_the_same_at_any_sample_budget(
        self, single_mirror_pipeline, single_mirror_circle
    ):
        d, unlit = single_mirror_pipeline
        s = build_sector(shrink_below_pi(unlit[0]), single_mirror_circle)
        probes = exit_probes(d)

        def calls(n):
            events = []
            # a collection would run the gc callbacks other libraries register
            gc.disable()
            sys.setprofile(lambda frame, event, arg: events.append(event))
            try:
                assert verify_darkness(s, d, n, probes, seed=5).passed
            finally:
                sys.setprofile(None)
                gc.enable()
            return events.count("call")

        # the lemma decides check (i) at the apex and draws no sample
        assert calls(100_000) == calls(100)

    def test_corrupted_arc_fails_disjointness(self, single_mirror_pipeline, single_mirror_circle):
        d, _ = single_mirror_pipeline
        # deliberately use an arc overlapping the image of the bounced
        # component: the negative control must fail checks (ii) and (iii),
        # the latter at exactly the probes whose exit rays, from their exit
        # points, the half-plane oracle finds entering the sector
        s = build_sector(Arc(math.pi / 4, 3 * math.pi / 4), single_mirror_circle)
        probes = exit_probes(d)
        report = verify_darkness(s, d, 50, probes, seed=5)
        assert not report.image_disjoint_ok
        assert not report.exit_rays_ok
        assert not report.passed
        assert len(probes) == 6
        exits = [trace(d.scene, theta, d.params.cap) for theta, _ in probes]
        assert report.offending_rays == [
            theta for (theta, _), tr in zip(probes, exits)
            if ray_enters_sector(tr.exit_point, tr.exit_dir_numeric, s)]
        assert report.offending_rays == pytest.approx(
            [3.92856, 4.71239, 5.49622, 1.57080], abs=1e-5)

    @pytest.mark.parametrize("reach, ok", [(0.0, True), (1e-9, False)])
    def test_an_image_reaching_into_the_arc_fails_check_ii(self, reach, ok):
        # check (ii) alone, on one image that ends ``reach`` inside Arc(1, 2)
        circle = EnclosingCircle((0.0, 0.0), 1.0)
        s = build_sector(Arc(1.0, 2.0), circle)
        image = types.SimpleNamespace(image=Arc(0.5, 1.0 + reach))
        d = types.SimpleNamespace(circle=circle, components=(image,))
        report = verify_darkness(s, d, 0, [])
        assert report.image_disjoint_ok is ok
        assert report.overlapping_images == (not ok)

    @pytest.mark.parametrize("turn, ok", [(0.0, True), (1e-9, False)])
    def test_an_apex_turned_off_its_arc_fails_check_i(self, turn, ok):
        # check (i) alone: the sector of a 1e-6 arc, its apex turned by
        # ``turn`` about the circle's center, which leaves its directions
        # and tangent points as built; the turned apex's points see
        # directions up to ~1e-9 outside the arc, above check (i)'s 1e-12
        # and below 1e-6
        circle = EnclosingCircle((0.0, 0.0), 1.0)
        s = build_sector(Arc(1.0, 1.0 + 1e-6), circle)
        (x, y), c, si = s.apex, math.cos(turn), math.sin(turn)
        s = dataclasses.replace(s, apex=(c * x - si * y, si * x + c * y))
        d = types.SimpleNamespace(circle=circle, components=())
        report = verify_darkness(s, d, 200, [], seed=0)
        assert report.direction_inclusion_ok is ok
        assert report.image_disjoint_ok and report.exit_rays_ok

    def test_exit_point_outside_the_circle_is_rejected(self, single_mirror_scene):
        # check (iii) reads exit directions only, which is sound only for
        # rays that leave the mirrors inside the circle
        far = EnclosingCircle((100.0, 100.0), 1.0)
        d = decompose(single_mirror_scene, far, seeds=64, eps_b=1e-6, cap=5)
        with pytest.raises(ValueError, match="trace exit point is not inside the circle"):
            exit_probes(d)

    def test_zero_samples_is_vacuous(self, single_mirror_pipeline, single_mirror_circle):
        d, unlit = single_mirror_pipeline
        s = build_sector(shrink_below_pi(unlit[0]), single_mirror_circle)
        report = verify_darkness(s, d, 0, exit_probes(d), seed=5)
        assert report.sample_count == 0
        assert report.direction_inclusion_ok
        assert report.image_disjoint_ok and report.exit_rays_ok

    def test_deterministic_given_seed(self, single_mirror_pipeline, single_mirror_circle):
        d, unlit = single_mirror_pipeline
        s = build_sector(shrink_below_pi(unlit[0]), single_mirror_circle)
        a = verify_darkness(s, d, 100, exit_probes(d), seed=9)
        b = verify_darkness(s, d, 100, exit_probes(d), seed=9)
        assert a == b

    @pytest.mark.parametrize(
        "make_scene,seeds,eps_b,cap",
        [(make_single_mirror_scene, 512, 1e-10, 50), (make_six_mirror_trap_scene, 128, 1e-4, 30)],
        ids=["single_mirror", "six_mirror_trap"],
    )
    def test_bad_points_are_the_oracles(self, make_scene, seeds, eps_b, cap):
        # the certified sectors pass check (i), and the same sectors moved
        # onto the circle's center, where rays do reach, fail it at exactly
        # the sample points where the arc algebra finds their direction arcs
        # leaving the dark arc
        scene = make_scene()
        d = decompose(scene, enclosing_circle(scene), seeds=seeds, eps_b=eps_b, cap=cap)
        probes = exit_probes(d)
        sectors = [build_sector(shrink_below_pi(a), d.circle) for a in unlit_arcs(d)]
        moved = [dataclasses.replace(s, apex=d.circle.center) for s in sectors]
        for i, s in enumerate(sectors):
            assert verify_darkness(s, d, 200, probes, seed=i).direction_inclusion_ok
        for i, s in enumerate(moved):
            bad_points = verify_darkness(s, d, 200, probes, seed=i).bad_points
            assert bad_points
            assert bad_points == oracle_bad_points(s, d.circle, 200, seed=i)


class TestCheckIII:
    """Check (iii)'s direction test against the half-plane oracle."""

    @settings(max_examples=1000, deadline=None)
    @given(
        lo=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                     st.floats(TWO_PI - 0.5, TWO_PI, exclude_max=True)),
        # openings of any size, tiny ones log-uniform, and near the cap
        width=st.one_of(st.floats(3e-12, MAX_SECTOR_MEASURE),
                        st.floats(-11.5, -1.0).map(lambda e: 10.0**e),
                        st.floats(MAX_SECTOR_MEASURE - 1e-6, MAX_SECTOR_MEASURE)),
        center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        radius=st.floats(1e-3, 1e3),
        phi=st.floats(0.0, TWO_PI),
        rho=st.floats(0.0, 1.0, exclude_max=True),
        where=st.sampled_from(["anywhere", "inside", "near_lo_edge", "near_hi_edge"]),
        u=st.floats(0.0, 1.0),
        side=st.sampled_from([-1.0, 1.0]),
    )
    def test_direction_test_matches_the_half_plane_oracle(
        self, lo, width, center, radius, phi, rho, where, u, side
    ):
        circle = EnclosingCircle(center, radius)
        s = build_sector(Arc(lo, lo + width), circle)
        dark = Arc(s.dir_lo, s.dir_hi)
        origin = (center[0] + rho * radius * math.cos(phi),
                  center[1] + rho * radius * math.sin(phi))
        assume(math.hypot(origin[0] - center[0], origin[1] - center[1]) < radius)
        # an exit direction anywhere, inside the arc, or off one edge by
        # 1e-12 to 1e-1 rad on either side
        off = side * 10.0 ** (-12.0 + 11.0 * u)
        theta = wrap_angle({
            "anywhere": TWO_PI * u,
            "inside": dark.start + u * dark.measure,
            "near_lo_edge": dark.start + off,
            "near_hi_edge": dark.end + off,
        }[where])
        assume(not angles_close(theta, dark.start, 1e-12))
        assume(not angles_close(theta, dark.end, 1e-12))
        # check (iii) alone: no samples for check (i), no images for (ii)
        d = types.SimpleNamespace(circle=circle, components=())
        report = verify_darkness(s, d, 0, [(0.5, theta)])
        assert report.exit_rays_ok == (not ray_enters_sector(origin, theta, s))


class TestRayEntersSector:
    def test_ray_through_sector(self):
        k = EnclosingCircle((0.0, 0.0), 1.0)
        arc = Arc(math.pi / 4, 3 * math.pi / 4)
        s = build_sector(arc, k)  # opens upward
        assert ray_enters_sector((0.0, -5.0), math.pi / 2, s)
        assert not ray_enters_sector((0.0, -5.0), 3 * math.pi / 2, s)
        assert not ray_enters_sector((10.0, 0.0), 0.0, s)

    def test_ray_parallel_to_an_edge(self):
        # the ray runs along the direction of the pi/4 edge: inside that
        # edge's half-plane for every t, or for none
        s = DarkSector((0.0, 0.0), math.pi / 4, 3 * math.pi / 4, ((0.0, 0.0), (0.0, 0.0)))
        assert ray_enters_sector((0.0, 5.0), math.pi / 4, s)
        assert not ray_enters_sector((5.0, 0.0), math.pi / 4, s)


@pytest.mark.xfail(strict=True, reason="missed component; mended by the beam, ROADMAP item 2")
@pytest.mark.parametrize("name,launch", [
    ("random_sectors_seed5_243", 6.26544),
    ("random_sectors_seed9_134", 4.25919),
])
def test_no_exit_ray_enters_a_certified_sector(tmp_path, name, launch):
    # Two scenes of the random_sectors workload where 1024 seeds miss a
    # component a few milliradians wide.  Its image is never subtracted, so
    # a certified sector is lit by the rays launched across it.
    scene_path = SCENES / f"{name}.json"
    out = tmp_path / "sectors.json"
    assert main(["sectors", "--scene", str(scene_path), "--out", str(out),
                 "--samples", "1024", "--eps-b", "1e-8", "--cap", "12",
                 "--darkness-samples", "200", "--seed", "0"]) == 0
    certified = [
        DarkSector(tuple(r["apex"]), r["dir_lo"], r["dir_hi"],
                   tuple(map(tuple, r["tangent_points"])))
        for r in json.loads(out.read_text())["sectors"] if r["verification"]["passed"]
    ]
    tr = trace(load_scene(scene_path.read_bytes()), launch, 12)
    assert tr.status is TraceStatus.ESCAPED
    assert not any(ray_enters_sector(tr.exit_point, tr.exit_dir_numeric, s) for s in certified)
