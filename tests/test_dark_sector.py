import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    angles_close,
    arc_contains_arc,
    arcs_total_measure,
    direction_arc,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
)
from darksector.arcs import Arc, arc_difference
from darksector.circle_map import decompose, unlit_arcs
from darksector.dark_sector import (
    MAX_SECTOR_MEASURE,
    SAMPLE_DECADES,
    DarkSector,
    _direction_span,
    _uncovered,
    build_sector,
    exit_probes,
    ray_enters_sector,
    shrink_below_pi,
    verify_darkness,
)
from darksector.scene import EnclosingCircle, enclosing_circle

TWO_PI = 2.0 * math.pi


def contains(s, p):
    """Strict membership of the point p in the open sector s."""
    vx, vy = p[0] - s.apex[0], p[1] - s.apex[1]
    clo = math.cos(s.dir_lo) * vy - math.sin(s.dir_lo) * vx
    chi = math.cos(s.dir_hi) * vy - math.sin(s.dir_hi) * vx
    return clo > 0.0 and chi < 0.0


def oracle_bad_points(s, circle, n, seed):
    """Check (i)'s bad points as the arc algebra finds them, on the points
    verify_darkness draws."""
    dark = Arc(s.dir_lo, s.dir_hi)
    rng = random.Random(seed)
    bad = []
    for _ in range(n):
        theta = s.dir_lo + rng.random() * dark.measure
        r = circle.radius * 10.0 ** (SAMPLE_DECADES * rng.random())
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
    """Check (i)'s closed-form measure against the arc algebra's."""

    @settings(max_examples=600, deadline=None)
    @given(
        # dark arcs anywhere, often wrapping through 0
        lo=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                     st.floats(TWO_PI - 0.5, TWO_PI, exclude_max=True)),
        width=st.one_of(st.floats(2e-10, MAX_SECTOR_MEASURE),
                        st.floats(MAX_SECTOR_MEASURE - 1e-6, MAX_SECTOR_MEASURE)),
        center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        radius=st.floats(1e-3, 1e3),
        where=st.sampled_from(["sector", "lo_edge", "hi_edge", "near_lo_edge",
                               "near_hi_edge", "near_circle"]),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
        # the sector's own arc, or one of up to a hair under a full turn that
        # shares its low or its high end, as a hand-built sector may have
        wide=st.sampled_from(["none", "from_lo", "to_hi"]),
        wide_measure=st.floats(math.pi, TWO_PI - 1e-9),
    )
    def test_verdict_matches_the_arc_algebra_oracle(
        self, lo, width, center, radius, where, u, v, wide, wide_measure
    ):
        circle = EnclosingCircle(center, radius)
        s = build_sector(Arc(lo, lo + width), circle)
        own = Arc(s.dir_lo, s.dir_hi)  # as verify_darkness forms it
        dark = {
            "none": own,
            "from_lo": Arc(s.dir_lo, s.dir_lo + wide_measure),
            "to_hi": Arc(s.dir_hi - wide_measure, s.dir_hi),
        }[wide]
        # a point drawn like verify_darkness's samples, on an edge ray, a
        # hair inside an edge, or just outside the circle
        r = radius * 10.0 ** (SAMPLE_DECADES * v)
        theta = {
            "sector": s.dir_lo + u * own.measure,
            "lo_edge": s.dir_lo,
            "hi_edge": s.dir_hi,
            "near_lo_edge": s.dir_lo + 10.0 ** (-13.0 + 5.0 * u),
            "near_hi_edge": s.dir_hi - 10.0 ** (-13.0 + 5.0 * u),
        }.get(where)
        if theta is None:
            phi, rho = TWO_PI * u, radius * (1.0 + 10.0 ** (-12.0 + 9.0 * v))
            p = (center[0] + rho * math.cos(phi), center[1] + rho * math.sin(phi))
        else:
            p = (s.apex[0] + r * math.cos(theta), s.apex[1] + r * math.sin(theta))
        try:
            psi, half = _direction_span(p, circle)
        except ValueError:  # rounding put the point on or inside the circle
            assume(False)
        oracle = arcs_total_measure(arc_difference([direction_arc(p, circle)], [dark]))
        assume(abs(oracle - 1e-12) > 1e-14)  # too close to the bound to call
        assert (_uncovered(dark.start, dark.measure, psi, half) > 1e-12) == (oracle > 1e-12)


class TestVerifyDarkness:
    def test_single_mirror_passes(self, single_mirror_pipeline, single_mirror_circle):
        d, unlit = single_mirror_pipeline
        s = build_sector(shrink_below_pi(unlit[0]), single_mirror_circle)
        report = verify_darkness(s, d, 300, exit_probes(d), seed=5)
        assert report.passed
        assert report.direction_inclusion_ok
        assert report.image_disjoint_ok
        assert report.exit_rays_ok

    def test_corrupted_arc_fails_disjointness(self, single_mirror_pipeline, single_mirror_circle):
        d, _ = single_mirror_pipeline
        # deliberately use an arc overlapping the image of the bounced
        # component: the negative control must fail check (ii)
        s = build_sector(Arc(math.pi / 4, 3 * math.pi / 4), single_mirror_circle)
        report = verify_darkness(s, d, 50, exit_probes(d), seed=5)
        assert not report.image_disjoint_ok
        assert not report.passed

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
