import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import arc_contains_arc, arcs_total_measure, in_arc
from darksector.arcs import Arc, angle_distance, arc_difference, arc_intersection_measure

TWO_PI = 2.0 * math.pi
angles = st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False)


def arc_union(arcs):
    """The maximal arcs of the union: the union minus nothing."""
    return arc_difference(arcs, [])


class TestArcBasics:
    def test_plain_measure(self):
        assert Arc(1.0, 2.5).measure == pytest.approx(1.5)

    def test_wrapping_measure(self):
        assert Arc(5.0, 1.0).measure == pytest.approx(TWO_PI - 4.0)

    def test_full_circle(self):
        assert Arc(0.7, 0.7).measure == TWO_PI

    def test_membership_open(self):
        a = Arc(1.0, 2.0)
        assert in_arc(a, 1.5)
        assert not in_arc(a, 1.0)
        assert not in_arc(a, 2.0)
        assert not in_arc(a, 0.5)

    def test_membership_wrap(self):
        a = Arc(6.0, 0.5)
        assert in_arc(a, 6.2)
        assert in_arc(a, 0.2)
        assert not in_arc(a, 3.0)

    def test_midpoint_wrap(self):
        a = Arc(7 * math.pi / 4, math.pi / 4)
        assert a.midpoint == pytest.approx(0.0, abs=1e-12)

    @given(angles, angles, st.integers(-3, 3))
    def test_membership_invariant_under_turns(self, start, theta, k):
        a = Arc(start, start + 1.0)
        # rounding of theta + k*2*pi perturbs the query by a few ulps, so
        # stay clear of the arc endpoints themselves
        for boundary in (a.start, a.end):
            if angle_distance(theta, boundary) < 1e-9:
                return
        assert in_arc(a, theta) == in_arc(a, theta + k * TWO_PI)


class TestArcAlgebra:
    def test_union_merges_touching(self):
        u = arc_union([Arc(0.0, 1.0), Arc(1.0, 2.0)])
        assert len(u) == 1
        assert u[0].measure == pytest.approx(2.0)

    def test_union_wraps(self):
        u = arc_union([Arc(6.0, 0.5), Arc(0.5, 1.0)])
        assert len(u) == 1
        assert u[0].start == pytest.approx(6.0)
        assert u[0].end == pytest.approx(1.0)

    def test_union_full_circle(self):
        u = arc_union([Arc(0.0, 3.5), Arc(3.0, 0.5)])
        assert len(u) == 1
        assert u[0].measure == TWO_PI

    def test_difference_removes_middle(self):
        d = arc_difference([Arc(0.0, 3.0)], [Arc(1.0, 2.0)])
        assert [(round(a.start, 9), round(a.end, 9)) for a in d] == [(0.0, 1.0), (2.0, 3.0)]

    def test_difference_of_wrapping(self):
        d = arc_difference([Arc(0.0, 0.0)], [Arc(5.0, 1.0)])
        assert len(d) == 1
        assert d[0].start == pytest.approx(1.0)
        assert d[0].end == pytest.approx(5.0)

    def test_difference_empty(self):
        assert arc_difference([Arc(1.0, 2.0)], [Arc(0.5, 2.5)]) == []

    def test_intersection_measure(self):
        assert arc_intersection_measure(Arc(0.0, 2.0), Arc(1.0, 3.0)) == pytest.approx(1.0)
        assert arc_intersection_measure(Arc(0.0, 1.0), Arc(2.0, 3.0)) == 0.0

    def test_intersection_measure_wrap(self):
        assert arc_intersection_measure(Arc(6.0, 1.0), Arc(0.5, 2.0)) == pytest.approx(0.5)

    def test_contains_arc(self):
        assert arc_contains_arc(Arc(0.0, 3.0), Arc(1.0, 2.0))
        assert not arc_contains_arc(Arc(0.0, 3.0), Arc(2.5, 3.5))
        assert arc_contains_arc(Arc(0.0, 3.0), Arc(2.5, 3.0 + 1e-13), tol=1e-12)

    @given(st.lists(st.tuples(angles, st.floats(0.01, 3.0)), min_size=1, max_size=5))
    def test_union_measure_bounds(self, spans):
        arcs = [Arc(s, s + w) for s, w in spans]
        total = arcs_total_measure(arcs)
        assert total <= TWO_PI + 1e-9
        assert total <= sum(a.measure for a in arcs) + 1e-9
        assert total >= max(a.measure for a in arcs) - 1e-9

    @given(
        st.tuples(angles, st.floats(0.1, 5.0)),
        st.tuples(angles, st.floats(0.1, 5.0)),
    )
    def test_difference_complements_intersection(self, sa, sb):
        a = Arc(sa[0], sa[0] + sa[1])
        b = Arc(sb[0], sb[0] + sb[1])
        left = arcs_total_measure(arc_difference([a], [b]))
        inter = arc_intersection_measure(a, b)
        assert left + inter == pytest.approx(a.measure, abs=1e-9)

    def test_angle_distance(self):
        assert angle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
        assert angle_distance(1.0, 2.0) == pytest.approx(1.0)
