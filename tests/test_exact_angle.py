import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import compose
from darksector.exact_angle import (
    GroupElement,
    GroupOrderError,
    RationalTurn,
    apply,
    inverse,
    make_rational_turn,
    reflection_group,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def turn(num, den):
    return make_rational_turn(num, den)


def identity(unit):
    return GroupElement(1, 0, unit)


class TestMakeRationalTurn:
    def test_already_canonical(self):
        assert turn(3, 2) == RationalTurn(3, 2)

    def test_reduction_and_wrap(self):
        # 10/4 = 5/2 = 1/2 mod 2
        assert turn(10, 4) == RationalTurn(1, 2)

    def test_negative_wraps(self):
        assert turn(-1, 2) == RationalTurn(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            turn(1, 0)

    def test_negative_denominator(self):
        assert turn(1, -2) == RationalTurn(3, 2)

    @given(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6).filter(lambda d: d != 0))
    def test_canonical_invariants(self, num, den):
        t = turn(num, den)
        assert t.den >= 1
        assert 0 <= t.num < 2 * t.den
        assert math.gcd(abs(t.num), t.den) == 1
        # idempotent: canonicalizing a canonical pair changes nothing
        assert make_rational_turn(t.num, t.den) == t
        # value preserved mod 2
        assert (Fraction(num, den) - t.fraction) % 2 == 0

    @pytest.mark.parametrize(
        "num,den,message",
        [
            (1, 0, "denominator must be positive, got 0"),
            (2, 4, "2/4 is not reduced"),
            (5, 2, "5/2 is not normalized modulo 2"),
        ],
        ids=["zero-denominator", "not-reduced", "not-normalized"],
    )
    def test_constructor_rejects_a_non_canonical_pair(self, num, den, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RationalTurn(num, den)


class TestGroupElement:
    # a one-mirror group is the identity and the reflection in that mirror
    def test_mirror_reflection_horizontal(self):
        g = reflection_group({turn(0, 1)})[1]
        assert g == GroupElement(-1, 0, 1)
        assert apply(g, 1.0) == pytest.approx(TWO_PI - 1.0)

    def test_mirror_reflection_vertical(self):
        assert reflection_group({turn(1, 2)})[1] == GroupElement(-1, 2, 2)  # pi - theta

    def test_mirror_reflection_third(self):
        assert reflection_group({turn(1, 3)})[1] == GroupElement(-1, 2, 3)  # 2pi/3 - theta

    # the reference group law of the tests, on hand-computed products
    def test_compose_involution(self):
        r = GroupElement(-1, 0, 1)
        assert compose(r, r) == identity(1)

    def test_compose_two_reflections_gives_rotation(self):
        a = GroupElement(-1, 2, 2)  # reflection in the vertical line
        b = GroupElement(-1, 0, 2)  # reflection in the horizontal line
        assert compose(a, b) == GroupElement(1, 2, 2)

    def test_compose_third_angle(self):
        a = GroupElement(-1, 2, 3)
        b = GroupElement(-1, 0, 3)
        assert compose(a, b) == GroupElement(1, 2, 3)

    def test_apply_examples(self):
        assert apply(GroupElement(-1, 0, 1), math.pi / 3) == pytest.approx(5 * math.pi / 3)
        assert apply(GroupElement(1, 1, 1), math.pi / 3) == pytest.approx(4 * math.pi / 3)
        assert apply(GroupElement(-1, 2, 3), 0.0) == pytest.approx(2 * math.pi / 3)

    def test_apply_does_not_depend_on_the_unit(self):
        # pi*15/9 and pi*5/3 round differently; apply evaluates the reduced
        # offset, so one isometry gives the same float in every scene
        for theta in (0.0, 0.3, 4.2):
            assert apply(GroupElement(1, 15, 9), theta) == apply(GroupElement(1, 5, 3), theta)
            assert apply(GroupElement(-1, 20, 12), theta) == apply(GroupElement(-1, 5, 3), theta)

    def test_report_form_reduces_the_offset(self):
        assert GroupElement(-1, 20, 12).to_dict() == {"s": -1, "c_num": 5, "c_den": 3}
        assert GroupElement(1, 0, 12).to_dict() == {"s": 1, "c_num": 0, "c_den": 1}
        assert GroupElement(1, 12, 12).to_dict() == {"s": 1, "c_num": 1, "c_den": 1}
        assert str(GroupElement(-1, 9, 12)) == "-θ + 3/4·π"
        assert str(GroupElement(1, 12, 12)) == "θ + 1·π"
        assert str(GroupElement(-1, 0, 5)) == "-θ"


units = st.integers(1, 24)


def elements(unit):
    return st.builds(
        GroupElement, st.sampled_from([1, -1]), st.integers(0, 2 * unit - 1), st.just(unit)
    )


class TestGroupLaws:
    @given(
        units.flatmap(lambda u: st.tuples(elements(u), elements(u))),
        st.floats(0, TWO_PI, allow_nan=False),
    )
    def test_composition_is_a_homomorphism(self, pair, theta):
        g1, g2 = pair
        lhs = apply(compose(g1, g2), theta)
        rhs = apply(g1, apply(g2, theta))
        d = (lhs - rhs) % TWO_PI
        assert min(d, TWO_PI - d) <= 1e-12

    @given(units.flatmap(elements))
    def test_inverse_exact(self, g):
        assert compose(g, inverse(g)) == identity(g.unit)
        assert compose(inverse(g), g) == identity(g.unit)

    @given(units.flatmap(elements))
    def test_reflections_are_involutions(self, g):
        if g.s == -1:
            assert compose(g, g) == identity(g.unit)
            assert inverse(g) == g


def numeric_orbit_size(mirror_angles, theta=0.7234018873):
    """Independent oracle: close {theta} under the numeric reflection maps
    theta -> 2*r*pi - theta and count distinct values.  Values count as
    distinct when more than 1e-9 apart around the circle, so one orbit
    point whose rounding key drifts to a neighbour is not counted twice."""
    maps = [2 * math.pi * f for f in mirror_angles]
    orbit = {round(theta, 9): theta}
    frontier = [theta]
    while frontier:
        t = frontier.pop()
        for c in maps:
            nt = wrap_angle(c - t)
            key = round(nt, 9)
            if key not in orbit:
                orbit[key] = nt
                frontier.append(nt)
    points = sorted(orbit.values())
    gaps = [b - a for a, b in zip(points, points[1:])] + [points[0] + 2 * math.pi - points[-1]]
    return sum(gap > 1e-9 for gap in gaps)


class TestGenerateGroup:
    # reflection_group: the whole group in canonical order, in closed form
    def test_perpendicular_pair_order_four(self):
        assert reflection_group({turn(0, 1), turn(1, 2)}) == (
            identity(2),
            GroupElement(1, 2, 2),
            GroupElement(-1, 0, 2),
            GroupElement(-1, 2, 2),
        )

    def test_elements_are_exactly_group_elements(self):
        # a plain tuple equals a GroupElement of the same fields, so equality
        # alone cannot tell what reflection_group built
        group = reflection_group({turn(1, 4), turn(3, 4)})  # c0 = 2, step 4
        assert [type(g) for g in group] == [GroupElement] * 4
        assert [(g.s, g.k, g.unit) for g in group] == [(1, 0, 4), (1, 4, 4), (-1, 2, 4), (-1, 6, 4)]
        assert repr(group[2]) == "GroupElement(s=-1, k=2, unit=4)"
        rng = random.Random(7)
        for _ in range(20):
            angles = {make_rational_turn(rng.randrange(48), rng.randint(1, 24)) for _ in range(3)}
            group = reflection_group(angles, cap=100000)
            assert {type(g) for g in group} == {GroupElement}
            assert [repr(g) for g in group] == [
                f"GroupElement(s={g.s}, k={g.k}, unit={g.unit})" for g in group]

    def test_single_mirror_order_two(self):
        assert len(reflection_group({turn(0, 1)})) == 2

    def test_third_turn_order_six(self):
        angles = {turn(0, 1), turn(1, 3)}
        expected = numeric_orbit_size([Fraction(0), Fraction(1, 3)])
        assert expected == 6
        assert len(reflection_group(angles)) == 6

    @given(
        st.sets(
            st.builds(
                lambda n, d: make_rational_turn(n, d),
                st.integers(0, 23),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # 1,980 elements; one orbit point rounds to two different 9-digit keys
    @example({make_rational_turn(8, 9), make_rational_turn(2, 11), make_rational_turn(11, 10)})
    def test_orbit_size_matches_numeric_oracle(self, angles):
        g = reflection_group(angles, cap=100000)
        assert len(g) == numeric_orbit_size([a.fraction for a in angles])

    def test_closure_under_generators(self):
        angles = {turn(0, 1), turn(1, 3), turn(1, 4)}
        group = reflection_group(angles)
        unit = group[0].unit
        assert unit == 12
        # the reflection theta -> 2*a*pi - theta in each mirror line
        generators = [GroupElement(-1, int(2 * a.fraction * unit) % (2 * unit), unit)
                      for a in angles]
        elements = set(group)
        for el in group:
            for gen in generators:
                assert compose(gen, el) in elements
                assert compose(el, gen) in elements

    def test_contains_identity_and_even_order(self):
        rng = random.Random(5)
        for _ in range(20):
            angles = {
                make_rational_turn(rng.randrange(24), rng.randint(1, 12))
                for _ in range(rng.randint(1, 3))
            }
            g = reflection_group(angles, cap=100000)
            assert g[0] == identity(math.lcm(*(a.den for a in angles)))
            assert len(g) % 2 == 0 and len(g) >= 2
            # canonical order: rotations, then reflections, by offset
            assert list(g) == sorted(set(g), key=lambda e: (e.s != 1, e.k))

    def test_cap_enforced(self):
        with pytest.raises(GroupOrderError, match="5000"):
            reflection_group({turn(0, 1), turn(1, 2500)}, cap=100)

    def test_requires_an_angle(self):
        with pytest.raises(ValueError):
            reflection_group(set())
