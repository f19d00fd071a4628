import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from darksector.exact_angle import (
    GroupElement,
    GroupOrderError,
    RationalTurn,
    apply,
    compose,
    generate_group,
    identity,
    inverse,
    make_rational_turn,
    mirror_reflection_element,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def turn(num, den):
    return make_rational_turn(num, den)


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


class TestGroupElement:
    def test_mirror_reflection_horizontal(self):
        g = mirror_reflection_element(turn(0, 1))
        assert g == GroupElement(-1, turn(0, 1))
        assert apply(g, 1.0) == pytest.approx(TWO_PI - 1.0)

    def test_mirror_reflection_vertical(self):
        g = mirror_reflection_element(turn(1, 2))
        assert g == GroupElement(-1, turn(1, 1))

    def test_mirror_reflection_third(self):
        g = mirror_reflection_element(turn(1, 3))
        assert g == GroupElement(-1, turn(2, 3))

    def test_compose_involution(self):
        r = mirror_reflection_element(turn(0, 1))
        assert compose(r, r) == identity()

    def test_compose_two_reflections_gives_rotation(self):
        a = mirror_reflection_element(turn(1, 2))  # (-1, 1)
        b = mirror_reflection_element(turn(0, 1))  # (-1, 0)
        assert compose(a, b) == GroupElement(1, turn(1, 1))

    def test_compose_third_angle(self):
        a = mirror_reflection_element(turn(1, 3))  # (-1, 2/3)
        b = mirror_reflection_element(turn(0, 1))  # (-1, 0)
        assert compose(a, b) == GroupElement(1, turn(2, 3))

    def test_apply_examples(self):
        assert apply(GroupElement(-1, turn(0, 1)), math.pi / 3) == pytest.approx(5 * math.pi / 3)
        assert apply(GroupElement(1, turn(1, 1)), math.pi / 3) == pytest.approx(4 * math.pi / 3)
        assert apply(GroupElement(-1, turn(2, 3)), 0.0) == pytest.approx(2 * math.pi / 3)

    def test_invalid_parity(self):
        with pytest.raises(ValueError):
            GroupElement(2, turn(0, 1))


group_elements = st.builds(
    GroupElement,
    s=st.sampled_from([1, -1]),
    c=st.builds(
        lambda n, d: make_rational_turn(n, d),
        st.integers(-50, 50),
        st.integers(1, 24),
    ),
)


class TestGroupLaws:
    @given(group_elements, group_elements, st.floats(0, TWO_PI, allow_nan=False))
    def test_composition_is_a_homomorphism(self, g1, g2, theta):
        lhs = apply(compose(g1, g2), theta)
        rhs = apply(g1, apply(g2, theta))
        d = (lhs - rhs) % TWO_PI
        assert min(d, TWO_PI - d) <= 1e-12

    @given(group_elements)
    def test_inverse_exact(self, g):
        assert compose(g, inverse(g)) == identity()
        assert compose(inverse(g), g) == identity()

    @given(group_elements)
    def test_reflections_are_involutions(self, g):
        if g.s == -1:
            assert compose(g, g) == identity()


def numeric_orbit_size(mirror_angles, theta=0.7234018873):
    """Independent oracle: close {theta} under the numeric reflection maps
    theta -> 2*r*pi - theta and count distinct values."""
    maps = [2 * math.pi * f for f in mirror_angles]
    orbit = {round(theta, 9)}
    frontier = [theta]
    while frontier:
        t = frontier.pop()
        for c in maps:
            nt = wrap_angle(c - t)
            key = round(nt, 9)
            if key not in orbit:
                orbit.add(key)
                frontier.append(nt)
    return len(orbit)


class TestGenerateGroup:
    def test_perpendicular_pair_order_four(self):
        g = generate_group({turn(0, 1), turn(1, 2)})
        assert g.elements == frozenset(
            {
                identity(),
                GroupElement(1, turn(1, 1)),
                GroupElement(-1, turn(0, 1)),
                GroupElement(-1, turn(1, 1)),
            }
        )

    def test_single_mirror_order_two(self):
        g = generate_group({turn(0, 1)})
        assert len(g.elements) == 2

    def test_third_turn_order_six(self):
        angles = {turn(0, 1), turn(1, 3)}
        g = generate_group(angles)
        expected = numeric_orbit_size([Fraction(0), Fraction(1, 3)])
        assert expected == 6
        assert len(g.elements) == 6

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
    def test_orbit_size_matches_numeric_oracle(self, angles):
        g = generate_group(angles, cap=100000)
        assert len(g.elements) == numeric_orbit_size([a.fraction for a in angles])

    def test_closure_under_generators(self):
        g = generate_group({turn(0, 1), turn(1, 3), turn(1, 4)})
        for el in g.elements:
            for gen in g.generators:
                assert compose(gen, el) in g.elements
                assert compose(el, gen) in g.elements

    def test_contains_identity_and_even_order(self):
        rng = random.Random(5)
        for _ in range(20):
            angles = {
                make_rational_turn(rng.randrange(24), rng.randint(1, 12))
                for _ in range(rng.randint(1, 3))
            }
            g = generate_group(angles, cap=100000)
            assert identity() in g.elements
            assert len(g.elements) % 2 == 0 and len(g.elements) >= 2

    def test_cap_enforced(self):
        with pytest.raises(GroupOrderError, match="5000"):
            generate_group({turn(0, 1), turn(1, 2500)}, cap=100)

    def test_requires_an_angle(self):
        with pytest.raises(ValueError):
            generate_group(set())
