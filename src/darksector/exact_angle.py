"""Exact arithmetic for directions that are rational multiples of pi.

Mirror-line angles are stored as reduced fractions of pi modulo 2, so the
direction bookkeeping of a reflected ray never drifts: composing any number
of mirror reflections stays inside a finite set of exact circle isometries
of the form ``theta -> s*theta + c*pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

TWO_PI = 2.0 * math.pi

DEFAULT_GROUP_CAP = 10_000


class GroupOrderError(RuntimeError):
    """Group generation would exceed the configured element cap."""


def wrap_angle(theta: float) -> float:
    """Reduce an angle in radians to the half-open range [0, 2*pi)."""
    r = theta % TWO_PI
    return r if r < TWO_PI else 0.0


@dataclass(frozen=True)
class RationalTurn:
    """The angle (num/den)*pi, reduced and normalized so 0 <= num/den < 2.

    Instances must already be canonical; use :func:`make_rational_turn` to
    build one from an arbitrary integer pair.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError(f"denominator must be positive, got {self.den}")
        if gcd(abs(self.num), self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not reduced")
        if not 0 <= self.num < 2 * self.den:
            raise ValueError(f"{self.num}/{self.den} is not normalized modulo 2")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def radians(self) -> float:
        return math.pi * self.num / self.den

    def doubled(self) -> "RationalTurn":
        return make_rational_turn(2 * self.num, self.den)

    def __add__(self, other: "RationalTurn") -> "RationalTurn":
        return make_rational_turn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalTurn":
        return make_rational_turn(-self.num, self.den)

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.den == 1:
            return f"{self.num}·π"
        return f"{self.num}/{self.den}·π"


def make_rational_turn(num: int, den: int) -> RationalTurn:
    """Canonical representative of the angle (num/den)*pi modulo 2*pi.

    Raises ZeroDivisionError for a zero denominator.
    """
    if den == 0:
        raise ZeroDivisionError("angle denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    if g > 1:
        num //= g
        den //= g
    num %= 2 * den
    return RationalTurn(num, den)


ZERO_TURN = RationalTurn(0, 1)


@dataclass(frozen=True)
class GroupElement:
    """A circle isometry ``theta -> s*theta + c*pi`` with s = +1 or -1.

    Reflections carry s = -1, rotations s = +1; the offset c is exact.
    """

    s: int
    c: RationalTurn

    def __post_init__(self) -> None:
        if self.s not in (1, -1):
            raise ValueError(f"parity must be +1 or -1, got {self.s}")

    def __str__(self) -> str:
        var = "θ" if self.s == 1 else "-θ"
        if self.c.num == 0:
            return f"{var}"
        return f"{var} + {self.c}"


def identity() -> GroupElement:
    """The identity isometry (s = 1, c = 0)."""
    return GroupElement(1, ZERO_TURN)


def mirror_reflection_element(r: RationalTurn) -> GroupElement:
    """Reflection of directions in a line of angle r*pi: theta -> 2*r*pi - theta."""
    return GroupElement(-1, r.doubled())


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 after g2: apply(compose(g1, g2), t) == apply(g1, apply(g2, t))."""
    c2 = g2.c if g1.s == 1 else -g2.c
    return GroupElement(g1.s * g2.s, c2 + g1.c)


def inverse(g: GroupElement) -> GroupElement:
    """The exact inverse; reflections are their own inverses."""
    if g.s == 1:
        return GroupElement(1, -g.c)
    return g


def apply(g: GroupElement, theta: float) -> float:
    """Evaluate the isometry numerically, reduced to [0, 2*pi)."""
    return wrap_angle(g.s * theta + g.c.radians())


@dataclass(frozen=True)
class ReflectionGroup:
    """The finite group generated by the reflections in the mirror lines."""

    elements: frozenset[GroupElement]
    generators: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_group(
    mirror_angles: "set[RationalTurn] | frozenset[RationalTurn] | list[RationalTurn]",
    cap: int = DEFAULT_GROUP_CAP,
) -> ReflectionGroup:
    """The dihedral group of order 2N generated by the mirror reflections.

    For line angles a_i*pi, N is the lcm of the denominators of
    (a_i - a_1) mod 1: the elements are the rotations by 2*pi*j/N and the
    reflection sigma_1 applied after each of them.  Raises GroupOrderError
    before building anything when 2N exceeds ``cap``.
    """
    angles = sorted(set(mirror_angles), key=lambda r: r.fraction)
    if not angles:
        raise ValueError("at least one mirror angle is required")
    first = angles[0].fraction
    n = math.lcm(*(((a.fraction - first) % 1).denominator for a in angles))
    if 2 * n > cap:
        raise GroupOrderError(
            f"reflection group of order {2 * n} exceeds cap of {cap} elements"
        )
    generators = tuple(mirror_reflection_element(r) for r in angles)
    rotations = [GroupElement(1, make_rational_turn(2 * j, n)) for j in range(n)]
    elements = rotations + [compose(generators[0], g) for g in rotations]
    return ReflectionGroup(frozenset(elements), generators)


def sorted_elements(group: ReflectionGroup) -> list[GroupElement]:
    """Deterministic element order: rotations first, then reflections, by offset."""
    return sorted(group.elements, key=lambda g: (g.s != 1, g.c.fraction))
