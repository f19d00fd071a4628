"""Exact arithmetic for directions that are rational multiples of pi.

Mirror-line angles are stored as reduced fractions of pi modulo 2.  In a
scene whose angle denominators have lcm L (``Scene.angle_unit``), every
isometry a reflected ray accumulates is ``theta -> s*theta + k*pi/L`` with
integer k, so direction bookkeeping never drifts: the mirror reflections
generate a finite dihedral group of such integer pairs (s, k).
"""

from __future__ import annotations

import math
from math import gcd
from typing import Iterable, NamedTuple

TWO_PI = 2.0 * math.pi

DEFAULT_GROUP_CAP = 10_000


class GroupOrderError(RuntimeError):
    """Group generation would exceed the configured element cap."""


def wrap_angle(theta: float) -> float:
    """Reduce an angle in radians to the half-open range [0, 2*pi)."""
    r = theta % TWO_PI
    return r if r < TWO_PI else 0.0


# A NamedTuple body may not define __new__: RationalTurn checks in a subclass.
class _RationalTurn(NamedTuple):
    num: int
    den: int


class RationalTurn(_RationalTurn):
    """The angle (num/den)*pi, reduced and normalized so 0 <= num/den < 2.

    Instances must already be canonical, ``_replace`` included; use
    :func:`make_rational_turn` to build one from an arbitrary integer pair.
    """

    __slots__ = ()

    def __new__(cls, num: int, den: int):
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        if gcd(abs(num), den) != 1:
            raise ValueError(f"{num}/{den} is not reduced")
        if not 0 <= num < 2 * den:
            raise ValueError(f"{num}/{den} is not normalized modulo 2")
        return tuple.__new__(cls, (num, den))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def fraction(self):
        """The angle over pi as a ``fractions.Fraction``, imported on first
        use: the CLI never reads it."""
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def radians(self) -> float:
        return math.pi * self.num / self.den


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


class GroupElement(NamedTuple):
    """The circle isometry ``theta -> s*theta + k*pi/unit``.

    Reflections carry s = -1, rotations s = +1; 0 <= k < 2*unit, and unit is
    the angle unit of the scene the element belongs to.
    """

    s: int
    k: int
    unit: int

    @property
    def c(self) -> tuple[int, int]:
        """The offset k/unit in lowest terms, as (num, den)."""
        g = gcd(self.k, self.unit)
        return self.k // g, self.unit // g

    def to_dict(self) -> dict:
        """The report form ``{s, c_num, c_den}``: theta -> s*theta + (c_num/c_den)*pi."""
        num, den = self.c
        return {"s": self.s, "c_num": num, "c_den": den}

    def __str__(self) -> str:
        var = "θ" if self.s == 1 else "-θ"
        num, den = self.c
        if num == 0:
            return var
        return f"{var} + {num}·π" if den == 1 else f"{var} + {num}/{den}·π"


def inverse(g: GroupElement) -> GroupElement:
    """The exact inverse; reflections are their own inverses."""
    if g.s == 1:
        return GroupElement(1, -g.k % (2 * g.unit), g.unit)
    return g


def apply(g: GroupElement, theta: float) -> float:
    """Evaluate the isometry numerically, reduced to [0, 2*pi)."""
    num, den = g.c  # pi*num/den in lowest terms rounds the same for every unit
    return wrap_angle(g.s * theta + math.pi * num / den)


def reflection_group(
    mirror_angles: Iterable[RationalTurn], cap: int = DEFAULT_GROUP_CAP
) -> tuple[GroupElement, ...]:
    """The dihedral group of order 2N generated by the reflections in lines
    at the given angles, in canonical order: the rotations (1, j*step), then
    the reflections (-1, c0 + j*step), j = 0..N-1.

    With unit L the lcm of the denominators and p_i = 2*a_i*L the doubled
    angles in units of pi/L, N = L / gcd(L, (p_i - p_1)/2, ...), step = 2L/N
    and c0 = p_1 mod step.  Raises GroupOrderError before building anything
    when 2N exceeds ``cap``.
    """
    angles = set(mirror_angles)
    if not angles:
        raise ValueError("at least one mirror angle is required")
    unit = math.lcm(*(a.den for a in angles))
    p = [2 * a.num * (unit // a.den) for a in angles]
    n = unit // gcd(unit, *((p_i - p[0]) // 2 for p_i in p))
    if 2 * n > cap:
        raise GroupOrderError(
            f"reflection group of order {2 * n} exceeds cap of {cap} elements"
        )
    step = 2 * unit // n
    c0 = p[0] % step
    return tuple(GroupElement(1, j * step, unit) for j in range(n)) + tuple(
        GroupElement(-1, c0 + j * step, unit) for j in range(n)
    )
