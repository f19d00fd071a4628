"""Open circular arcs on the direction circle, plus boolean operations on
finite unions of them.

An arc runs counterclockwise from ``start`` to ``end`` and is open; it may
wrap through 0.  Equal endpoints denote the full circle.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_angle import TWO_PI, wrap_angle


# A NamedTuple body may not define __new__: Arc wraps its ends in a subclass.
class _Arc(NamedTuple):
    start: float
    end: float


class Arc(_Arc):
    """Both ends are wrapped into [0, 2*pi) on construction, ``_replace``
    included."""

    __slots__ = ()

    def __new__(cls, start: float, end: float):
        return tuple.__new__(cls, (wrap_angle(start), wrap_angle(end)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def measure(self) -> float:
        d = (self.end - self.start) % TWO_PI
        return TWO_PI if d == 0.0 else d

    @property
    def midpoint(self) -> float:
        return wrap_angle(self.start + 0.5 * self.measure)

    def to_dict(self) -> dict:
        """The report form ``{start, end, measure}``."""
        return {"start": self.start, "end": self.end, "measure": self.measure}


def angle_distance(a: float, b: float) -> float:
    """Distance on the circle, in [0, pi]."""
    d = (b - a) % TWO_PI
    return min(d, TWO_PI - d)


# -- interval form ----------------------------------------------------------
# A set of arcs is handled as sorted disjoint linear pieces (lo, hi) with
# 0 <= lo < hi <= 2*pi; wrapping arcs split at 0.  Touching pieces merge, so
# these operations work with closures; single points carry no measure here.


def _pieces(arc: Arc) -> list[tuple[float, float]]:
    if arc.start == arc.end:
        return [(0.0, TWO_PI)]
    if arc.end > arc.start:
        return [(arc.start, arc.end)]
    out = [(arc.start, TWO_PI)]
    if arc.end > 0.0:
        out.append((0.0, arc.end))
    return out


def _normalize(pieces: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pieces = sorted((lo, hi) for lo, hi in pieces if hi > lo)
    out: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _union_pieces(arcs) -> list[tuple[float, float]]:
    all_pieces: list[tuple[float, float]] = []
    for a in arcs:
        all_pieces.extend(_pieces(a))
    return _normalize(all_pieces)


def _to_arcs(pieces: list[tuple[float, float]]) -> list[Arc]:
    pieces = _normalize(pieces)
    if not pieces:
        return []
    if len(pieces) == 1 and pieces[0] == (0.0, TWO_PI):
        return [Arc(0.0, 0.0)]
    # rejoin a wrap split at 0
    if len(pieces) >= 2 and pieces[0][0] == 0.0 and pieces[-1][1] == TWO_PI:
        first, last = pieces[0], pieces[-1]
        pieces = pieces[1:-1]
        pieces.append((last[0], TWO_PI + first[1]))
    return [Arc(lo, hi) for lo, hi in pieces]


def arc_difference(arcs_a, arcs_b) -> list[Arc]:
    """Maximal open arcs of (union of A) minus the closed union of B."""
    a_pieces = _union_pieces(arcs_a)
    b_pieces = _union_pieces(arcs_b)
    out: list[tuple[float, float]] = []
    for lo, hi in a_pieces:
        cur = lo
        for blo, bhi in b_pieces:
            if bhi <= cur:
                continue
            if blo >= hi:
                break
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return _to_arcs(out)


def arc_intersection_measure(a: Arc, b: Arc) -> float:
    total = 0.0
    for alo, ahi in _pieces(a):
        for blo, bhi in _pieces(b):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo:
                total += hi - lo
    return total

