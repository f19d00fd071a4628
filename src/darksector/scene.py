"""Mirror configurations: the scene model with its cached tracer geometry,
validation, the enclosing circle and JSON scene-file I/O.

Positions are double-precision floats; segment direction angles are exact
rational multiples of pi (see :mod:`darksector.exact_angle`).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from .exact_angle import TWO_PI, GroupElement, RationalTurn, make_rational_turn
from .json_stream import write_json

Point = tuple[float, float]

# Minimum segment/segment and source/segment clearance, in scene units.  It
# must exceed the tracer's EPS_ADVANCE (1e-9), the advance along a ray below
# which a hit is ignored: at a clearance of EPS_ADVANCE or less, the ray
# aimed straight at the nearest mirror would pass through it.
MIN_SEPARATION = 1e-8

# The radius around segment endpoints (or grazing angle) below which a ray's
# hit on a mirror is singular.
EPS_SINGULAR = 1e-9

DEFAULT_CIRCLE_MARGIN = 1.25


class SceneFormatError(ValueError):
    """A scene document cannot be parsed into a Scene."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class Mirror(NamedTuple):
    """A two-sided mirror segment: anchor endpoint, length and exact angle."""

    anchor: Point
    length: float
    angle: RationalTurn


def endpoints(m: Mirror) -> tuple[Point, Point]:
    """Both endpoints of the segment; the second is derived from the angle."""
    t = m.angle.radians()
    ax, ay = m.anchor
    return (ax, ay), (ax + m.length * math.cos(t), ay + m.length * math.sin(t))


class MirrorGeometry(NamedTuple):
    """Per-mirror constants the ray tracer reads for a hit, unpacked in
    this order once per hit.  The constants a leg's scan tests, the segment
    and its bounds of u, are stored in :attr:`Scene.scan_rows` alone."""

    index: int  # 1-based position in Scene.mirrors
    length: float
    nx: float  # unit left normal of the segment direction
    ny: float
    two_angle: float  # 2 * angle * pi, numerically
    two_angle_k: int  # 2 * angle * pi exactly, in units of pi / Scene.angle_unit
    # the itinerary entries (index, side) of a hit from the left-normal side
    # and from the other, shared by every trace
    lips: tuple[tuple[int, int], tuple[int, int]]
    # the endpoint test in exact thresholds: for every float u,
    # ``u * length < EPS_SINGULAR or (1.0 - u) * length < EPS_SINGULAR``
    # is ``u < u_lo or u > u_hi``; see endpoint_thresholds
    u_lo: float
    u_hi: float


def endpoint_thresholds(length: float) -> tuple[float, float]:
    """``(u_lo, u_hi)``: the least float u with ``u * length >= EPS_SINGULAR``
    and the greatest with ``(1.0 - u) * length >= EPS_SINGULAR``, stepped to
    by ``math.nextafter`` from the quotients they round near.  IEEE products
    and differences round monotonically, so for length > 0 ``fl(u * length)``
    never falls as u grows and ``fl(fl(1.0 - u) * length)`` never rises: the
    endpoint test is exactly ``u < u_lo or u > u_hi``.  A length that is not
    positive makes every finite u endpoint-singular, and so does u_lo = inf."""
    if not length > 0:
        return math.inf, -math.inf
    lo = EPS_SINGULAR / length
    while lo * length >= EPS_SINGULAR:
        lo = math.nextafter(lo, -math.inf)
    while lo * length < EPS_SINGULAR:
        lo = math.nextafter(lo, math.inf)
    hi = 1.0 - EPS_SINGULAR / length
    while (1.0 - hi) * length >= EPS_SINGULAR:
        hi = math.nextafter(hi, math.inf)
    while (1.0 - hi) * length < EPS_SINGULAR:
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


# A mirror as the tracer's scan tests it; see Scene.scan_rows.
ScanRow = tuple[float, float, float, float, float, float, MirrorGeometry]


class _Scene(NamedTuple):
    mirrors: tuple[Mirror, ...]
    source: Point


class Scene(_Scene):
    """An ordered collection of disjoint mirrors plus the light source.  The
    subclass keeps an instance dict, where the tables below are cached."""

    @cached_property
    def angle_unit(self) -> int:
        """L, the lcm of the mirror-angle denominators: the offset of every
        exact isometry a ray accumulates in this scene is a multiple of pi/L."""
        return math.lcm(*(m.angle.den for m in self.mirrors))

    @cached_property
    def source_escape(self) -> tuple[Point, GroupElement]:
        """``(exit point, identity)`` of a ray that escapes before its first
        bounce: the source and the identity isometry in this scene's angle
        unit, shared by every such trace."""
        return self.source, GroupElement(1, 0, self.angle_unit)

    @cached_property
    def geometry(self) -> tuple[MirrorGeometry, ...]:
        """The constants the tracer reads for a hit, computed once per scene."""
        geos = []
        for i, m in enumerate(self.mirrors, start=1):
            t = m.angle.radians()
            u_lo, u_hi = endpoint_thresholds(m.length)
            geos.append(
                MirrorGeometry(
                    index=i,
                    length=m.length,
                    nx=-math.sin(t),
                    ny=math.cos(t),
                    two_angle=math.pi * (2 * m.angle.num) / m.angle.den,
                    two_angle_k=2 * m.angle.num * (self.angle_unit // m.angle.den),
                    lips=((i, 1), (i, -1)),
                    u_lo=u_lo,
                    u_hi=u_hi,
                )
            )
        return tuple(geos)

    @cached_property
    def scan_rows(self) -> tuple[tuple[ScanRow, ...], ...]:
        """The mirrors a leg must test, indexed by the 1-based mirror the
        leg leaves: entry i lists every mirror but i, in scene order, and
        entry 0, for the leg from the source, lists them all.  Each row is
        ``(ax, ay, ex, ey, -slack, 1.0 + slack, geometry)``: the anchor,
        e = b - a (not normalized), the bounds of u that count as a hit
        (slack = EPS_SINGULAR / length, the endpoint margin in units of u)
        and the mirror's :attr:`geometry`, so the tracer's scan needs no
        index test and unpacks no field it does not use."""
        rows = []
        for m, g in zip(self.mirrors, self.geometry):
            (ax, ay), (bx, by) = endpoints(m)
            # a zero-length mirror is never hit (its e is (0, 0))
            slack = EPS_SINGULAR / m.length if m.length else math.inf
            rows.append((ax, ay, bx - ax, by - ay, -slack, 1.0 + slack, g))
        return (tuple(rows),) + tuple(
            tuple(rows[:i] + rows[i + 1 :]) for i in range(len(rows))
        )

    @cached_property
    def source_cells(self) -> tuple[tuple[float, ...], tuple[tuple[ScanRow, ...], ...]]:
        """``(bounds, cells)``: the source's view cut into cells of direction.
        A first leg launched at theta0 in [0, TWO_PI) scans only
        ``cells[bisect_right(bounds, theta0)]``, the rows of ``scan_rows[0]``
        whose widened arc meets that cell, in scene order.

        A row's arc runs from the source s toward its ends P, Q at u = lo, hi,
        widened by B = 4*gamma_7*size/dist + 32*eps: eps = 2**-53, gamma_n =
        n*eps/(1 - n*eps) (Higham, ch. 3), size = |s| + |a| + max(|lo|, |hi|)*|e|
        and dist from s to PQ.  For the leg's float direction d, ``u >= lo`` is
        the sign of cross(P - s, d) within gamma_4*|d|*size, and the float P - s
        is within gamma_3*size: arcsin(gamma_7*size/dist) in all.  The factor 4
        covers arcsin(x) <= 1.05x and the error of dist while B < pi/4; 32*eps
        covers cos and sin (2), atan2 (4) and placing an end on [0, 2pi)
        (10.3), with room to spare.  While the arc is wider than 2B,
        the t-test rejects the mirror behind the leg.  A row whose arc is not
        inside (2B, pi - 2B), or whose B is not finite (a zero-length mirror,
        a source on its line), is in every cell."""
        rows = self.scan_rows[0]
        arcs = [_source_arc(self.source, row) for row in rows]
        starts = sorted({0.0, *(x for arc in arcs for piece in arc for x in piece if x < TWO_PI)})
        cells = [[] for _ in starts]  # cell i starts at starts[i]
        for row, arc in zip(rows, arcs):
            for lo, hi in arc:
                for cell in cells[bisect_left(starts, lo) : bisect_left(starts, hi)]:
                    cell.append(row)
        return tuple(starts[1:]), tuple(map(tuple, cells))


def _source_arc(source: Point, row: ScanRow) -> tuple[tuple[float, float], ...]:
    """The row's widened arc (see Scene.source_cells), as half-open pieces of
    [0, TWO_PI): the cell after the arc starts just past its closed end."""
    (sx, sy), (ax, ay, ex, ey, lo, hi, _) = source, row
    p, q = (ax + lo * ex, ay + lo * ey), (ax + hi * ex, ay + hi * ey)
    dist = point_segment_distance(source, p, q)
    size = math.hypot(sx, sy) + math.hypot(ax, ay) + max(abs(lo), abs(hi)) * math.hypot(ex, ey)
    eps = 2.0**-53
    gamma_7 = 7 * eps / (1 - 7 * eps)
    bound = (4 * gamma_7 * size / dist if dist > 0 else math.inf) + 32 * eps
    a0, a1 = math.atan2(p[1] - sy, p[0] - sx), math.atan2(q[1] - sy, q[0] - sx)
    if (a1 - a0) % TWO_PI > math.pi:
        a0, a1 = a1, a0
    if not 2 * bound < (a1 - a0) % TWO_PI < math.pi - 2 * bound:
        return ((0.0, TWO_PI),)
    start, end = (a0 - bound) % TWO_PI, math.nextafter((a1 + bound) % TWO_PI, math.inf)
    return ((start, end),) if start < end else ((0.0, end), (start, TWO_PI))


class Violation(NamedTuple):
    code: str
    detail: str
    mirrors: tuple[int, ...] = ()


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _cross(a: Point, b: Point) -> float:
    return a[0] * b[1] - a[1] * b[0]


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from point p to the closed segment a-b."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(apx - t * abx, apy - t * aby)


def segment_distance(a1: Point, b1: Point, a2: Point, b2: Point) -> float:
    """Distance between two closed segments (about zero if they cross)."""
    d = min(
        point_segment_distance(a1, a2, b2),
        point_segment_distance(b1, a2, b2),
        point_segment_distance(a2, a1, b1),
        point_segment_distance(b2, a1, b1),
    )
    d1 = _cross(_sub(b2, a2), _sub(a1, a2))
    d2 = _cross(_sub(b2, a2), _sub(b1, a2))
    d3 = _cross(_sub(b1, a1), _sub(a2, a1))
    d4 = _cross(_sub(b1, a1), _sub(b2, a1))
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        # The side tests say the segments cross.  On collinear segments they
        # see only rounding, so measure from the crossing point they imply.
        t = d1 / (d1 - d2)
        p = (a1[0] + t * (b1[0] - a1[0]), a1[1] + t * (b1[1] - a1[1]))
        d = min(d, point_segment_distance(p, a2, b2))
    return d


def validate_scene(s: Scene) -> list[Violation]:
    """Check the scene invariants; an empty list means the scene is valid.

    Codes: ``no-mirrors``, ``non-positive-length``, ``non-finite-endpoint``,
    ``non-finite-extent`` (every point is finite but the width or height of
    the scene's bounding box is not, so no enclosing circle has a finite
    radius), ``mirrors-intersect``, ``source-on-mirror``.  Mirrors are
    addressed by 1-based index in document order.
    """
    out: list[Violation] = []
    if not s.mirrors:
        out.append(Violation("no-mirrors", "scene contains no mirrors"))
        return out
    segs = []
    for i, m in enumerate(s.mirrors, start=1):
        if not m.length > 0:
            out.append(
                Violation(
                    "non-positive-length",
                    f"mirror {i} has length {m.length}",
                    (i,),
                )
            )
        a, b = endpoints(m)
        if not all(map(math.isfinite, b)):
            out.append(
                Violation(
                    "non-finite-endpoint",
                    f"mirror {i} ends at ({b[0]}, {b[1]}), beyond the float range",
                    (i,),
                )
            )
        segs.append((a, b))
    if not any(v.code == "non-finite-endpoint" for v in out):
        xmin, xmax, ymin, ymax = _bounding_box(_points(s))
        width, height = xmax - xmin, ymax - ymin
        if not (math.isfinite(width) and math.isfinite(height)):
            out.append(
                Violation(
                    "non-finite-extent",
                    f"the scene spans {width} by {height}, beyond the float range",
                )
            )
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            d = segment_distance(*segs[i], *segs[j])
            if d < MIN_SEPARATION:
                out.append(
                    Violation(
                        "mirrors-intersect",
                        f"mirrors {i + 1} and {j + 1} are at distance {d:.3e}",
                        (i + 1, j + 1),
                    )
                )
    for i, (a, b) in enumerate(segs, start=1):
        d = point_segment_distance(s.source, a, b)
        if d < MIN_SEPARATION:
            out.append(
                Violation(
                    "source-on-mirror",
                    f"source is at distance {d:.3e} from mirror {i}",
                    (i,),
                )
            )
    return out


class EnclosingCircle(NamedTuple):
    """A circle whose open disk contains every mirror and the source."""

    center: Point
    radius: float


def _points(s: Scene) -> list[Point]:
    """The source and every mirror endpoint."""
    return [s.source, *(p for m in s.mirrors for p in endpoints(m))]


def _bounding_box(pts: list[Point]) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) of the points."""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), max(xs), min(ys), max(ys)


def enclosing_circle(s: Scene, margin: float = DEFAULT_CIRCLE_MARGIN) -> EnclosingCircle:
    """Circle centered on the bounding box of all endpoints and the source,
    with radius ``margin`` times the largest center distance.  The radius
    is infinite when the scene's extent or the margin overflows it."""
    pts = _points(s)
    xmin, xmax, ymin, ymax = _bounding_box(pts)
    cx = 0.5 * (xmin + xmax)
    cy = 0.5 * (ymin + ymax)
    d = max(math.hypot(p[0] - cx, p[1] - cy) for p in pts)
    return EnclosingCircle((cx, cy), margin * d if d > 0 else margin)


# ---------------------------------------------------------------------------
# Scene file I/O.  Schema:
#   {"mirrors": [{"anchor": [x, y], "length": L,
#                 "angle": {"num": p, "den": q}}, ...],
#    "source": [x, y]}
# Unknown and repeated fields are rejected; angles are exact rationals in
# units of pi.
# ---------------------------------------------------------------------------


def _expect_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SceneFormatError(f"unknown field(s) {sorted(unknown)}", where)
    missing = allowed - set(obj)
    if missing:
        raise SceneFormatError(f"missing field(s) {sorted(missing)}", where)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError("expected a number", where)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SceneFormatError("number must be finite", where)
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneFormatError("expected an integer", where)
    return value


def _point(value, where: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneFormatError("expected a [x, y] pair", where)
    return (_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))


def _angle(value, where: str) -> RationalTurn:
    if not isinstance(value, dict):
        raise SceneFormatError("expected an object {num, den}", where)
    _expect_keys(value, {"num", "den"}, where)
    num = _integer(value["num"], f"{where}.num")
    den = _integer(value["den"], f"{where}.den")
    try:
        turn = make_rational_turn(num, den)
        turn.radians()  # the geometry needs the angle as a float
    except ZeroDivisionError:
        raise SceneFormatError("denominator must be nonzero", f"{where}.den") from None
    except OverflowError:
        raise SceneFormatError("num/den is too large to evaluate", where) from None
    return turn


def scene_from_document(doc) -> Scene:
    if not isinstance(doc, dict):
        raise SceneFormatError("top-level value must be an object")
    _expect_keys(doc, {"mirrors", "source"}, "document")
    if not isinstance(doc["mirrors"], list):
        raise SceneFormatError("expected a list", "mirrors")
    mirrors = []
    for i, m in enumerate(doc["mirrors"]):
        where = f"mirrors[{i}]"
        if not isinstance(m, dict):
            raise SceneFormatError("expected an object", where)
        _expect_keys(m, {"anchor", "length", "angle"}, where)
        mirrors.append(
            Mirror(
                anchor=_point(m["anchor"], f"{where}.anchor"),
                length=_number(m["length"], f"{where}.length"),
                angle=_angle(m["angle"], f"{where}.angle"),
            )
        )
    return Scene(mirrors=tuple(mirrors), source=_point(doc["source"], "source"))


def scene_to_document(s: Scene) -> dict:
    return {
        "mirrors": [
            {
                "anchor": m.anchor,
                "length": m.length,
                "angle": {"num": m.angle.num, "den": m.angle.den},
            }
            for m in s.mirrors
        ],
        "source": s.source,
    }


def _unique_fields(pairs: list) -> dict:
    """A JSON object's fields as a dict; a field given twice is rejected,
    not read for its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SceneFormatError(f"repeated field {key!r}")
        doc[key] = value
    return doc


def load_scene(data: "bytes | str") -> Scene:
    """Parse a scene document; raises SceneFormatError with field diagnostics."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data, object_pairs_hook=_unique_fields)
    except SceneFormatError:
        raise
    except json.JSONDecodeError as e:
        raise SceneFormatError(
            f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from None
    except ValueError as e:  # not UTF-8, or an integer with too many digits
        raise SceneFormatError(f"unreadable document: {e}") from None
    except RecursionError as e:  # arrays or objects nested too deeply
        raise SceneFormatError(f"invalid JSON: {e}") from None
    return scene_from_document(doc)


def save_scene(s: Scene) -> bytes:
    """Serialize a scene as ``json.dumps(doc, indent=2)``; load(save(s)) == s exactly."""
    pieces: list[str] = []
    write_json(scene_to_document(s), pieces.append)
    return "".join(pieces).encode("utf-8")
