"""The combinatorial unfolded surface of a mirror scene and its census.

Reflections are replaced by transitions between sheets indexed by the
reflection group: one slitted plane per group element, glued pairwise along
each mirror slit by left-multiplication with that mirror's reflection.  The
census counts the cone points (zeros), the planar infinities (double poles,
one per sheet) and the genus, all in closed form: every gluing is a
fixed-point-free involution, so each slit endpoint is surrounded by cycles
of two sheets, each a zero of order 1.  With n slits and 2N sheets the
degree is 2Nn - 4N and the genus 1 + N(n - 2).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_angle import DEFAULT_GROUP_CAP, GroupElement, reflection_group
from .scene import Scene

ENDPOINTS = ("first", "second")
# a sweep around a slit endpoint crosses two full sheets
CONE_ANGLE = 4.0 * math.pi


class UnfoldedSurface(NamedTuple):
    """Sheets labeled by group elements and one gluing involution per slit.

    ``gluings[k][i]`` is the sheet index glued to sheet i across slit k; the
    plus lip of sheet i meets the minus lip of its partner and vice versa.
    """

    sheets: tuple[GroupElement, ...]
    gluings: tuple[tuple[int, ...], ...]

    @property
    def sheet_count(self) -> int:
        return len(self.sheets)

    @property
    def slit_count(self) -> int:
        return len(self.gluings)


def build_surface(scene: Scene, group_cap: int = DEFAULT_GROUP_CAP) -> UnfoldedSurface:
    """Unfold a scene: sheets are the group elements in canonical order and
    each mirror slit glues sheet g to sheet (sigma_k o g).

    In canonical order (see ``reflection_group``) sheet i < N is the
    rotation (1, i*step) and sheet N + j the reflection (-1, c0 + j*step).
    Mirror k's reflection is (-1, p_k), p_k its doubled angle in units of
    pi/L, so it glues sheet i to N + (m_k - i) mod N and sheet N + j to
    (m_k - j) mod N, where m_k = ((p_k - c0) mod 2L) / step.
    """
    if not scene.mirrors:
        raise ValueError("unfolding requires at least one mirror")
    sheets = reflection_group((m.angle for m in scene.mirrors), cap=group_cap)
    n = len(sheets) // 2
    two_l = 2 * scene.angle_unit
    step = two_l // n
    c0 = sheets[n].k
    gluings = []
    for row in scene.geometry:
        m_k = (row.two_angle_k - c0) % two_l // step
        gluings.append(
            tuple(n + (m_k - i) % n for i in range(n)) + tuple((m_k - j) % n for j in range(n))
        )
    return UnfoldedSurface(sheets=sheets, gluings=tuple(gluings))


def cone_cycles(s: UnfoldedSurface) -> list[dict]:
    """The census rows of all cone points: for each slit endpoint, one cycle
    (i, perm[i]) with i < perm[i] per pair of sheets the slit glues.

    A full turn around a slit tip inside one sheet crosses from the plus lip
    to the minus lip, the gluing carries it to the partner sheet, and the
    involution closes it there.  A gluing pairs each rotation i < N with a
    reflection, so i < perm[i] exactly for i < N."""
    n = s.sheet_count // 2
    rows: list[dict] = []
    for k, perm in enumerate(s.gluings, start=1):
        pairs = list(zip(range(n), perm))
        for endpoint in ENDPOINTS:
            rows += [{"slit": k, "endpoint": endpoint, "sheets": p, "length": 2,
                      "cone_angle": CONE_ANGLE} for p in pairs]
    return rows


def total_dark_angle(sheet_count: int, escape_measure: float) -> float:
    """Aggregate opening angle of the directions at all sheets' planar
    infinities that no ray from the source reaches.  In sheet g's chart an
    escaped ray leaves in its launch direction, so the escaped directions
    light their own measure, spread over the sheets they end on, and the
    trapped ones light none: 2*pi * sheet_count minus the escape measure."""
    return 2.0 * math.pi * sheet_count - escape_measure


def census_report(s: UnfoldedSurface, cycles: list[dict]) -> dict:
    """JSON-ready census document.  Every cone cycle has two sheets, so the
    N zero rows of one slit endpoint are one shared dict of order 1."""
    m = s.sheet_count
    zeros: list[dict] = []
    for k in range(1, s.slit_count + 1):
        for endpoint in ENDPOINTS:
            zeros += [{"slit": k, "endpoint": endpoint, "order": 1}] * (m // 2)
    degree = len(zeros) - 2 * m
    genus = (degree + 2) // 2
    return {
        "sheet_count": m,
        "slit_count": s.slit_count,
        "sheets": [g.to_dict() for g in s.sheets],
        "gluings": s.gluings,
        "cycles": cycles,
        "zeros": zeros,
        "poles": [{"sheet_index": i, "order": 2, "residue": 0} for i in range(m)],
        "degree": degree,
        "genus": genus,
        "euler_characteristic": 2 - 2 * genus,
    }
