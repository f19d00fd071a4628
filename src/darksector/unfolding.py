"""The combinatorial unfolded surface of a mirror scene and its census.

Reflections are replaced by transitions between sheets indexed by the
reflection group: one slitted plane per group element, glued pairwise along
each mirror slit by left-multiplication with that mirror's reflection.  The
census counts the cone points (zeros), the planar infinities (double poles,
one per sheet) and the genus, all in closed form.  A slit's gluing perm is
a fixed-point-free involution that pairs each rotation i < N with a
reflection, so a turn around either slit endpoint crosses from sheet i into
perm[i] and back: perm[:N] gives the endpoint's N cycles (i, perm[i]), each
a zero of order 1.  With n slits and 2N sheets the degree is 2Nn - 4N and
the genus 1 + N(n - 2).
"""

from __future__ import annotations

import math
from itertools import repeat
from math import gcd
from typing import NamedTuple

from .exact_angle import DEFAULT_GROUP_CAP, GroupElement, reflection_group
from .scene import Scene

ENDPOINTS = ("first", "second")
# a sweep around a slit endpoint crosses two full sheets
CONE_ANGLE = 4.0 * math.pi
# write_census writes a list in pieces of at most this many items (~140 KB)
CHUNK_ROWS = 1024
# the census rows as json.dumps(..., indent=2) writes them at depth 2
_SHEET = '\n    {\n      "s": %d,\n      "c_num": '  # then c_num, c_den and the end
_CYCLE = '\n    {\n      "slit": %d,\n      "endpoint": "%s",\n      "sheets": [\n        '
_CYCLE_END = '\n      ],\n      "length": 2,\n      "cone_angle": %r\n    }'
_ZERO = '\n    {\n      "slit": %d,\n      "endpoint": "%s",\n      "order": 1\n    }'
_POLE = '\n    {\n      "sheet_index": '
_POLE_END = ',\n      "order": 2,\n      "residue": 0\n    }'
_GLUED = "\n      "  # one sheet index of a gluings row


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

    @property
    def genus(self) -> int:
        """1 + N(n - 2), for n slits and 2N sheets."""
        return 1 + self.sheet_count // 2 * (self.slit_count - 2)


def build_surface(scene: Scene, group_cap: int = DEFAULT_GROUP_CAP) -> UnfoldedSurface:
    """Unfold a scene: sheets are the group elements in canonical order and
    each mirror slit glues sheet g to sheet (sigma_k o g).

    In canonical order (see ``reflection_group``) sheet i < N is the
    rotation (1, i*step) and sheet N + j the reflection (-1, c0 + j*step).
    Mirror k's reflection is (-1, p_k), p_k its doubled angle in units of
    pi/L, so it glues sheet i to N + (m_k - i) mod N and sheet N + j to
    (m_k - j) mod N, where m_k = ((p_k - c0) mod 2L) / step: the four
    descending runs N+m_k..N, 2N-1..N+m_k+1, m_k..0 and N-1..m_k+1.
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
        m = (row.two_angle_k - c0) % two_l // step
        gluings.append((*range(n + m, n - 1, -1), *range(2 * n - 1, n + m, -1),
                        *range(m, -1, -1), *range(n - 1, m, -1)))
    return UnfoldedSurface(sheets=sheets, gluings=tuple(gluings))


def total_dark_angle(sheet_count: int, escape_measure: float) -> float:
    """Aggregate opening angle of the directions at all sheets' planar
    infinities that no ray from the source reaches.  In sheet g's chart an
    escaped ray leaves in its launch direction, so the escaped directions
    light their own measure, spread over the sheets they end on, and the
    trapped ones light none: 2*pi * sheet_count minus the escape measure."""
    return 2.0 * math.pi * sheet_count - escape_measure


def write_census(s: UnfoldedSurface, write) -> None:
    """Pass ``write`` the census document as ``json.dumps(doc, indent=2) +
    "\\n"`` writes it, from templates, at most CHUNK_ROWS list items a write:
    ``sheet_count`` 2N; ``slit_count`` n; ``sheets``, each element's
    ``to_dict``; ``gluings``, each perm; ``cycles``, per slit k, endpoint e
    and i < N, ``{"slit": k, "endpoint": e, "sheets": [i, perm[i]], "length":
    2, "cone_angle": CONE_ANGLE}``; ``zeros``, N rows ``{"slit": k, "endpoint":
    e, "order": 1}`` per (k, e); ``poles``, ``{"sheet_index": i, "order": 2,
    "residue": 0}`` per sheet; ``degree`` 2g - 2, ``genus`` g and
    ``euler_characteristic`` 2 - 2g.  Sheet row k is (s, k // d, L // d), d =
    gcd(k, L), for k over the offset ranges of ``reflection_group``."""
    m, n = s.sheet_count, s.sheet_count // 2
    ints = [str(i) for i in range(m)]
    block = range(0, n, CHUNK_ROWS)  # the pieces of one (slit, endpoint) block
    end = _CYCLE_END % CONE_ANGLE

    def gluings():
        for perm in s.gluings:
            for lo in range(0, m, CHUNK_ROWS):
                text = _GLUED + ("," + _GLUED).join(map(ints.__getitem__, perm[lo:lo + CHUNK_ROWS]))
                yield ("" if lo else "\n    [") + text + ("\n    ]" if lo + CHUNK_ROWS >= m else "")

    def sheets():
        unit, c0 = s.sheets[0].unit, s.sheets[n].k
        for sign, first in ((1, 0), (-1, c0)):
            ks, head = range(first, first + 2 * unit, 2 * unit // n), _SHEET % sign
            for lo in block:
                piece = ks[lo:lo + CHUNK_ROWS]
                yield head + ("," + head).join([
                    f'{k // g},\n      "c_den": {unit // g}\n    }}'
                    for k, g in zip(piece, map(gcd, piece, repeat(unit)))])

    def cycles():
        for k, perm in enumerate(s.gluings, start=1):
            # cycle i is (i, perm[i]) at both endpoints of the slit
            pairs = list(map(",\n        ".join, zip(ints, map(ints.__getitem__, perm[:n]))))
            for head in [_CYCLE % (k, endpoint) for endpoint in ENDPOINTS]:
                for lo in block:
                    yield head + (end + "," + head).join(pairs[lo:lo + CHUNK_ROWS]) + end

    write(f'{{\n  "sheet_count": {m},\n  "slit_count": {s.slit_count}')
    for key, pieces in (
        ("sheets", sheets()),
        ("gluings", gluings()),
        ("cycles", cycles()),
        ("zeros", (",".join([_ZERO % (k, endpoint)] * min(CHUNK_ROWS, n - lo))
                   for k in range(1, s.slit_count + 1) for endpoint in ENDPOINTS for lo in block)),
        ("poles", (_POLE + (_POLE_END + "," + _POLE).join(ints[lo:lo + CHUNK_ROWS]) + _POLE_END
                   for lo in range(0, m, CHUNK_ROWS))),
    ):
        sep = f',\n  "{key}": ['
        for piece in pieces:
            write(sep + piece)
            sep = ","
        write("\n  ]" if sep == "," else f',\n  "{key}": []')
    write(f',\n  "degree": {2 * s.genus - 2},\n  "genus": {s.genus},\n'
          f'  "euler_characteristic": {2 - 2 * s.genus}\n}}\n')
