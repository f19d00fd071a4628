"""The combinatorial unfolded surface of a mirror scene and its census.

Reflections are replaced by transitions between sheets indexed by the
reflection group: one slitted plane per group element, glued pairwise along
each mirror slit by left-multiplication with that mirror's reflection.  The
census counts the cone points (zeros), the planar infinities (double poles,
one per sheet) and the genus; the Euler characteristic is counted over the
induced cell structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact_angle import (
    DEFAULT_GROUP_CAP,
    GroupElement,
    ReflectionGroup,
    generate_group,
    sorted_elements,
)
from .scene import Scene


class CensusError(RuntimeError):
    """The zero/pole bookkeeping is internally inconsistent."""


@dataclass(frozen=True)
class UnfoldedSurface:
    """Sheets labeled by group elements and one gluing involution per slit.

    ``gluings[k][i]`` is the sheet index glued to sheet i across slit k; the
    plus lip of sheet i meets the minus lip of its partner and vice versa.
    """

    sheets: tuple[GroupElement, ...]
    gluings: tuple[tuple[int, ...], ...]
    group: ReflectionGroup

    @property
    def sheet_count(self) -> int:
        return len(self.sheets)

    @property
    def slit_count(self) -> int:
        return len(self.gluings)


@dataclass(frozen=True)
class ConeCycle:
    """The sheets swept in order around one slit endpoint; each sweep of a
    full plane contributes 2*pi of cone angle."""

    slit: int  # 1-based mirror index
    endpoint: str  # "first" or "second"
    sheet_cycle: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.sheet_cycle)

    @property
    def cone_angle(self) -> float:
        return 2.0 * math.pi * self.length


@dataclass(frozen=True)
class Zero:
    cycle: ConeCycle
    order: int


@dataclass(frozen=True)
class Pole:
    sheet_index: int
    order: int = 2
    residue: int = 0


@dataclass(frozen=True)
class SurfaceCensus:
    sheet_count: int
    zeros: tuple[Zero, ...]
    poles: tuple[Pole, ...]
    degree: int
    genus: int


def build_surface(scene: Scene, group_cap: int = DEFAULT_GROUP_CAP) -> UnfoldedSurface:
    """Unfold a scene: sheets are the group elements in canonical order and
    each mirror slit glues sheet g to sheet (sigma_k o g).

    In canonical order sheet i < N is the rotation by 2*pi*i/N and sheet
    N + j the reflection with offset c_N + 2j/N, so sigma_k (offset 2*a_k)
    glues sheet i to N + (m_k - i) mod N and sheet N + j to (m_k - j) mod N,
    where m_k = ((2*a_k - c_N) mod 2) * N/2.
    """
    if not scene.mirrors:
        raise ValueError("unfolding requires at least one mirror")
    group = generate_group({m.angle for m in scene.mirrors}, cap=group_cap)
    sheets = tuple(sorted_elements(group))
    n = len(sheets) // 2
    c_n = sheets[n].c.fraction
    gluings = []
    for mirror in scene.mirrors:
        m_k = int((2 * mirror.angle.fraction - c_n) % 2 * n / 2)
        gluings.append(
            tuple(n + (m_k - i) % n for i in range(n)) + tuple((m_k - j) % n for j in range(n))
        )
    return UnfoldedSurface(sheets=sheets, gluings=tuple(gluings), group=group)


def cone_cycles(s: UnfoldedSurface) -> list[ConeCycle]:
    """All cone points: for each slit endpoint, one cycle per pair of sheets
    the slit glues.

    Sweeping a full turn around a slit tip inside one sheet crosses from the
    plus lip to the minus lip, then the gluing carries the sweep to the
    partner sheet.  Every gluing is a fixed-point-free involution, so the
    sweep closes after two sheets: each cycle is (i, perm[i]) with
    i < perm[i].
    """
    cycles: list[ConeCycle] = []
    for k, perm in enumerate(s.gluings, start=1):
        pairs = [(i, j) for i, j in enumerate(perm) if i < j]
        for endpoint in ("first", "second"):
            cycles.extend(
                ConeCycle(slit=k, endpoint=endpoint, sheet_cycle=p) for p in pairs
            )
    return cycles


def census(s: UnfoldedSurface, cycles: "list[ConeCycle]") -> SurfaceCensus:
    """Zeros from cone cycles, double poles from sheets, genus from the
    degree formula."""
    m = s.sheet_count
    zeros = tuple(Zero(cycle=c, order=c.length - 1) for c in cycles)
    poles = tuple(Pole(sheet_index=i) for i in range(m))
    degree = sum(z.order for z in zeros) - 2 * m
    twice_genus = degree + 2
    if twice_genus < 0 or twice_genus % 2 != 0:
        raise CensusError(
            f"degree {degree} does not yield a non-negative integer genus"
        )
    return SurfaceCensus(
        sheet_count=m, zeros=zeros, poles=poles, degree=degree, genus=twice_genus // 2
    )


def euler_check(s: UnfoldedSurface, cycles: "list[ConeCycle]") -> int:
    """Euler characteristic of the closed surface.

    Cell structure: one vertex per cone cycle plus one per compactified
    sheet infinity; one edge per glued lip pair plus one spine edge from
    each sheet's infinity to each slit; one disc face per sheet (a sheet cut
    along its slits and spines is simply connected).
    """
    m = s.sheet_count
    n = s.slit_count
    vertices = len(cycles) + m
    lip_pairs = sum(len(perm) for perm in s.gluings)  # 2*n*m lips / 2
    spine_edges = n * m
    edges = lip_pairs + spine_edges
    faces = m
    return vertices - edges + faces


def total_dark_angle(c: SurfaceCensus, escape_measure: float) -> float:
    """Aggregate opening angle of the dark sectors certified around every
    planar infinity other than the escape target: (sheet_count - 1) copies
    of the resolved escape measure."""
    return (c.sheet_count - 1) * escape_measure


def census_report(
    s: UnfoldedSurface, cycles: "list[ConeCycle]", c: SurfaceCensus, chi: int
) -> dict:
    """JSON-ready census document."""
    return {
        "sheet_count": s.sheet_count,
        "slit_count": s.slit_count,
        "sheets": [
            {"s": g.s, "c_num": g.c.num, "c_den": g.c.den} for g in s.sheets
        ],
        "gluings": [list(perm) for perm in s.gluings],
        "cycles": [
            {
                "slit": cy.slit,
                "endpoint": cy.endpoint,
                "sheets": list(cy.sheet_cycle),
                "length": cy.length,
                "cone_angle": cy.cone_angle,
            }
            for cy in cycles
        ],
        "zeros": [
            {"slit": z.cycle.slit, "endpoint": z.cycle.endpoint, "order": z.order}
            for z in c.zeros
        ],
        "poles": [
            {"sheet_index": p.sheet_index, "order": p.order, "residue": p.residue}
            for p in c.poles
        ],
        "degree": c.degree,
        "genus": c.genus,
        "euler_characteristic": chi,
    }
