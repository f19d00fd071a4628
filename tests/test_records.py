"""The value records are NamedTuples: immutable, tuple-like, copied with
``_replace``, which keeps each record's invariant; and importing the CLI
loads neither ``dataclasses`` nor ``fractions``."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_single_mirror_scene, make_toy_scene
from darksector.arcs import Arc
from darksector.circle_map import decompose, unlit_arcs
from darksector.dark_sector import build_sector, exit_probes, shrink_below_pi, verify_darkness
from darksector.exact_angle import make_rational_turn, wrap_angle
from darksector.scene import Violation, enclosing_circle
from darksector.tracer import first_hit
from darksector.unfolding import build_surface

SRC = Path(__file__).resolve().parent.parent / "src"


def every_record() -> list:
    """One instance of each of the package's 14 value records."""
    scene = make_single_mirror_scene()
    d = decompose(scene, enclosing_circle(scene), seeds=64, eps_b=1e-4, cap=30)
    sector = build_sector(shrink_below_pi(unlit_arcs(d)[0]), d.circle)
    return [
        Arc(1.0, 2.0), make_rational_turn(1, 2), scene.mirrors[0], scene,
        Violation("no-mirrors", "scene contains no mirrors"), d.circle,
        first_hit(scene.source, -1.5, scene), first_hit((-1.0, 1.0), -0.5 * math.pi, scene),
        d.components[0], d.params, d, sector, verify_darkness(sector, d, 10, exit_probes(d)),
        build_surface(scene),
    ]


RECORDS = every_record()
NAMES = ["Arc", "RationalTurn", "Mirror", "Scene", "Violation", "EnclosingCircle", "Hit",
         "SingularStop", "MapComponent", "DecompositionParams", "Decomposition", "DarkSector",
         "DarknessReport", "UnfoldedSurface"]


def test_every_record_is_listed_once():
    assert [type(r).__name__ for r in RECORDS] == NAMES


@pytest.mark.parametrize("record", RECORDS, ids=NAMES)
def test_a_record_is_a_tuple_of_its_fields(record):
    assert isinstance(record, tuple)
    assert record == tuple(getattr(record, name) for name in record._fields)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    assert record._replace() == record


@pytest.mark.parametrize("record", RECORDS, ids=NAMES)
def test_assigning_a_field_raises_attribute_error(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_a_hashable_record_hashes_as_its_field_tuple():
    arc = Arc(1.0, 2.0)
    assert hash(arc) == hash((1.0, 2.0))
    scene = make_toy_scene()
    assert hash(scene) == hash((scene.mirrors, scene.source))


def test_arc_replace_wraps_the_new_end():
    assert Arc(1.0, 2.0)._replace(end=7.0).end == wrap_angle(7.0)
    assert Arc(start=-1.0, end=2.0) == (wrap_angle(-1.0), 2.0)


def test_rational_turn_replace_checks_the_new_pair():
    with pytest.raises(ValueError, match="not reduced"):
        make_rational_turn(1, 2)._replace(num=2)
    with pytest.raises(ValueError, match="not normalized"):
        make_rational_turn(1, 2)._replace(num=5)
    assert make_rational_turn(1, 2)._replace(num=3) == (3, 2)


def test_scene_replace_builds_its_own_tables():
    scene = make_toy_scene()
    cells = scene.source_cells
    moved = scene._replace(source=(0.3, -0.7))
    assert moved.source_cells == make_toy_scene(source=(0.3, -0.7)).source_cells
    assert moved.source_cells != cells
    assert moved.source_escape[0] == ((0.3, -0.7),)
    assert scene.source_cells is cells


def test_importing_the_cli_loads_no_dataclasses_or_fractions():
    # -S: no site module, whose .pth hooks could import either on their own
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import darksector.cli; "
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
