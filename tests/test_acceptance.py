"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import contextlib
import json
import math
import random
import time

import pytest

from conftest import angles_close, make_single_mirror_scene, make_toy_scene
from darksector.arcs import Arc, arc_intersection_measure
from darksector.circle_map import decompose, is_injective, unlit_arcs
from darksector.cli import main
from darksector.dark_sector import (
    build_sector,
    exit_probes,
    shrink_below_pi,
    verify_darkness,
)
from darksector.exact_angle import apply, make_rational_turn, reflection_group
from darksector.scene import EnclosingCircle, Mirror, Scene, enclosing_circle, save_scene
from darksector.scenegen import random_scene
from darksector.tracer import TraceStatus, trace
from darksector.unfolding import (
    build_surface,
    census,
    cone_cycles,
    euler_check,
    total_dark_angle,
)

TWO_PI = 2.0 * math.pi


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"[{number}] {name}: FAIL (runtime {elapsed:.2f}s >= {budget_s}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget_s}s")
    print(f"[{number}] {name}: PASS ({elapsed:.2f}s)")


_toy_runs_cache: list = []


def toy_measure_runs():
    """Criterion-3 decompositions, computed once and shared with criterion 7."""
    if not _toy_runs_cache:
        scene = make_toy_scene(source=(0.3, 0.7))
        circle = enclosing_circle(scene)
        base = decompose(scene, circle, seeds=2**14, eps_b=1e-10, cap=10**3)
        doubled = decompose(scene, circle, seeds=2**15, eps_b=1e-10, cap=2 * 10**3)
        _toy_runs_cache.append((scene, base, doubled))
    return _toy_runs_cache[0]


def test_criterion_1_toy_unfolding_census():
    with criterion(1, "toy perpendicular-mirror census is a torus", 1.0):
        surface = build_surface(make_toy_scene())
        cycles = cone_cycles(surface)
        c = census(surface, cycles)
        assert c.sheet_count == 4
        assert len(c.zeros) == 8
        assert all(z.order == 1 for z in c.zeros)
        assert all(cy.length == 2 for cy in cycles)
        assert all(cy.cone_angle == pytest.approx(4 * math.pi) for cy in cycles)
        assert len(c.poles) == 4
        assert all(p.order == 2 and p.residue == 0 for p in c.poles)
        assert c.genus == 1
        assert euler_check(surface, cycles) == 0


def test_criterion_2_degree_formula_on_random_scenes():
    with criterion(2, "degree formula on 100 random scenes", 30.0):
        rng = random.Random(20260808)
        for _ in range(100):
            scene = random_scene(rng, max_den=12)
            surface = build_surface(scene, group_cap=250_000)
            cycles = cone_cycles(surface)
            c = census(surface, cycles)
            assert isinstance(c.genus, int) and c.genus >= 0
            assert sum(z.order for z in c.zeros) - 2 * c.sheet_count == 2 * c.genus - 2
            assert euler_check(surface, cycles) == 2 - 2 * c.genus


def test_criterion_3_escape_set_has_full_measure():
    with criterion(3, "toy scene escape set has full measure", 60.0):
        _, base, doubled = toy_measure_runs()
        assert base.escape_measure >= TWO_PI - 1e-3
        allowed_drop = base.params.seeds * base.params.eps_b
        assert doubled.escape_measure >= base.escape_measure - allowed_drop


def test_criterion_4_single_mirror_dark_sector_pipeline():
    with criterion(4, "single-mirror dark sector pipeline", 10.0):
        scene = make_single_mirror_scene()
        circle = EnclosingCircle(center=(0.0, 0.5), radius=2.0)
        d = decompose(scene, circle, seeds=4096, eps_b=1e-10, cap=100)

        injective, witness = is_injective(d)
        assert injective is False
        t1, t2 = witness
        tr1 = trace(scene, t1, cap=100)
        tr2 = trace(scene, t2, cap=100)
        assert tr1.status is TraceStatus.ESCAPED and tr2.status is TraceStatus.ESCAPED
        gap = (tr1.exit_dir_numeric - tr2.exit_dir_numeric) % TWO_PI
        assert min(gap, TWO_PI - gap) <= 1e-9

        unlit = unlit_arcs(d)
        assert len(unlit) == 1
        lo_err = (unlit[0].start - 5 * math.pi / 4) % TWO_PI
        hi_err = (unlit[0].end - 7 * math.pi / 4) % TWO_PI
        assert min(lo_err, TWO_PI - lo_err) <= 1e-8
        assert min(hi_err, TWO_PI - hi_err) <= 1e-8

        sector = build_sector(shrink_below_pi(unlit[0]), circle)
        assert sector.apex[0] == pytest.approx(0.0, abs=1e-8)
        assert sector.apex[1] == pytest.approx(0.5 - 2 * math.sqrt(2.0), abs=1e-8)

        report = verify_darkness(sector, d, 10**3, exit_probes(d), seed=0)
        assert report.direction_inclusion_ok
        assert report.image_disjoint_ok
        assert report.exit_rays_ok
        assert report.passed


def test_criterion_5_component_isometry_suite():
    with criterion(5, "isometry invariants over 10^4 component pairs", 60.0):
        rng = random.Random(555)
        pairs_checked = 0
        scenes_used = 0
        while pairs_checked < 10**4:
            scene = random_scene(rng)
            scenes_used += 1
            circle = enclosing_circle(scene)
            # coarse eps_b: boundary localization is not under test here and
            # mismatched-itinerary samples are skipped below anyway
            d = decompose(scene, circle, seeds=256, eps_b=1e-6, cap=300)
            sheets = set(reflection_group((m.angle for m in scene.mirrors), cap=250_000))
            for comp in d.components:
                # exact group membership of every component isometry
                assert comp.isometry in sheets
            for comp in d.components:
                m = comp.arc.measure
                for _ in range(40):
                    if pairs_checked >= 10**4:
                        break
                    t1 = (comp.arc.start + rng.uniform(0.05, 0.95) * m) % TWO_PI
                    t2 = (comp.arc.start + rng.uniform(0.05, 0.95) * m) % TWO_PI
                    tr1 = trace(scene, t1, cap=300)
                    tr2 = trace(scene, t2, cap=300)
                    if (
                        tr1.status is not TraceStatus.ESCAPED
                        or tr1.itinerary != tr2.itinerary
                        or tr1.status is not tr2.status
                    ):
                        continue  # straddled a sub-resolution sliver
                    din = (t2 - t1) % TWO_PI
                    din = min(din, TWO_PI - din)
                    dout = (tr2.exit_dir_numeric - tr1.exit_dir_numeric) % TWO_PI
                    dout = min(dout, TWO_PI - dout)
                    assert abs(din - dout) <= 1e-9
                    pairs_checked += 1
        assert pairs_checked == 10**4


def test_criterion_6_exact_numeric_direction_agreement():
    with criterion(6, "exact/numeric exit-direction agreement on 10^4 traces", 60.0):
        rng = random.Random(666)
        channel = Scene(
            mirrors=(
                Mirror((-8.0, 0.0), 16.0, make_rational_turn(0, 1)),
                Mirror((-8.0, 1.0), 16.0, make_rational_turn(0, 1)),
            ),
            source=(0.0, 0.5),
        )
        for i in range(10**4):
            if i % 5 == 0:
                # deep multi-bounce traces down the parallel channel
                scene = channel
                theta0 = math.pi / 2 + rng.uniform(-0.5, 0.5)
            else:
                scene = random_scene(rng)
                theta0 = rng.uniform(0.0, TWO_PI)
            tr = trace(scene, theta0, cap=500)
            assert angles_close(tr.exit_dir_numeric, apply(tr.exit_dir_exact, theta0), 1e-6)
            assert tr.exit_dir_exact.s == (-1) ** tr.bounce_count


def test_criterion_7_total_dark_angle_accounting():
    with criterion(7, "aggregate dark angle approaches three full turns", 60.0):
        scene, base, _ = toy_measure_runs()
        surface = build_surface(scene)
        c = census(surface, cone_cycles(surface))
        assert c.sheet_count == 4
        total = total_dark_angle(c, base.escape_measure)
        assert total >= 6 * math.pi - 1e-2


def test_criterion_8_deterministic_sector_runs(tmp_path):
    with criterion(8, "sectors command is byte-deterministic", 60.0):
        scene_path = tmp_path / "scene.json"
        scene_path.write_bytes(save_scene(make_single_mirror_scene()))
        blobs = []
        for i in (1, 2):
            out = tmp_path / f"report{i}.json"
            svg = tmp_path / f"render{i}.svg"
            code = main(
                [
                    "sectors",
                    "--scene",
                    str(scene_path),
                    "--samples",
                    "1024",
                    "--cap",
                    "200",
                    "--seed",
                    "42",
                    "--darkness-samples",
                    "500",
                    "--out",
                    str(out),
                    "--svg",
                    str(svg),
                ]
            )
            assert code == 0
            blobs.append((out.read_bytes(), svg.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
        # the reports parse and certify a sector
        doc = json.loads(blobs[0][0])
        assert doc["certified"] is True
