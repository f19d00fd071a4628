import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    make_box_scene,
    make_parallel_scene,
    make_single_mirror_scene,
    make_six_mirror_trap_scene,
    make_toy_scene,
)
import darksector.cli as cli
import darksector.dark_sector as dark_sector
from darksector.cli import main
from darksector.scene import Mirror, Scene, enclosing_circle, save_scene
from darksector.exact_angle import make_rational_turn
from darksector.svg_render import render_svg

SCENES = Path(__file__).resolve().parent.parent / "scenes"

def write_scene(tmp_path, scene, name="scene.json"):
    path = tmp_path / name
    path.write_bytes(save_scene(scene))
    return str(path)


def run_darksector(*args: str, timeout: float = 60,
                   stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m darksector *args`` in a fresh process, killed after
    ``timeout`` seconds; stdout is captured unless ``stdout`` says where
    it goes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "darksector", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout,
    )


@pytest.fixture
def toy_path(tmp_path):
    return write_scene(tmp_path, make_toy_scene())


@pytest.fixture
def single_path(tmp_path):
    return write_scene(tmp_path, make_single_mirror_scene())


class TestRenderSvg:
    def test_scene_element_counts(self):
        scene = make_toy_scene()
        svg = render_svg(scene, enclosing_circle(scene))
        assert svg.count('class="mirror"') == 2
        assert svg.count('class="source"') == 1
        assert svg.count('class="boundary-circle"') == 1

    def test_deterministic(self):
        scene = make_toy_scene()
        circle = enclosing_circle(scene)
        assert render_svg(scene, circle) == render_svg(scene, circle)


class TestValidateCommand:
    def test_valid_scene_exits_zero(self, toy_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate", "--scene", toy_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["valid"] is True
        assert doc["violations"] == []

    def test_crossing_mirrors_exit_two(self, tmp_path):
        crossing = Scene(
            mirrors=(
                Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                Mirror((0.0, -1.0), 2.0, make_rational_turn(1, 2)),
            ),
            source=(5.0, 5.0),
        )
        path = write_scene(tmp_path, crossing)
        out = tmp_path / "report.json"
        assert main(["validate", "--scene", path, "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["valid"] is False
        assert doc["violations"][0]["code"] == "mirrors-intersect"

    def test_garbage_exits_three(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--scene", str(path)]) == 3

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["validate", "--scene", str(tmp_path / "absent.json")]) == 3

    @pytest.mark.parametrize(
        "data",
        [
            b'{"mirrors": [{"anchor": [0, 0], "length": 1' + b"0" * 400
            + b', "angle": {"num": 0, "den": 1}}], "source": [0, 1]}',
            b'{"mirrors": [], "source": [0, \xff]}',
        ],
        ids=["400-digit-length", "non-utf8"],
    )
    def test_unreadable_value_exits_three(self, tmp_path, data, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["validate", "--scene", str(path)]) == 3
        assert "internal error" not in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["trace", "--theta", "0.1"],
            ["map", "--samples", "8"],
            ["sectors", "--samples", "8"],
            ["unfold"],
            ["render"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_overflowing_endpoint_exits_two(self, tmp_path, argv, capsys):
        far = Scene(
            mirrors=(Mirror((1e308, 0.0), 1e308, make_rational_turn(0, 1)),),
            source=(0.0, 1.0),
        )
        path = write_scene(tmp_path, far)
        out = ["--svg" if argv[0] == "render" else "--out", str(tmp_path / "out")]
        assert main([argv[0], "--scene", path, *argv[1:], *out]) == 2
        if argv[0] != "validate":
            assert "[non-finite-endpoint] mirror 1" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["trace", "--theta", "0.1"],
            ["map", "--samples", "8"],
            ["sectors", "--samples", "8"],
            ["unfold"],
            ["render"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_overflowing_extent_exits_two(self, tmp_path, argv, capsys):
        # every point is finite, but the scene is wider than the float range
        wide = Scene(
            mirrors=(
                Mirror((-1.5e308, 0.0), 1.0, make_rational_turn(0, 1)),
                Mirror((1.5e308, 0.0), 1.0, make_rational_turn(0, 1)),
            ),
            source=(0.0, 1.0),
        )
        path = write_scene(tmp_path, wide)
        out = tmp_path / "out"
        option = "--svg" if argv[0] == "render" else "--out"
        assert main([argv[0], "--scene", path, *argv[1:], option, str(out)]) == 2
        if argv[0] == "validate":
            doc = json.loads(out.read_text())
            assert [v["code"] for v in doc["violations"]] == ["non-finite-extent"]
            assert "Infinity" not in out.read_text()
        else:
            assert "[non-finite-extent] the scene spans inf by " in capsys.readouterr().err
            assert not out.exists()


class TestTraceCommand:
    def test_trace_doc(self, single_path, tmp_path):
        out = tmp_path / "trace.json"
        svg = tmp_path / "trace.svg"
        code = main(
            [
                "trace",
                "--scene",
                single_path,
                "--theta",
                str(3 * math.pi / 2),
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "escaped"
        assert doc["itinerary"] == [[1, 1]]
        assert doc["exit_dir"] == pytest.approx(math.pi / 2)
        assert doc["exit_dir_exact"] == {"s": -1, "c_num": 0, "c_den": 1}
        assert svg.read_text().count('class="trace"') == 1


class TestMapCommand:
    def test_map_doc(self, single_path, tmp_path):
        out = tmp_path / "map.json"
        code = main(
            ["map", "--scene", single_path, "--samples", "256", "--cap", "50",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["components"]) == 2
        assert doc["params"]["seeds"] == 256
        assert doc["escape_measure"] == pytest.approx(2 * math.pi, abs=1e-6)

    def test_every_direction_trapped(self, tmp_path):
        out = tmp_path / "map.json"
        argv = ["map", "--scene", write_scene(tmp_path, make_box_scene()),
                "--samples", "8", "--cap", "1", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["trapped_arcs"] == [{"start": 0.0, "end": 0.0, "measure": 2 * math.pi}]
        assert doc["components"] == []
        assert doc["singular_directions"] == []
        assert doc["escape_measure"] == 0

    def test_eps_b_below_the_float_spacing_ends(self, tmp_path):
        # near 2*pi adjacent floats are 8.9e-16 apart, so bisection down to
        # 1e-17 meets pairs with no float between them; a fresh process with
        # a timeout turns a run that never ends into a failure
        docs = {}
        for eps_b in ("1e-17", "1e-15"):
            out = tmp_path / f"map{eps_b}.json"
            proc = run_darksector(
                "map", "--scene", str(SCENES / "single_mirror.json"), "--samples", "64",
                "--cap", "20", "--eps-b", eps_b, "--out", str(out), timeout=30,
            )
            assert proc.returncode == 0, proc.stderr
            docs[eps_b] = json.loads(out.read_text())
        fine, coarse = docs["1e-17"]["components"], docs["1e-15"]["components"]
        assert [(c["itinerary"], c["isometry"]) for c in fine] == [
            (c["itinerary"], c["isometry"]) for c in coarse
        ]
        for a, b in zip(fine, coarse):
            assert a["arc"]["start"] == pytest.approx(b["arc"]["start"], abs=1e-15)
            assert a["arc"]["end"] == pytest.approx(b["arc"]["end"], abs=1e-15)


class TestSectorsCommand:
    def test_single_mirror_pipeline(self, single_path, tmp_path):
        out = tmp_path / "sectors.json"
        svg = tmp_path / "sectors.svg"
        code = main(
            [
                "sectors",
                "--scene",
                single_path,
                "--samples",
                "512",
                "--cap",
                "50",
                "--seed",
                "7",
                "--darkness-samples",
                "200",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["injective"] is False
        assert doc["certified"] is True
        assert len(doc["sectors"]) == 1
        sector = doc["sectors"][0]
        assert sector["arc"]["start"] == pytest.approx(5 * math.pi / 4, abs=1e-7)
        assert sector["arc"]["end"] == pytest.approx(7 * math.pi / 4, abs=1e-7)
        assert sector["verification"]["passed"] is True
        assert svg.read_text().count('class="sector"') == 1

    def test_edge_on_scene_exits_four(self, tmp_path):
        # the source lies on the mirror's line, off the segment: the mirror
        # subtends no open angle, the map is injective, nothing is certified
        edge_on = Scene(
            mirrors=(Mirror((1.0, 0.0), 1.0, make_rational_turn(0, 1)),),
            source=(0.0, 0.0),
        )
        path = write_scene(tmp_path, edge_on)
        out = tmp_path / "sectors.json"
        code = main(
            ["sectors", "--scene", path, "--samples", "256", "--cap", "50",
             "--out", str(out)]
        )
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["certified"] is False
        assert doc["sectors"] == []
        assert doc["selected_sector_index"] is None
        # the decomposition is still emitted
        assert doc["decomposition"]["components"]

    def test_deterministic_bytes(self, single_path, tmp_path):
        outs = []
        svgs = []
        for i in (1, 2):
            out = tmp_path / f"sectors{i}.json"
            svg = tmp_path / f"sectors{i}.svg"
            code = main(
                ["sectors", "--scene", single_path, "--samples", "256",
                 "--cap", "50", "--seed", "11", "--darkness-samples", "100",
                 "--out", str(out), "--svg", str(svg)]
            )
            assert code == 0
            outs.append(out.read_bytes())
            svgs.append(svg.read_bytes())
        assert outs[0] == outs[1]
        assert svgs[0] == svgs[1]

    def test_selected_sector_is_the_widest(self, tmp_path):
        out = tmp_path / "sectors.json"
        path = write_scene(tmp_path, make_six_mirror_trap_scene())
        argv = ["sectors", "--scene", path, "--samples", "128", "--cap", "30",
                "--eps-b", "1e-4", "--darkness-samples", "10", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        measures = [a["measure"] for a in doc["unlit_arcs"]]
        assert len(set(measures)) > 1
        assert measures[doc["selected_sector_index"]] == max(measures)
        # each sector is cut from its own unlit arc
        assert [s["source_arc"] for s in doc["sectors"]] == doc["unlit_arcs"]

    @pytest.mark.parametrize(
        "make_scene,options,code,unlit",
        [
            (make_six_mirror_trap_scene, ["--samples", "128", "--cap", "30"], 0, 11),
            (make_parallel_scene, ["--samples", "64", "--cap", "60"], 4, 0),
        ],
        ids=["six_mirror_trap", "channel"],
    )
    def test_probe_rays_are_traced_once(
        self, tmp_path, monkeypatch, make_scene, options, code, unlit
    ):
        # check (iii) of every sector reads one set of probe traces: three
        # per component, or none when there is no unlit arc to verify
        calls = []
        original = dark_sector.trace

        def counting_trace(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dark_sector, "trace", counting_trace)
        out = tmp_path / "sectors.json"
        path = write_scene(tmp_path, make_scene())
        argv = ["sectors", "--scene", path, *options, "--eps-b", "1e-4", "--out", str(out)]
        assert main(argv) == code
        doc = json.loads(out.read_text())
        assert len(doc["unlit_arcs"]) == unlit
        components = len(doc["decomposition"]["components"])
        assert len(calls) == (3 * components if unlit else 0)

    @pytest.mark.parametrize(
        "scene_path,options,points",
        [
            (None, ["--samples", "128", "--cap", "30", "--eps-b", "1e-4"], 11_000),
            (SCENES / "single_mirror.json", ["--seed", "1"], 1000),
            (SCENES / "two_perpendicular.json", ["--seed", "1"], 3000),
        ],
        ids=["six_mirror_trap", "single_mirror", "two_perpendicular"],
    )
    def test_check_i_decides_points_without_the_arc_algebra(
        self, tmp_path, scene_path, options, points
    ):
        # check (i) measures each sampled point's uncovered directions in
        # closed form, and every point of these certified sectors passes
        if scene_path is None:
            scene_path = write_scene(tmp_path, make_six_mirror_trap_scene())
        out = tmp_path / "sectors.json"
        assert main(["sectors", "--scene", str(scene_path), *options, "--out", str(out)]) == 0
        sectors = json.loads(out.read_text())["sectors"]
        assert sum(s["verification"]["sample_count"] for s in sectors) == points
        assert all(s["verification"]["direction_inclusion_ok"] for s in sectors)

    @pytest.mark.parametrize(
        "far_x,code",
        [(1e298, 0), (1e299, 2), (0.8e308, 2)],
        ids=["inside_the_reach", "just_beyond", "near_float_max"],
    )
    def test_scene_whose_samples_overflow_exits_two(self, tmp_path, capsys, far_x, code):
        # a second mirror far out makes the enclosing circle huge; check (i)
        # samples up to 1/sin(eps_b) + 1e6 radii from its center, which at
        # the default eps_b leaves the float range beyond far_x ~ 9e297
        scene = Scene(
            mirrors=(
                Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                Mirror((far_x, 0.0), 1.0, make_rational_turn(0, 1)),
            ),
            source=(0.0, 1.0),
        )
        out = tmp_path / "sectors.json"
        argv = ["sectors", "--scene", write_scene(tmp_path, scene), "--samples", "64",
                "--out", str(out)]
        assert main(argv) == code
        if code == 2:
            assert "error: scene too large for sectors" in capsys.readouterr().err
            assert not out.exists()
            return

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["certified"] is True


class TestUnfoldCommand:
    def test_toy_census_doc(self, toy_path, tmp_path):
        out = tmp_path / "census.json"
        assert main(["unfold", "--scene", toy_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sheet_count"] == 4
        assert len(doc["zeros"]) == 8
        assert len(doc["poles"]) == 4
        assert doc["genus"] == 1
        assert doc["euler_characteristic"] == 0

    def test_group_over_the_cap_exits_one(self, capsys):
        argv = ["unfold", "--scene", str(SCENES / "two_perpendicular.json"), "--group-cap", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reflection group of order 4 exceeds cap of 2 elements\n"


class TestRenderCommand:
    def test_render_scene(self, toy_path, tmp_path):
        svg = tmp_path / "scene.svg"
        assert main(["render", "--scene", toy_path, "--svg", str(svg)]) == 0
        assert svg.read_text().count('class="mirror"') == 2

    def test_render_saved_sectors_report(self, single_path, tmp_path):
        report = tmp_path / "sectors.json"
        assert (
            main(
                ["sectors", "--scene", single_path, "--samples", "256",
                 "--cap", "50", "--out", str(report)]
            )
            == 0
        )
        svg = tmp_path / "fromreport.svg"
        assert main(["render", "--report", str(report), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.count('class="mirror"') == 1
        assert text.count('class="sector"') == 1


    @pytest.mark.parametrize(
        "scene,theta,status",
        [
            (make_single_mirror_scene(), 4.2, "escaped"),
            (make_single_mirror_scene(), 7 * math.pi / 4, "singular"),
            (make_parallel_scene(), math.pi / 2, "bounce_cap_exceeded"),
        ],
        ids=["escaped", "singular", "cap-exceeded"],
    )
    def test_saved_trace_renders_as_trace_svg(self, tmp_path, scene, theta, status):
        # the last leg, to the circle or to where the ray stopped, is drawn
        # from the report's exit point, exit direction and circle
        report, traced, rendered = (tmp_path / n for n in ("t.json", "t.svg", "r.svg"))
        argv = ["trace", "--scene", write_scene(tmp_path, scene), "--theta", repr(theta),
                "--cap", "5", "--out", str(report), "--svg", str(traced)]
        assert main(argv) == 0
        assert json.loads(report.read_text())["status"] == status
        assert main(["render", "--report", str(report), "--svg", str(rendered)]) == 0
        assert rendered.read_bytes() == traced.read_bytes()

    @pytest.mark.parametrize(
        "damage,field",
        [
            (lambda doc: doc["circle"].pop("radius"), "circle.radius: missing field"),
            (lambda doc: doc.update(status="lost"), "status: expected a trace status"),
            (lambda doc: doc.pop("exit_dir"), "exit_dir: expected a number"),
            (lambda doc: doc.update(exit_point=[0.0]), "exit_point: expected a [x, y] pair"),
            (lambda doc: doc["circle"].update(radius=0.25),
             "exit_point: trace exit point is not inside the circle"),
            (lambda doc: doc["circle"].update(center=[1.0]), "circle.center: expected a [x, y]"),
            (lambda doc: doc["path"].append([0.5]), "path[2]: expected a [x, y] pair"),
            (lambda doc: doc["path"].clear(), "path: expected a list of [x, y] pairs, the source"),
            (lambda doc: doc.update(path=[], status="singular", stop_point=None),
             "path: expected a list of [x, y] pairs, the source"),
            (lambda doc: doc.update(sectors=[{"apex": [0, 0]}]), "sectors[0].dir_lo: missing"),
            (lambda doc: doc.update(sectors={}), "sectors: expected a list"),
            (lambda doc: doc["circle"].update(radius=0.0),
             "circle.radius: expected a positive number"),
            (lambda doc: doc["circle"].update(radius=-3.0),
             "circle.radius: expected a positive number"),
            (lambda doc: [doc], "report: expected a JSON object"),
            (lambda doc: doc.update(decomposition=[]), "decomposition: expected an object"),
            (lambda doc: doc.update(sectors=[{"apex": [0, 0], "dir_lo": 1e308, "dir_hi": -1e308,
                                              "tangent_points": [[0, 1], [1, 0]]}]),
             "sectors[0].dir_lo: expected a direction in [0, 2*pi)"),
            # a circle key is the report's circle, whatever its value
            (lambda doc: doc.update(circle={}), "circle.center: missing field"),
            (lambda doc: doc.update(circle=None), "circle.center: missing field"),
            (lambda doc: doc.update(circle=0), "circle.center: missing field"),
            (lambda doc: doc.update(circle=[]), "circle.center: missing field"),
        ],
        ids=["no-radius", "bad-status", "no-exit-dir", "short-exit-point",
             "exit-point-outside-the-circle", "short-center", "short-path-point", "empty-path",
             "empty-singular-path", "no-dir-lo", "sectors-not-a-list", "zero-radius",
             "negative-radius", "report-not-an-object", "decomposition-not-an-object",
             "direction-out-of-range", "empty-circle", "null-circle", "zero-circle",
             "list-circle"],
    )
    def test_malformed_report_exits_three(self, single_path, tmp_path, capsys, damage, field):
        report = tmp_path / "trace.json"
        main(["trace", "--scene", single_path, "--theta", str(3 * math.pi / 2),
              "--out", str(report)])
        doc = json.loads(report.read_text())
        replaced = damage(doc)
        if isinstance(replaced, list):  # a damage that builds a new report
            doc = replaced
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["render", "--report", str(report), "--svg", str(tmp_path / "x.svg")]) == 3
        assert f"error: malformed report: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "render-scene", "render-report"])
    def test_viewport_beyond_the_float_range_exits_two(self, tmp_path, capsys, command):
        # the enclosing circle (radius ~6e307) is finite and the scene
        # valid, but the viewport, 6 radii wide, is not
        scene = Scene(
            mirrors=(
                Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                Mirror((1e308, 0.0), 1.0, make_rational_turn(1, 2)),
            ),
            source=(0.0, 1.0),
        )
        path = write_scene(tmp_path, scene)
        assert main(["validate", "--scene", path]) == 0
        trace = ["trace", "--scene", path, "--theta", "0.3", "--out", str(tmp_path / "t.json")]
        if command == "render-report":
            assert main(trace) == 0
        argv = {
            "trace": trace,
            "render-scene": ["render", "--scene", path],
            "render-report": ["render", "--report", str(tmp_path / "t.json")],
        }[command]
        written = set(tmp_path.iterdir())
        capsys.readouterr()
        assert main([*argv, "--svg", str(tmp_path / "out.svg")]) == 2
        assert "error: the SVG viewport, 6 radii wide" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == written

    @pytest.mark.parametrize(
        "scene",
        [
            Scene(mirrors=(Mirror((-1.0, 0.0), 2.0, make_rational_turn(0, 1)),
                           Mirror((0.0, -1.0), 2.0, make_rational_turn(1, 2))),
                  source=(0.0, 1.0)),
            Scene(mirrors=(Mirror((1e308, 0.0), 1e308, make_rational_turn(0, 1)),),
                  source=(0.0, 1.0)),
        ],
        ids=["mirrors-intersect", "non-finite-endpoint"],
    )
    def test_invalid_report_scene_exits_as_render_scene_does(self, tmp_path, capsys, scene):
        # the validate report of an invalid scene carries that scene and no circle
        path, report = write_scene(tmp_path, scene), tmp_path / "validate.json"
        assert main(["validate", "--scene", path, "--out", str(report)]) == 2
        capsys.readouterr()
        assert main(["render", "--scene", path, "--svg", str(tmp_path / "a.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scene: [")
        assert main(["render", "--report", str(report), "--svg", str(tmp_path / "b.svg")]) == 2
        assert capsys.readouterr().err == err
        assert not list(tmp_path.glob("*.svg"))

    def test_margin_sets_only_a_circle_the_report_lacks(self, toy_path, tmp_path, capsys):
        # a trace report carries its circle, a validate report none
        trace, validate = tmp_path / "trace.json", tmp_path / "validate.json"
        assert main(["trace", "--scene", toy_path, "--theta", "1", "--out", str(trace)]) == 0
        assert main(["validate", "--scene", toy_path, "--out", str(validate)]) == 0
        svgs = [tmp_path / f"{n}.svg" for n in ("default", "huge", "validate")]
        assert main(["render", "--report", str(trace), "--svg", str(svgs[0])]) == 0
        capsys.readouterr()
        assert main(["render", "--report", str(trace), "--margin", "1.7e308",
                     "--svg", str(svgs[1])]) == 0
        assert capsys.readouterr().err == ""
        assert svgs[1].read_bytes() == svgs[0].read_bytes()
        assert main(["render", "--report", str(validate), "--margin", "1.7e308",
                     "--svg", str(svgs[2])]) == 2
        assert capsys.readouterr().err == ("error: --margin 1.7e+308 makes the enclosing "
                                           "circle's radius overflow the float range\n")
        assert not svgs[2].exists()

    def test_non_utf8_report_exits_three(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b'{"scene": "\xff"}')
        assert main(["render", "--report", str(report)]) == 3
        assert "error: cannot read report:" in capsys.readouterr().err


class TestParamBounds:
    def test_samples_bound(self, toy_path):
        with pytest.raises(SystemExit):
            main(["map", "--scene", toy_path, "--samples", "4"])

    def test_eps_bound(self, toy_path):
        with pytest.raises(SystemExit):
            main(["map", "--scene", toy_path, "--eps-b", "0.5"])

    def test_cap_bound(self, toy_path):
        with pytest.raises(SystemExit):
            main(["map", "--scene", toy_path, "--cap", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--theta", "nan"],
            ["trace", "--theta", "inf"],
            ["map", "--margin", "1"],
            ["map", "--margin", "0.5"],
            ["map", "--margin", "-2"],
            ["sectors", "--darkness-samples", "-5"],
            ["unfold", "--group-cap", "0"],
            ["unfold", "--group-cap", "1"],
        ],
    )
    def test_rejected_value_exits_two(self, toy_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scene", toy_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--theta", "0.1"],
            ["map", "--samples", "8"],
            ["sectors", "--samples", "8"],
            ["render"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("margin", ["1.5e308", "inf"])
    def test_margin_overflowing_the_circle_exits_two(
        self, toy_path, tmp_path, argv, margin, capsys
    ):
        # the toy scene's largest center distance is ~1.77, so 1.5e308 overflows
        out = tmp_path / "out"
        option = "--svg" if argv[0] == "render" else "--out"
        argv = [*argv, "--scene", toy_path, "--margin", margin, option, str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: --margin {float(margin)} makes the enclosing circle's radius" in err
        assert not out.exists()


class TestOptionTable:
    # the options each command's handler reads; every other pair exits 2
    TABLE = {
        "validate": {"--scene", "--out"},
        "trace": {"--scene", "--theta", "--out", "--svg", "--cap", "--margin"},
        "map": {"--scene", "--out", "--samples", "--eps-b", "--cap", "--margin"},
        "sectors": {"--scene", "--out", "--samples", "--eps-b", "--cap", "--margin",
                    "--svg", "--seed", "--darkness-samples"},
        "unfold": {"--scene", "--out", "--group-cap"},
        "render": {"--scene", "--report", "--svg", "--margin"},
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--svg", "x.svg"],
            ["render", "--out", "x.svg"],
            ["unfold", "--cap", "3"],
            ["validate", "--seed", "5"],
            ["trace", "--theta", "1", "--samples", "64"],
        ],
    )
    def test_option_the_command_does_not_read_exits_two(self, toy_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scene", toy_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["render", "--report", "r.json", "--scene", "s.json"], "not allowed with argument"),
            (["render", "--svg", "x.svg"], "one of the arguments --scene --report is required"),
        ],
        ids=["both", "neither"],
    )
    def test_render_takes_exactly_one_of_scene_and_report(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, toy_path, tmp_path, capsys):
        # the parser is built once per process; rejected arguments and other
        # commands in between leave the next call's parse unchanged
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        sectors = ["sectors", "--scene", toy_path, "--samples", "64", "--cap", "20",
                   "--darkness-samples", "50", "--seed", "3"]
        assert main([*sectors, "--out", str(first)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["unfold", "--scene", toy_path, "--seed", "5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["render", "--scene", toy_path, "--report", str(first)])
        assert exc.value.code == 2
        assert main(["unfold", "--scene", toy_path, "--out", str(tmp_path / "u.json")]) == 0
        assert main([*sectors, "--out", str(last)]) == 0
        assert last.read_bytes() == first.read_bytes()
        assert cli._build_parser.cache_info().misses == 1

    def test_render_without_svg_writes_to_stdout(self, toy_path, capsys):
        assert main(["render", "--scene", toy_path]) == 0
        scene = make_toy_scene()
        assert capsys.readouterr().out == render_svg(scene, enclosing_circle(scene))

    @pytest.mark.parametrize("command", sorted(TABLE))
    def test_help_lists_exactly_the_command_options(self, command):
        proc = run_darksector(command, "--help")
        assert proc.returncode == 0, proc.stderr
        listed = set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) - {"--help"}
        assert listed == self.TABLE[command]


class TestWrittenFiles:
    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"]
    )
    def test_out_file_mode_follows_the_umask(self, toy_path, tmp_path, umask, mode):
        out = tmp_path / "report.json"
        previous = os.umask(umask)
        try:
            assert main(["validate", "--scene", toy_path, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_failing_stream_leaves_the_target_unchanged(self, tmp_path, monkeypatch, capsys):
        path = write_scene(tmp_path, make_parallel_scene())
        out = tmp_path / "map.json"
        out.write_bytes(b"the previous report\n")
        real_fdopen = os.fdopen
        writes = []

        class FullDisk:
            """A file whose third write finds the disk full."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                writes.append(len(text))
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.f.write(text)

        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: FullDisk(real_fdopen(*a, **kw)))
        # a ~440 kB report, streamed one key or list item per write
        argv = ["map", "--scene", path, "--samples", "64", "--eps-b", "1e-4", "--cap", "60",
                "--out", str(out)]
        assert main(argv) == 1
        assert len(writes) == 3
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}" in err
        assert "internal error" not in err
        assert out.read_bytes() == b"the previous report\n"
        assert not list(tmp_path.glob(".darksector-*"))

    @pytest.mark.parametrize("command", ["map", "unfold"])
    def test_stdout_carries_the_bytes_of_out(self, toy_path, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        assert main([command, "--scene", toy_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command, "--scene", toy_path]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            # a report of ~1 kB, written only when stdout is flushed
            ["unfold", "--scene", str(SCENES / "two_perpendicular.json")],
            # a report of ~440 kB, whose writes fail once stdout's buffer fills
            ["map", "--samples", "64", "--eps-b", "1e-4", "--cap", "60"],
            # the help text, which argparse would write itself
            ["map", "--help"],
        ],
        ids=["flush", "write", "help"],
    )
    def test_closed_stdout_exits_one(self, tmp_path, argv):
        if argv[0] == "map" and "--help" not in argv:
            argv = [*argv, "--scene", write_scene(tmp_path, make_parallel_scene())]
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = run_darksector(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("option", ["--out", "--svg"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_path_exits_one(self, toy_path, tmp_path, capsys, option, target):
        path = tmp_path / "absent" / "x" if target == "missing-dir" else tmp_path
        argv = ["trace", "--scene", toy_path, "--theta", "1.0", option, str(path)]
        if option == "--svg":
            argv += ["--out", str(tmp_path / "trace.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {path}: " in err
        assert "internal error" not in err and ".darksector-" not in err
        assert not list(tmp_path.glob(".darksector-*"))


def _scene_bytes(*mirrors, source=(0.0, 1.0)) -> bytes:
    return save_scene(Scene(mirrors=tuple(Mirror(*m) for m in mirrors), source=source))


_HORIZONTAL = make_rational_turn(0, 1)
_TOY = save_scene(make_toy_scene())
# every failure path of the command layer: (files written into the run's
# directory, argv, exit code, the whole stderr text); "{tmp}" stands for
# the directory
FAILURES = {
    "unwritable-out": (
        {"toy.json": _TOY},
        ["validate", "--scene", "{tmp}/toy.json", "--out", "{tmp}/absent/out.json"],
        1, "error: cannot write {tmp}/absent/out.json: No such file or directory\n",
    ),
    "missing-scene": (
        {}, ["trace", "--scene", "{tmp}/absent.json", "--theta", "1"],
        3, "error: cannot read scene file: [Errno 2] No such file or directory: "
           "'{tmp}/absent.json'\n",
    ),
    "scene-not-json": (
        {"bad.json": b"{not json"}, ["validate", "--scene", "{tmp}/bad.json"],
        3, "error: invalid JSON: Expecting property name enclosed in double quotes "
           "(line 1, column 2)\n",
    ),
    "scene-nested-too-deeply": (
        {"deep.json": b"[" * 200_000}, ["validate", "--scene", "{tmp}/deep.json"],
        3, "error: invalid JSON: maximum recursion depth exceeded while decoding a JSON "
           "array from a unicode string\n",
    ),
    "scene-repeats-a-field": (
        {"twice.json": _TOY[:-2] + b',\n  "source": [0.0, 2.0]\n}\n'},
        ["validate", "--scene", "{tmp}/twice.json"],
        3, "error: repeated field 'source'\n",
    ),
    "two-violations": (
        {"two.json": _scene_bytes(((-1.0, 0.0), 2.0, _HORIZONTAL),
                                  ((0.0, -1.0), 2.0, make_rational_turn(1, 2)),
                                  source=(0.5, 0.0))},
        ["map", "--scene", "{tmp}/two.json"],
        2, "invalid scene: [mirrors-intersect] mirrors 1 and 2 are at distance 6.123e-17\n"
           "invalid scene: [source-on-mirror] source is at distance 0.000e+00 from mirror 1\n",
    ),
    "margin-overflow": (
        {"toy.json": _TOY}, ["map", "--scene", "{tmp}/toy.json", "--margin", "1.5e308"],
        2, "error: --margin 1.5e+308 makes the enclosing circle's radius overflow the float "
           "range\n",
    ),
    "sectors-too-large": (
        {"far.json": _scene_bytes(((-1.0, 0.0), 2.0, _HORIZONTAL),
                                  ((1e299, 0.0), 1.0, _HORIZONTAL))},
        ["sectors", "--scene", "{tmp}/far.json", "--samples", "8"],
        2, "error: scene too large for sectors: with --eps-b 1e-10 the darkness samples lie up "
           "to 1e+10 radii (radius 6.25e+298) from the enclosing circle's center, beyond the "
           "float range\n",
    ),
    "viewport-beyond-the-float-range": (
        {"far.json": _scene_bytes(((-1.0, 0.0), 2.0, _HORIZONTAL),
                                  ((1e308, 0.0), 1.0, make_rational_turn(1, 2)))},
        ["render", "--scene", "{tmp}/far.json", "--svg", "{tmp}/out.svg"],
        2, "error: the SVG viewport, 6 radii wide around the enclosing circle (radius "
           "6.25e+307), leaves the float range\n",
    ),
    "unfold-over-the-group-cap": (
        {"toy.json": _TOY}, ["unfold", "--scene", "{tmp}/toy.json", "--group-cap", "3"],
        1, "error: reflection group of order 4 exceeds cap of 3 elements\n",
    ),
    "missing-report": (
        {}, ["render", "--report", "{tmp}/absent.json"],
        3, "error: cannot read report: [Errno 2] No such file or directory: "
           "'{tmp}/absent.json'\n",
    ),
    "report-not-json": (
        {"report.json": b"{not json"}, ["render", "--report", "{tmp}/report.json"],
        3, "error: cannot read report: Expecting property name enclosed in double quotes: "
           "line 1 column 2 (char 1)\n",
    ),
    "report-nested-too-deeply": (
        {"report.json": b"[" * 200_000}, ["render", "--report", "{tmp}/report.json"],
        3, "error: cannot read report: maximum recursion depth exceeded while decoding a "
           "JSON array from a unicode string\n",
    ),
    "report-not-utf8": (
        {"report.json": b'{"scene": "\xff"}'}, ["render", "--report", "{tmp}/report.json"],
        3, "error: cannot read report: 'utf-8' codec can't decode byte 0xff in position 11: "
           "invalid start byte\n",
    ),
    "malformed-report": (
        {"report.json": b'{"scene": ' + _TOY + b', "circle": {"center": [0, 0]}}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: circle.radius: missing field\n",
    ),
    "report-without-a-scene": (
        {"report.json": b'{"path": []}'}, ["render", "--report", "{tmp}/report.json"],
        3, "error: report carries no usable scene: top-level value must be an object\n",
    ),
    "report-path-not-a-list": (
        {"report.json": b'{"scene": ' + _TOY + b', "path": 5}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: path: expected a list of [x, y] pairs\n",
    ),
    "sector-with-one-tangent-point": (
        {"report.json": b'{"scene": ' + _TOY + b', "sectors": [{"apex": [0, 0], "dir_lo": 0, '
                        b'"dir_hi": 1, "tangent_points": [[1, 0]]}]}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: sectors[0].tangent_points: expected a list of "
           "[x, y] pairs\n",
    ),
    "sector-direction-out-of-range": (
        {"report.json": b'{"scene": ' + _TOY + b', "sectors": [{"apex": [0, 0], "dir_lo": 1e308, '
                        b'"dir_hi": -1e308, "tangent_points": [[0, 1], [1, 0]]}]}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: sectors[0].dir_lo: expected a direction in [0, 2*pi)\n",
    ),
}


# a report's scene obeys the scene files' rules, and a circle key is its circle
_twice = FAILURES["scene-repeats-a-field"][0]["twice.json"]
_two = FAILURES["two-violations"][0]["two.json"]
_far_end = _scene_bytes(((1e308, 0.0), 1e308, _HORIZONTAL))  # ends at (inf, 0.0)
FAILURES.update({
    "report-repeats-a-field": (
        {"report.json": b'{"scene": ' + _twice + b'}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: cannot read report: repeated field 'source'\n",
    ),
    "report-scene-invalid": (
        {"report.json": b'{"scene": ' + _two + b'}'},
        ["render", "--report", "{tmp}/report.json"], 2, FAILURES["two-violations"][3],
    ),
    "report-mirror-ends-beyond-the-float-range": (
        {"report.json": b'{"scene": ' + _far_end + b'}'},
        ["render", "--report", "{tmp}/report.json"],
        2, "invalid scene: [non-finite-endpoint] mirror 1 ends at (inf, 0.0), beyond the float "
           "range\n",
    ),
    "report-circle-empty": (
        {"report.json": b'{"scene": ' + _TOY + b', "circle": {}}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: circle.center: missing field\n",
    ),
    "report-circle-null": (
        {"report.json": b'{"scene": ' + _TOY + b', "circle": null}'},
        ["render", "--report", "{tmp}/report.json"],
        3, "error: malformed report: circle.center: missing field\n",
    ),
})


class TestFailureMessages:
    @pytest.mark.parametrize("name", list(FAILURES))
    def test_failure_writes_one_message_and_its_exit_code(self, tmp_path, capsys, name):
        files, argv, code, err = FAILURES[name]
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        tmp = str(tmp_path)
        assert main([a.replace("{tmp}", tmp) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err.replace("{tmp}", tmp)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["validate", "--scene", "{tmp}/toy.json"], 0),
            (["validate", "--scene", "{tmp}/two.json"], 2),
            (["render", "--scene", "{tmp}/toy.json"], 0),
            (["render", "--report", "{tmp}/report.json"], 0),
        ],
        ids=["validate", "validate-invalid", "render-scene", "render-report"],
    )
    def test_validate_and_render_write_no_stderr(self, tmp_path, capsys, argv, code):
        # validate reports violations in its document; render has no summary
        (tmp_path / "toy.json").write_bytes(_TOY)
        (tmp_path / "two.json").write_bytes(FAILURES["two-violations"][0]["two.json"])
        tmp = str(tmp_path)
        assert main(["trace", "--scene", f"{tmp}/toy.json", "--theta", "1",
                     "--out", f"{tmp}/report.json"]) == 0
        capsys.readouterr()
        assert main([a.replace("{tmp}", tmp) for a in argv]) == code
        assert capsys.readouterr().err == ""


def _usage(command: str, capsys) -> str:
    """The usage lines argparse prints with an error of command."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return capsys.readouterr().out.split("\n\n")[0] + "\n"


class TestFileArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--theta", "1", "--out", ""],
            ["trace", "--theta", "1", "--svg", ""],
            ["map", "--out", ""],
            ["sectors", "--samples", "64", "--svg", ""],
            ["render", "--svg", ""],
        ],
        ids=["trace-out", "trace-svg", "map-out", "sectors-svg", "render-svg"],
    )
    def test_empty_path_is_a_rejected_value(self, toy_path, tmp_path, argv, capsys):
        # before, an empty --out sent the report to stdout and an empty --svg
        # wrote no SVG, and both exited 0
        usage = _usage(argv[0], capsys)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scene", toy_path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{usage}darksector {argv[0]}: error: argument {argv[-2]}: must not be empty\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sectors", "--scene", "scene.json", "--samples", "64", "--out", "x", "--svg", "x"],
             "--out and --svg name the same file: x"),
            (["trace", "--scene", "scene.json", "--theta", "1", "--out", "t", "--svg", "./t"],
             "--out and --svg name the same file: t"),
            (["trace", "--scene", "scene.json", "--theta", "1", "--out", "sub/t",
              "--svg", "sublink/t"],
             "--out and --svg name the same file: sub/t"),
            (["map", "--scene", "scene.json", "--out", "scene.json"],
             "--scene and --out name the same file: scene.json"),
            (["map", "--scene", "scene.json", "--out", "./sub/../scene.json"],
             "--scene and --out name the same file: scene.json"),
            (["validate", "--scene", "link.json", "--out", "scene.json"],
             "--scene and --out name the same file: link.json"),
            (["unfold", "--scene", "scene.json", "--out", "hard.json"],
             "--scene and --out name the same file: scene.json"),
            (["render", "--report", "report.json", "--svg", "report.json"],
             "--report and --svg name the same file: report.json"),
            (["render", "--scene", "scene.json", "--svg", "link.json"],
             "--scene and --svg name the same file: scene.json"),
        ],
        ids=["sectors-out-svg", "trace-out-svg-dot", "trace-out-svg-symlinked-directory",
             "map-scene-out", "map-scene-out-dotdot",
             "validate-symlink", "unfold-hard-link", "render-report-svg", "render-scene-symlink"],
    )
    def test_two_options_naming_one_file_exit_two(
        self, toy_path, tmp_path, monkeypatch, argv, message, capsys
    ):
        # before, the later write replaced the earlier output or the input
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sublink").symlink_to("sub")
        (tmp_path / "link.json").symlink_to("scene.json")
        os.link("scene.json", "hard.json")
        assert main(["validate", "--scene", "scene.json", "--out", "report.json"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        # nothing was read into an output or written at all
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert (tmp_path / "link.json").is_symlink()
        assert list((tmp_path / "sub").iterdir()) == []

    def test_existing_output_named_twice_is_kept(self, toy_path, tmp_path, capsys):
        out = tmp_path / "x"
        out.write_bytes(b"the previous report\n")
        argv = ["sectors", "--scene", toy_path, "--out", str(out), "--svg", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --out and --svg name the same file: {out}\n"
        assert out.read_bytes() == b"the previous report\n"

    def test_distinct_paths_in_one_directory_are_written(self, toy_path, tmp_path):
        # a shared directory, or one name a prefix of another, is no collision
        out, svg = tmp_path / "scene.json.out", tmp_path / "scene.json.out.svg"
        argv = ["sectors", "--scene", toy_path, "--samples", "64", "--darkness-samples", "50",
                "--out", str(out), "--svg", str(svg)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["certified"] is True
        assert svg.read_text().endswith("</svg>\n")
