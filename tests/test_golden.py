"""Byte-level regression gate for the CLI reports and SVGs.

Each case runs one command on a scene and pins its exit code, its whole
stderr text, the SHA-256 of the ``--out`` JSON and, for the commands that
draw one, of the ``--svg``.  A refactor that
is meant to keep behaviour must keep these digests; a change that is meant to
alter the output must update them deliberately.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import make_parallel_scene, make_six_mirror_trap_scene
from darksector.cli import main
from darksector.exact_angle import make_rational_turn
from darksector.scene import Mirror, Scene, load_scene, save_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"

COMMANDS = {
    "trace": (["trace", "--theta", "4.2"], True),
    "map": (["map"], False),
    "sectors": (["sectors", "--seed", "1"], True),
    "unfold": (["unfold"], False),
}

# (scene, command) -> (sha256 of the --out JSON, sha256 of the --svg or None)
GOLDEN = {
    ("single_mirror", "trace"): (
        "19bc1107c533f2a05158111fd43bb428a333e64824dc67ecd387ebe69ef66e7a",
        "07abf7e276ca618e5116271e06092f0d93be24fa16f1485b066a8eb508cc7211",
    ),
    ("single_mirror", "map"): (
        "38b18ad6237c450f0f97ceab37faf4b42a06acdea56dce4929bd62d6c4fd2c62",
        None,
    ),
    ("single_mirror", "sectors"): (
        "2d8a5881ffff4261dedddb430ff0bd285322281b14e68a1ba4554537e2facc23",
        "cf5a7a526340770a5edcab92215176a133cfd3846980650189f9cc274b28c069",
    ),
    ("single_mirror", "unfold"): (
        "8054d6c23b7b675ced5ffc0f91fab39dd737117557528b0e01a6dc68e3e3ab7c",
        None,
    ),
    ("two_perpendicular", "trace"): (
        "4dac643c8dd18d70f739f2648bb68fc3d878d8e8c20fc8664b14ed7cab484607",
        "da0cf4e2ee2499634b6c91278fdf39cd1c2f57f40a250ce332f1dd25830afac6",
    ),
    ("two_perpendicular", "map"): (
        "60118541aaa67c9beff6350a7ff5af696d7963a24b22439de7db919057783830",
        None,
    ),
    ("two_perpendicular", "sectors"): (
        "2d8d6d6dfa245eb1e44060cea919888a9d07decab0dd3c6974b358a7c45fea50",
        "15f8da3bb675f88ac83271fc584f1889556b8e62731f363caa70ac4a4c95a828",
    ),
    ("two_perpendicular", "unfold"): (
        "1743f92a882dd83a4b629c5d553f4370a36fc54abe05aa5cfbedd6bcfd288594",
        None,
    ),
}


# (scene, command) -> the whole stderr text of the run
SUMMARY = {
    ("single_mirror", "trace"):
        "trace: escaped, 1 bounce(s), exit direction 2.0831853071795861 rad (exact -θ)\n",
    ("single_mirror", "map"):
        "map: 2 component(s), escape measure 6.2831853051680735 of 6.2831853071795862\n",
    ("single_mirror", "sectors"):
        "sectors: certified 1 dark sector(s); exit-direction map not injective\n",
    ("single_mirror", "unfold"): "unfold: 2 sheet(s), 2 zero(s), 2 pole(s), genus 0, chi 2\n",
    ("two_perpendicular", "trace"):
        "trace: escaped, 1 bounce(s), exit direction 2.0831853071795861 rad (exact -θ)\n",
    ("two_perpendicular", "map"):
        "map: 5 component(s), escape measure 6.2831853028822664 of 6.2831853071795862\n",
    ("two_perpendicular", "sectors"):
        "sectors: certified 3 dark sector(s); exit-direction map not injective\n",
    ("two_perpendicular", "unfold"):
        "unfold: 4 sheet(s), 8 zero(s), 4 pole(s), genus 1, chi 0\n",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_pinned(args, draws_svg, scene_path, want, tmp_path, capsys, code=0):
    """Run args on the scene with --out (and --svg when it draws) and check
    the exit code, the stderr text and the digests in ``want``, which is
    (stderr, sha256 of --out, sha256 of --svg or None)."""
    out = tmp_path / "report.json"
    svg = tmp_path / "render.svg"
    argv = [*args, "--scene", str(scene_path), "--out", str(out)]
    if draws_svg:
        argv += ["--svg", str(svg)]
    capsys.readouterr()
    assert main(argv) == code
    want_err, want_out, want_svg = want
    assert capsys.readouterr().err == want_err
    assert _sha256(out) == want_out
    if want_svg is not None:
        assert _sha256(svg) == want_svg


@pytest.mark.parametrize("scene,command", sorted(GOLDEN))
def test_report_bytes_are_pinned(scene, command, tmp_path, capsys):
    args, draws_svg = COMMANDS[command]
    want = (SUMMARY[(scene, command)], *GOLDEN[(scene, command)])
    _assert_pinned(args, draws_svg, SCENES / f"{scene}.json", want, tmp_path, capsys)


def make_mixed_denominator_scene() -> Scene:
    """Mirror lines at pi/4, pi/6, 5pi/12 and 7pi/6: the angle unit is 12, so
    every exact direction is an offset k*pi/12 that the reports reduce
    (k = 20 is written 5/3), and the reflection group has 24 elements."""
    return Scene(
        mirrors=(
            Mirror((-0.54, -0.86), 1.84, make_rational_turn(1, 4)),
            Mirror((-0.24, 1.03), 1.37, make_rational_turn(1, 6)),
            Mirror((1.13, 0.34), 1.39, make_rational_turn(5, 12)),
            Mirror((0.8, 0.67), 1.83, make_rational_turn(7, 6)),
        ),
        source=(0.0, 0.0),
    )


# command -> (options, draws an SVG, sha256 of --out, sha256 of --svg or None);
# the traced ray bounces 9 times and leaves along -theta + 5/3*pi
MIXED = {
    "trace": (["trace", "--theta", "1.2"], True,
              "32d6b850dab7d1fbcf970f1d6b97fba52886bfec4cf039928dbf2ea3bd4bed4e",
              "ba8d9b2b06208b42dca80fff9270ccba6aecc08d72175ec03cc4d9d789cd6d20"),
    "map": (["map"], False,
            "ff03b589902c643ab27abc248f65415c36266ff22bbeddccdf9d3886a1a17697", None),
    "unfold": (["unfold"], False,
               "b63ecb99135cc9400d3887ad276ae211b8e923bd3aa9f69690cf6c84efa8a06b", None),
}

MIXED_SUMMARY = {
    "trace": "trace: escaped, 9 bounce(s), exit direction 4.0359877559829869 rad "
             "(exact -θ + 5/3·π)\n",
    "map": "map: 38 component(s), escape measure 6.2831852824014076 of 6.2831853071795862\n",
    "unfold": "unfold: 24 sheet(s), 96 zero(s), 24 pole(s), genus 25, chi -48\n",
}


@pytest.mark.parametrize("command", sorted(MIXED))
def test_mixed_denominator_bytes_are_pinned(command, tmp_path, capsys):
    args, draws_svg, want_out, want_svg = MIXED[command]
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(make_mixed_denominator_scene()))
    want = (MIXED_SUMMARY[command], want_out, want_svg)
    _assert_pinned(args, draws_svg, scene_path, want, tmp_path, capsys)


# Multi-bounce scenes whose traces run to the bounce cap.  The channel run is
# injective with 242 components and no unlit arc (exit 4); the six-mirror run
# is not injective and certifies 11 unlit arcs (exit 0).
# name -> (scene, sectors options, exit code, sha256 of --out, sha256 of --svg)
# and, in TRAPPED_SUMMARY, the stderr text
TRAPPED = {
    "channel": (
        make_parallel_scene,
        ["--samples", "64", "--eps-b", "1e-4", "--cap", "60"],
        4,
        "8d43a1ee5d379a99f49768585343d3df53a1f178979bfc531f735b31ff8ec648",
        "18b209971a1063232f2937ec488d512d07b583ac845a2bbfff271dae1d22cf54",
    ),
    "six_mirror_trap": (
        make_six_mirror_trap_scene,
        ["--samples", "128", "--eps-b", "1e-4", "--cap", "30"],
        0,
        "cc6856de05555c0b53c2a678bf9577a295c89d38fc9c10b3d81705d4bc2f7ce5",
        "6d2e9ac5e8d2d04a78a7ba010c564fee35197fec0a735e19286a15b88c886da9",
    ),
}


TRAPPED_SUMMARY = {
    "channel": "sectors: no dark sector certified\n",
    "six_mirror_trap": "sectors: certified 11 dark sector(s); exit-direction map not injective\n",
}


@pytest.mark.parametrize("name", sorted(TRAPPED))
def test_trapped_scene_sectors_bytes_are_pinned(name, tmp_path, capsys):
    make_scene, options, code, want_out, want_svg = TRAPPED[name]
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(make_scene()))
    want = (TRAPPED_SUMMARY[name], want_out, want_svg)
    _assert_pinned(["sectors", "--seed", "0", *options], True, scene_path, want, tmp_path, capsys,
                   code)


def make_five_mirror_scene() -> Scene:
    """Five mirrors at angles 0, pi/4, pi/5, pi/3 and 7pi/12, side by side:
    the angle unit is 60 and the reflection group has 120 elements, so the
    census holds 600 zero rows, 60 for each slit endpoint."""
    turns = [(0, 1), (1, 4), (1, 5), (1, 3), (7, 12)]
    return Scene(
        mirrors=tuple(
            Mirror((3.0 * i, 0.0), 1.0, make_rational_turn(p, q)) for i, (p, q) in enumerate(turns)
        ),
        source=(0.0, 5.0),
    )


def test_large_surface_unfold_bytes_are_pinned(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(make_five_mirror_scene()))
    want = ("unfold: 120 sheet(s), 600 zero(s), 120 pole(s), genus 181, chi -360\n",
            "bcd8b354ba1e6502e4b2bc5f403dc43db191cca4c1d8cce3a7229c3cf7623c86", None)
    _assert_pinned(["unfold"], False, scene_path, want, tmp_path, capsys)


def _drawing_runs():
    """(id, scene, command options, exit code) of every pinned run above
    that also writes an SVG."""
    for scene, command in sorted(GOLDEN):
        args, draws_svg = COMMANDS[command]
        if draws_svg:
            yield f"{scene}-{command}", load_scene((SCENES / f"{scene}.json").read_bytes()), args, 0
    yield "mixed_denominator-trace", make_mixed_denominator_scene(), MIXED["trace"][0], 0
    for name, (make_scene, options, code, *_) in sorted(TRAPPED.items()):
        yield f"{name}-sectors", make_scene(), ["sectors", "--seed", "0", *options], code


@pytest.mark.parametrize(
    "scene,args,code", [pytest.param(*run[1:], id=run[0]) for run in _drawing_runs()]
)
def test_render_report_redraws_the_svg(scene, args, code, tmp_path):
    # an SVG is a function of its report: render --report draws the bytes
    # that --svg wrote beside it
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(scene))
    out, svg, redrawn = (tmp_path / name for name in ("report.json", "run.svg", "report.svg"))
    assert main([*args, "--scene", str(scene_path), "--out", str(out), "--svg", str(svg)]) == code
    assert main(["render", "--report", str(out), "--svg", str(redrawn)]) == 0
    assert redrawn.read_bytes() == svg.read_bytes()


# Long traces on the trapped scenes, at the caps of the benchmark's trapped
# jobs: per scene, a long escape, a stop at the cap and a singular stop far
# past the first few reflections.  At a cap of 100 no trap ray can escape
# after more than 100 reflections; its pinned escape is one at exactly 100.
# (scene, theta, cap) -> (stderr, sha256 of --out, sha256 of --svg)
LONG_TRACES = {
    ("channel", "1.563484", 400): (
        "trace: escaped, 137 bounce(s), exit direction 4.7197013071795864 rad (exact -θ)\n",
        "5a1a4c7096e0e62350194501d1d2f936c59ecbb65c96ac7ad73699fde962612d",
        "6dd48bf954c4c768fd0324a93f6041cf2b28a13a01fe7ef2194bb7196b43ac08",
    ),
    ("channel", "1.570705", 400): (
        "trace: bounce_cap_exceeded, 400 bounce(s), exit direction 1.5707050000000002 rad "
        "(exact θ)\n",
        "e005fcea735b4661917ca1d33ae1dd0c08f8187b7dbf14d0f95c6ab5e3dedbe8",
        "db81373d2b097221082e74512fd9f5679ced4180214829f46f1687c6754a70ad",
    ),
    ("channel", "1.5610405387547355", 400): (
        "trace: singular, 102 bounce(s), exit direction 1.5610405387547353 rad (exact θ)\n",
        "573ab613ba41d76da47199d8eafa1f50531e61169d3a1427877b516304c7a539",
        "823137a26210572dd6fae5a2a2ec9b77d0c3a0de2ebeb456e5890c385c9da4a8",
    ),
    ("six_mirror_trap", "2.6173311", 100): (
        "trace: escaped, 100 bounce(s), exit direction 2.6173310999999995 rad (exact θ)\n",
        "dae756569945c49c1664b058335ec7dcf85fa5f497910fde4bb2b17cff50c6b4",
        "4cc63625ea0c084e77b8f577947224653d24b60e3dcc2cb46c24e75a881be148",
    ),
    ("six_mirror_trap", "2.618473", 100): (
        "trace: bounce_cap_exceeded, 100 bounce(s), exit direction 2.6184729999999998 rad "
        "(exact θ)\n",
        "c6cfc8fbced38bd3095a23b2dca4107f4cbfbc6f0dec0b663f8634c1419d7095",
        "d1b4ca27acc30c1e36139177203f2406c2f3b2617b75ea17b686dfbcd26ed155",
    ),
    ("six_mirror_trap", "2.6158582310008995", 100): (
        "trace: singular, 30 bounce(s), exit direction 2.6158582310008995 rad (exact θ)\n",
        "5e276530a308dbf76be24afd48af4ae0002bcfc8afe8b1641a6cd36650154bec",
        "346736a5d7918d59d8e8b41c1577a0c3531f02b9be7386df11bb4a26512aaea2",
    ),
}

LONG_TRACE_SCENES = {"channel": make_parallel_scene, "six_mirror_trap": make_six_mirror_trap_scene}


@pytest.mark.parametrize("name,theta,cap", sorted(LONG_TRACES))
def test_long_trace_bytes_are_pinned(name, theta, cap, tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(LONG_TRACE_SCENES[name]()))
    _assert_pinned(["trace", "--theta", theta, "--cap", str(cap)], True, scene_path,
                   LONG_TRACES[(name, theta, cap)], tmp_path, capsys)
