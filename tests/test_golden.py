"""Byte-level regression gate for the CLI reports and SVGs.

Each case runs one command on a scene and pins the SHA-256 of the ``--out``
JSON and, for the commands that draw one, of the ``--svg``.  A refactor that
is meant to keep behaviour must keep these digests; a change that is meant to
alter the output must update them deliberately.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import make_parallel_scene, make_six_mirror_trap_scene
from darksector.cli import main
from darksector.scene import save_scene

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scene,command", sorted(GOLDEN))
def test_report_bytes_are_pinned(scene, command, tmp_path):
    args, draws_svg = COMMANDS[command]
    out = tmp_path / "report.json"
    svg = tmp_path / "render.svg"
    argv = [*args, "--scene", str(SCENES / f"{scene}.json"), "--out", str(out)]
    if draws_svg:
        argv += ["--svg", str(svg)]
    assert main(argv) == 0
    want_out, want_svg = GOLDEN[(scene, command)]
    assert _sha256(out) == want_out
    if want_svg is not None:
        assert _sha256(svg) == want_svg


# Multi-bounce scenes whose traces run to the bounce cap.  The channel run is
# injective with 242 components and no unlit arc (exit 4); the six-mirror run
# is not injective and certifies 11 unlit arcs (exit 0).
# name -> (scene, sectors options, exit code, sha256 of --out, sha256 of --svg)
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


@pytest.mark.parametrize("name", sorted(TRAPPED))
def test_trapped_scene_sectors_bytes_are_pinned(name, tmp_path):
    make_scene, options, code, want_out, want_svg = TRAPPED[name]
    scene_path = tmp_path / "scene.json"
    scene_path.write_bytes(save_scene(make_scene()))
    out = tmp_path / "report.json"
    svg = tmp_path / "render.svg"
    argv = ["sectors", "--seed", "0", "--scene", str(scene_path), *options,
            "--out", str(out), "--svg", str(svg)]
    assert main(argv) == code
    assert _sha256(out) == want_out
    assert _sha256(svg) == want_svg
