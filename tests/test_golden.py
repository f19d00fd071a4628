"""Byte-level regression gate for the CLI reports and SVGs.

Each case runs one command on a bundled scene and pins the SHA-256 of the
``--out`` JSON and, for the commands that draw one, of the ``--svg``.  A
refactor that is meant to keep behaviour must keep these digests; a change
that is meant to alter the output must update them deliberately.
"""

import hashlib
from pathlib import Path

import pytest

from darksector.cli import main

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
