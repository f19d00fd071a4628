"""Command-line entry points and report emission.

Exit codes: 0 success, 1 internal failure, an output path that cannot be
written or a reflection group larger than ``--group-cap``, 2 invalid scene or
rejected option value, 3 parse error, 4 no dark sector certified (sectors
command only).

A run writes at most one block to stderr, and only ``main`` writes it: the
summary a finished command returns with its exit code, or the message of the
``_Exit`` that ended it.  ``validate`` and ``render`` write none on success.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

from .circle_map import (
    DEFAULT_EPS_B,
    DEFAULT_SEEDS,
    decompose,
    decomposition_report,
    is_injective,
    unlit_arcs,
)
from .dark_sector import (
    DarkSector,
    build_sector,
    exit_probes,
    sample_reach,
    sector_report,
    shrink_below_pi,
    verify_darkness,
)
from .exact_angle import DEFAULT_GROUP_CAP, GroupOrderError
from .scene import (
    DEFAULT_CIRCLE_MARGIN,
    EnclosingCircle,
    Scene,
    SceneFormatError,
    _number,
    _point,
    enclosing_circle,
    load_scene,
    scene_from_document,
    scene_to_document,
    validate_scene,
)
from .json_stream import write_json
from .svg_render import VIEWPORT_RADII, render_svg
from .tracer import DEFAULT_BOUNCE_CAP, TraceStatus, exit_ray, trace
from .unfolding import build_surface, census_report, cone_cycles

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_SCENE = 2
EXIT_PARSE_ERROR = 3
EXIT_NO_SECTOR = 4

DEFAULT_DARKNESS_SAMPLES = 1000


class _Exit(Exception):
    """Ends the command with the exit code ``args[0]`` and the stderr text
    ``args[1]``."""


def _emit(produce, path: str | None) -> None:
    """Call ``produce(write)``, with ``write`` taking text chunks for path,
    or for stdout when no path is given.  The file appears at path only
    once complete; a path that cannot be written ends the command with
    exit 1 and leaves any file already there unchanged."""
    if not path:
        produce(sys.stdout.write)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".darksector-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            produce(f.write)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as e:
        raise _Exit(EXIT_INTERNAL, f"error: cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit_doc(doc: dict, path: str | None) -> None:
    """Write doc as ``json.dumps(doc, indent=2)`` would, plus a newline."""
    _emit(lambda write: write_json(doc, write), path)


def _emit_svg(svg: str, path: str | None) -> None:
    _emit(lambda write: write(svg), path)


def _read_scene(path: str) -> Scene:
    try:
        with open(path, "rb") as f:
            return load_scene(f.read())
    except OSError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: cannot read scene file: {e}") from None
    except SceneFormatError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: {e}") from None


def _load_valid_scene(path: str) -> Scene:
    scene = _read_scene(path)
    violations = validate_scene(scene)
    if violations:
        raise _Exit(EXIT_INVALID_SCENE, "\n".join(
            f"invalid scene: [{v.code}] {v.detail}" for v in violations))
    return scene


def _enclosing_circle(scene: Scene, margin: float) -> EnclosingCircle:
    """The scene's enclosing circle; a margin that overflows its radius
    ends the command with exit 2."""
    circle = enclosing_circle(scene, margin=margin)
    if not math.isfinite(circle.radius):
        raise _Exit(EXIT_INVALID_SCENE, f"error: --margin {margin} makes the enclosing circle's "
                    "radius overflow the float range")
    return circle


def _drawable(circle: EnclosingCircle) -> EnclosingCircle:
    """circle, if the SVG viewport around it stays inside the float range;
    otherwise the command ends with exit 2."""
    if not math.isfinite(2.0 * (max(map(abs, circle.center)) + VIEWPORT_RADII * circle.radius)):
        raise _Exit(EXIT_INVALID_SCENE, f"error: the SVG viewport, {2 * VIEWPORT_RADII:g} radii "
                    f"wide around the enclosing circle (radius {circle.radius:.3g}), leaves the "
                    "float range")
    return circle


def _cmd_validate(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _read_scene(args.scene)
    violations = validate_scene(scene)
    doc = {
        "scene": scene_to_document(scene),
        "valid": not violations,
        "violations": [
            {"code": v.code, "detail": v.detail, "mirrors": v.mirrors}
            for v in violations
        ],
    }
    _emit_doc(doc, args.out)
    return (EXIT_INVALID_SCENE if violations else EXIT_OK), None


def _cmd_trace(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _load_valid_scene(args.scene)
    circle = _enclosing_circle(scene, args.margin)
    tr = trace(scene, args.theta, cap=args.cap)
    doc = {
        "scene": scene_to_document(scene),
        "circle": {"center": circle.center, "radius": circle.radius},
        "theta0": args.theta,
        "status": tr.status.value,
        "itinerary": tr.itinerary,
        "path": tr.path,
        "exit_point": tr.exit_point,
        "exit_dir": tr.exit_dir_numeric,
        "exit_dir_exact": tr.exit_dir_exact.to_dict(),
        "bounce_count": tr.bounce_count,
        "params": {"bounce_cap": args.cap},
    }
    if tr.stop_point is not None:
        doc["stop_point"] = tr.stop_point
    # drawn first: a viewport beyond the float range exits 2 before --out is written
    svg = _draw(scene, doc, circle) if args.svg else None
    _emit_doc(doc, args.out)
    if svg is not None:
        _emit_svg(svg, args.svg)
    return EXIT_OK, (f"trace: {tr.status.value}, {tr.bounce_count} bounce(s), exit direction "
                     f"{tr.exit_dir_numeric:.17g} rad (exact {tr.exit_dir_exact})")


def _sector_circle(scene: Scene, args: argparse.Namespace) -> EnclosingCircle:
    """The scene's enclosing circle; a circle so large that the darkness
    samples of its sectors could leave the float range ends the command
    with exit 2."""
    circle = _enclosing_circle(scene, args.margin)
    radii = sample_reach(args.eps_b)
    # the samples' coordinates, and their offsets from the center, stay finite
    if not math.isfinite(2.0 * (max(map(abs, circle.center)) + radii * circle.radius)):
        raise _Exit(EXIT_INVALID_SCENE, f"error: scene too large for sectors: with --eps-b "
                    f"{args.eps_b:g} the darkness samples lie up to {radii:.3g} radii (radius "
                    f"{circle.radius:.3g}) from the enclosing circle's center, beyond the "
                    "float range")
    return circle


def _cmd_map(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _load_valid_scene(args.scene)
    circle = _enclosing_circle(scene, args.margin)
    d = decompose(scene, circle, seeds=args.samples, eps_b=args.eps_b, cap=args.cap)
    _emit_doc(decomposition_report(d), args.out)
    return EXIT_OK, (f"map: {len(d.components)} component(s), escape measure "
                     f"{d.escape_measure:.17g} of {2 * math.pi:.17g}")


def _cmd_sectors(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _load_valid_scene(args.scene)
    circle = _sector_circle(scene, args)
    d = decompose(scene, circle, seeds=args.samples, eps_b=args.eps_b, cap=args.cap)
    injective, witness = is_injective(d)
    unlit = unlit_arcs(d)
    probes = exit_probes(d) if unlit else []

    reports = []
    certified = False
    for i, arc in enumerate(unlit):
        sector = build_sector(shrink_below_pi(arc), d.circle)
        verification = verify_darkness(
            sector, d, args.darkness_samples, probes, seed=args.seed + i
        )
        reports.append(sector_report(sector, arc, verification))
        certified = certified or verification.passed

    doc = {
        "decomposition": decomposition_report(d),
        "seed": args.seed,
        "injective": injective,
        "witness": witness,
        "unlit_arcs": [a.to_dict() for a in unlit],
        "sectors": reports,
        # the widest unlit arc, the first one on a tie
        "selected_sector_index": (
            max(range(len(unlit)), key=lambda i: unlit[i].measure) if unlit else None
        ),
        "certified": certified,
    }
    _emit_doc(doc, args.out)
    if args.svg:
        _emit_svg(_draw(scene, doc, d.circle), args.svg)
    if not certified:
        return EXIT_NO_SECTOR, "sectors: no dark sector certified"
    return EXIT_OK, (f"sectors: certified {len(reports)} dark sector(s); exit-direction map "
                     f"{'injective' if injective else 'not injective'}")


def _cmd_unfold(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _load_valid_scene(args.scene)
    try:
        surface = build_surface(scene, group_cap=args.group_cap)
    except GroupOrderError as e:
        raise _Exit(EXIT_INTERNAL, f"error: {e}") from None
    doc = census_report(surface, cone_cycles(surface))
    _emit_doc(doc, args.out)
    return EXIT_OK, (f"unfold: {doc['sheet_count']} sheet(s), {len(doc['zeros'])} zero(s), "
                     f"{len(doc['poles'])} pole(s), genus {doc['genus']}, "
                     f"chi {doc['euler_characteristic']}")


def _points(value, where: str, count: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise SceneFormatError("expected a list of [x, y] pairs", where)
    return [_point(p, f"{where}[{j}]") for j, p in enumerate(value)]


def _field(obj, key: str, where: str, parse):
    """``parse`` applied to ``obj[key]``; errors name the field ``where.key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise SceneFormatError("missing field", f"{where}.{key}")
    return parse(obj[key], f"{where}.{key}")


def _draw(scene: Scene, doc: dict, circle: EnclosingCircle) -> str:
    """The SVG of scene with the circle, trace and dark sectors that the
    report ``doc`` carries, ``circle`` standing in for a circle it does not
    carry.  Raises SceneFormatError naming the first malformed field; a
    viewport beyond the float range then ends the command with exit 2."""
    circle_doc = doc.get("decomposition", doc).get("circle")
    if circle_doc:
        circle = EnclosingCircle(
            _field(circle_doc, "center", "circle", _point),
            _field(circle_doc, "radius", "circle", _number),
        )
        if circle.radius <= 0.0:
            raise SceneFormatError("expected a positive number", "circle.radius")
    sectors_doc = doc.get("sectors", [])
    if not isinstance(sectors_doc, list):
        raise SceneFormatError("expected a list", "sectors")
    sectors = [
        DarkSector(
            apex=_field(rep, "apex", f"sectors[{i}]", _point),
            dir_lo=_field(rep, "dir_lo", f"sectors[{i}]", _number),
            dir_hi=_field(rep, "dir_hi", f"sectors[{i}]", _number),
            tangent_points=tuple(
                _field(rep, "tangent_points", f"sectors[{i}]", lambda v, w: _points(v, w, 2))
            ),
        )
        for i, rep in enumerate(sectors_doc)
    ]
    traces = [_report_trace(doc, circle)] if "path" in doc else []
    return render_svg(scene, _drawable(circle), traces=traces, sectors=sectors)


def _report_trace(doc: dict, circle: EnclosingCircle) -> list:
    """The polyline that draws a trace report: its path, then the point
    where an escaped ray crosses ``circle`` or where a singular ray stopped."""
    points = _points(doc["path"], "path")
    try:
        status = TraceStatus(doc.get("status"))
    except ValueError:
        raise SceneFormatError("expected a trace status", "status") from None
    exit_point = _point(doc.get("exit_point"), "exit_point")
    exit_dir = _number(doc.get("exit_dir"), "exit_dir")
    stop = doc.get("stop_point")
    stop = None if stop is None else _point(stop, "stop_point")
    if status is TraceStatus.ESCAPED:
        try:
            stop = exit_ray(exit_point, exit_dir, circle)
        except ValueError as e:  # an exit point outside the report's circle
            raise SceneFormatError(str(e), "exit_point") from None
    return points if stop is None else [*points, stop]


def _cmd_render(args: argparse.Namespace) -> tuple[int, str | None]:
    if args.report is None:
        scene = _load_valid_scene(args.scene)
        _emit_svg(_draw(scene, {}, _enclosing_circle(scene, args.margin)), args.svg)
        return EXIT_OK, None
    try:
        with open(args.report, "rb") as f:
            doc = json.loads(f.read().decode("utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
        raise _Exit(EXIT_PARSE_ERROR, f"error: cannot read report: {e}") from None
    try:
        if not isinstance(doc, dict):
            raise SceneFormatError("expected a JSON object", "report")
        source = doc.get("decomposition", doc)  # the part that carries scene and circle
        if not isinstance(source, dict):
            raise SceneFormatError("expected an object", "decomposition")
        try:
            scene = scene_from_document(source.get("scene", doc.get("scene")))
        except SceneFormatError as e:
            raise _Exit(EXIT_PARSE_ERROR, f"error: report carries no usable scene: {e}") from None
        svg = _draw(scene, doc, _enclosing_circle(scene, args.margin))
    except SceneFormatError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: malformed report: {e}") from None
    _emit_svg(svg, args.svg)
    return EXIT_OK, None


def _checked(convert, ok, message: str):
    """An argparse ``type=`` that converts the text with ``convert`` and
    rejects a value failing ``ok`` with ``message``."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    check.__name__ = convert.__name__  # argparse: "invalid int value: ..."
    return check


def _at_least(low: int):
    return _checked(int, lambda n: n >= low, f"must be >= {low}")


_OPTIONS = {
    "--scene": dict(required=True, help="scene JSON file"),
    "--out": dict(help="output document path (default: stdout)"),
    "--svg": dict(help="also write an SVG rendering here"),
    "--theta": dict(type=_checked(float, math.isfinite, "must be finite"), required=True,
                    help="launch direction in radians"),
    "--samples": dict(type=_at_least(8), default=DEFAULT_SEEDS,
                      help="seed directions for the circle-map decomposition"),
    "--eps-b": dict(type=_checked(float, lambda e: 0.0 < e <= 1e-3, "must be in (0, 1e-3]"),
                    default=DEFAULT_EPS_B,
                    help="bisection tolerance for itinerary boundaries (rad)"),
    "--cap": dict(type=_at_least(1), default=DEFAULT_BOUNCE_CAP, help="bounce cap per trace"),
    "--margin": dict(type=_checked(float, lambda m: m > 1.0, "must be > 1"),
                     default=DEFAULT_CIRCLE_MARGIN, help="enclosing-circle radius margin"),
    "--seed": dict(type=int, default=0, help="seed for randomized verification sampling"),
    "--darkness-samples": dict(type=_at_least(0), default=DEFAULT_DARKNESS_SAMPLES,
                               help="sample points per sector verification"),
    # 2 is the order of the smallest reflection group, that of one mirror
    "--group-cap": dict(type=_at_least(2), default=DEFAULT_GROUP_CAP,
                        help="abort if the reflection group exceeds this order"),
    "--report": dict(help="saved report JSON to render instead of a scene"),
}

# render reads a scene or a saved report and writes to --svg or stdout
_RENDER_OPTIONS = {
    **_OPTIONS,
    "--scene": dict(help="scene JSON file"),
    "--svg": dict(help="write the SVG here (default: stdout)"),
}

_MAP_OPTIONS = ("--scene", "--out", "--samples", "--eps-b", "--cap", "--margin")

# (command, handler, help, the options its handler reads); a tuple of
# options is a required group of which exactly one is given
_COMMANDS = (
    ("validate", _cmd_validate, "check scene invariants", ("--scene", "--out")),
    ("trace", _cmd_trace, "trace one ray",
     ("--scene", "--theta", "--out", "--svg", "--cap", "--margin")),
    ("map", _cmd_map, "decompose the escape-direction circle map", _MAP_OPTIONS),
    ("sectors", _cmd_sectors, "full pipeline: map, unlit arcs, sectors, verification",
     _MAP_OPTIONS + ("--svg", "--seed", "--darkness-samples")),
    ("unfold", _cmd_unfold, "unfolded-surface census",
     ("--scene", "--out", "--group-cap")),
    ("render", _cmd_render, "render a scene or a saved report to SVG",
     (("--scene", "--report"), "--svg", "--margin")),
)


@functools.cache  # one parser per process, built on first use rather than at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darksector",
        description=(
            "Analyze two-sided mirror configurations with rational-pi angles: "
            "trace rays, decompose the escape-direction circle map, certify "
            "unilluminated infinite sectors, and census the unfolded surface."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _COMMANDS:
        specs = _RENDER_OPTIONS if name == "render" else _OPTIONS
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for option in options:
            if isinstance(option, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in option:
                    group.add_argument(member, **specs[member])
            else:
                p.add_argument(option, **specs[option])
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, message = args.handler(args)
    except _Exit as e:
        code, message = e.args
    except Exception as e:  # pragma: no cover - defensive catch-all
        code, message = EXIT_INTERNAL, f"internal error: {type(e).__name__}: {e}"
    if message is not None:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
