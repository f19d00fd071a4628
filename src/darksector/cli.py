"""Command-line entry points and report emission.

Exit codes: 0 success, 1 internal failure, an output path that cannot be
written or a reflection group larger than ``--group-cap``, 2 invalid scene,
rejected option value or two file options naming one file, 3 parse error, 4
no dark sector certified (sectors command only).

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
import re
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
    _unique_fields,
    enclosing_circle,
    load_scene,
    scene_from_document,
    scene_to_document,
    validate_scene,
)
from .json_stream import write_json
from .svg_render import VIEWPORT_RADII, render_svg
from .tracer import DEFAULT_BOUNCE_CAP, TraceStatus, exit_ray, reflection_points, trace
from .unfolding import build_surface, write_census

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_SCENE = 2
EXIT_PARSE_ERROR = 3
EXIT_NO_SECTOR = 4

DEFAULT_DARKNESS_SAMPLES = 1000


class _Exit(Exception):
    """Ends the command with the exit code ``args[0]`` and the stderr text
    ``args[1]``."""


def _emit(out, path: str | None) -> None:
    """Write out to path, or to stdout when no path is given: a str as it
    is, a producer ``(write) -> None`` by passing it ``write``, and any
    other value as the report ``write_json`` streams.  The file appears at
    path only once complete; a path that cannot be written ends the command
    with exit 1 and leaves any file already there unchanged, and so does a
    stdout that cannot be written, such as a pipe closed early."""
    produce = (out if callable(out) else (lambda w: w(out)) if isinstance(out, str)
               else functools.partial(write_json, out))
    if path is None:
        try:
            produce(sys.stdout.write)
            sys.stdout.flush()
        except OSError as e:
            raise _Exit(EXIT_INTERNAL, f"error: cannot write stdout: {e.strerror or e}") from None
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
        tmp = None  # moved into place: nothing is left to remove
    except OSError as e:
        raise _Exit(EXIT_INTERNAL, f"error: cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# the options that name a file, in the order an error names two of them
_FILE_OPTIONS = ("--scene", "--report", "--out", "--svg")


def _distinct_files(args: argparse.Namespace) -> None:
    """End the command with exit 2 if two of its file options name one file.
    Files that exist are compared as ``os.path.samefile`` compares them, by
    device and inode; paths that name no file yet by ``os.path.realpath``."""
    seen = {}
    for option in _FILE_OPTIONS:
        path = getattr(args, option[2:], None)
        if path is None:
            continue
        try:
            st = os.stat(path)
            key = st.st_dev, st.st_ino
        except OSError:  # not there (yet)
            key = os.path.realpath(path)
        if key in seen:
            first, first_path = seen[key]
            raise _Exit(EXIT_INVALID_SCENE,
                        f"error: {first} and {option} name the same file: {first_path}")
        seen[key] = option, path


def _read_scene(path: str) -> Scene:
    try:
        with open(path, "rb") as f:
            return load_scene(f.read())
    except OSError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: cannot read scene file: {e}") from None
    except SceneFormatError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: {e}") from None


def _valid(scene: Scene) -> Scene:
    """scene, if it passes ``validate_scene``; otherwise the command ends
    with exit 2 and one line per violation."""
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


def _within_floats(circle: EnclosingCircle, radii: float) -> bool:
    """Whether points up to ``radii`` radii from circle's center, and their
    offsets from it, stay inside the float range."""
    return math.isfinite(2.0 * (max(map(abs, circle.center)) + radii * circle.radius))


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
    _emit(doc, args.out)
    return (EXIT_INVALID_SCENE if violations else EXIT_OK), None


def _cmd_trace(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _valid(_read_scene(args.scene))
    circle = _enclosing_circle(scene, args.margin)
    tr = trace(scene, args.theta, cap=args.cap)
    doc = {
        "scene": scene_to_document(scene),
        "circle": {"center": circle.center, "radius": circle.radius},
        "theta0": args.theta,
        "status": tr.status.value,
        "itinerary": tr.itinerary,
        "path": reflection_points(scene, args.theta, tr),
        "exit_point": tr.exit_point,
        "exit_dir": tr.exit_dir_numeric,
        "exit_dir_exact": tr.exit_dir_exact.to_dict(),
        "bounce_count": tr.bounce_count,
        "params": {"bounce_cap": args.cap},
    }
    if tr.stop_point is not None:
        doc["stop_point"] = tr.stop_point
    # drawn first: a viewport beyond the float range exits 2 before --out is written
    svg = _draw(scene, doc, args.margin) if args.svg else None
    _emit(doc, args.out)
    if svg is not None:
        _emit(svg, args.svg)
    return EXIT_OK, (f"trace: {tr.status.value}, {tr.bounce_count} bounce(s), exit direction "
                     f"{tr.exit_dir_numeric:.17g} rad (exact {tr.exit_dir_exact})")


def _cmd_map(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _valid(_read_scene(args.scene))
    circle = _enclosing_circle(scene, args.margin)
    d = decompose(scene, circle, seeds=args.samples, eps_b=args.eps_b, cap=args.cap)
    _emit(decomposition_report(d), args.out)
    return EXIT_OK, (f"map: {len(d.components)} component(s), escape measure "
                     f"{d.escape_measure:.17g} of {2 * math.pi:.17g}")


def _cmd_sectors(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _valid(_read_scene(args.scene))
    circle = _enclosing_circle(scene, args.margin)
    radii = sample_reach(args.eps_b)  # how far the darkness samples reach
    if not _within_floats(circle, radii):
        raise _Exit(EXIT_INVALID_SCENE, f"error: scene too large for sectors: with --eps-b "
                    f"{args.eps_b:g} the darkness samples lie up to {radii:.3g} radii (radius "
                    f"{circle.radius:.3g}) from the enclosing circle's center, beyond the "
                    "float range")
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
    _emit(doc, args.out)
    if args.svg:
        _emit(_draw(scene, doc, args.margin), args.svg)
    if not certified:
        return EXIT_NO_SECTOR, "sectors: no dark sector certified"
    return EXIT_OK, (f"sectors: certified {len(reports)} dark sector(s); exit-direction map "
                     f"{'injective' if injective else 'not injective'}")


def _cmd_unfold(args: argparse.Namespace) -> tuple[int, str | None]:
    scene = _valid(_read_scene(args.scene))
    try:
        surface = build_surface(scene, group_cap=args.group_cap)
    except GroupOrderError as e:
        raise _Exit(EXIT_INTERNAL, f"error: {e}") from None
    _emit(functools.partial(write_census, surface), args.out)
    sheets, genus = surface.sheet_count, surface.genus
    return EXIT_OK, (f"unfold: {sheets} sheet(s), {surface.slit_count * sheets} zero(s), "
                     f"{sheets} pole(s), genus {genus}, chi {2 - 2 * genus}")


def _points(value, where: str, count: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise SceneFormatError("expected a list of [x, y] pairs", where)
    return [_point(p, f"{where}[{j}]") for j, p in enumerate(value)]


def _direction(value, where: str) -> float:
    """A sector direction, in [0, 2*pi) as every report writes it."""
    theta = _number(value, where)
    if not 0.0 <= theta < 2 * math.pi:
        raise SceneFormatError("expected a direction in [0, 2*pi)", where)
    return theta


def _field(obj, key: str, where: str, parse):
    """``parse`` applied to ``obj[key]``; errors name the field ``where.key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise SceneFormatError("missing field", f"{where}.{key}")
    return parse(obj[key], f"{where}.{key}")


def _draw(scene: Scene, doc: dict, margin: float) -> str:
    """The SVG of scene with the circle, trace and dark sectors that the
    report ``doc`` carries; only a report with no circle gets the scene's
    enclosing circle at ``margin``.  Raises SceneFormatError naming the
    first malformed field; a viewport beyond the float range then ends the
    command with exit 2."""
    holder = doc.get("decomposition", doc)  # a sectors report's circle is its decomposition's
    if "circle" not in holder:
        circle = _enclosing_circle(scene, margin)
    else:
        circle_doc = holder["circle"]
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
            dir_lo=_field(rep, "dir_lo", f"sectors[{i}]", _direction),
            dir_hi=_field(rep, "dir_hi", f"sectors[{i}]", _direction),
            tangent_points=tuple(
                _field(rep, "tangent_points", f"sectors[{i}]", lambda v, w: _points(v, w, 2))
            ),
        )
        for i, rep in enumerate(sectors_doc)
    ]
    traces = [_report_trace(doc, circle)] if "path" in doc else []
    if not _within_floats(circle, VIEWPORT_RADII):
        raise _Exit(EXIT_INVALID_SCENE, f"error: the SVG viewport, {2 * VIEWPORT_RADII:g} radii "
                    f"wide around the enclosing circle (radius {circle.radius:.3g}), leaves the "
                    "float range")
    return render_svg(scene, circle, traces=traces, sectors=sectors)


def _report_trace(doc: dict, circle: EnclosingCircle) -> list:
    """The polyline that draws a trace report: its path, then the point
    where an escaped ray crosses ``circle`` or where a singular ray stopped."""
    points = _points(doc["path"], "path")
    if not points:  # every trace report's path starts at the source
        raise SceneFormatError("expected a list of [x, y] pairs, the source first", "path")
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
        _emit(_draw(_valid(_read_scene(args.scene)), {}, args.margin), args.svg)
        return EXIT_OK, None
    try:  # by the scene files' rule: a field given twice is an error
        with open(args.report, "rb") as f:
            doc = json.loads(f.read().decode("utf-8"), object_pairs_hook=_unique_fields)
    except (OSError, ValueError, RecursionError) as e:  # not UTF-8, not JSON, too deep
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
        svg = _draw(_valid(scene), doc, args.margin)
    except SceneFormatError as e:
        raise _Exit(EXIT_PARSE_ERROR, f"error: malformed report: {e}") from None
    _emit(svg, args.svg)
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


_nonempty_path = _checked(str, bool, "must not be empty")


_OPTIONS = {
    "--scene": dict(required=True, help="scene JSON file"),
    "--out": dict(type=_nonempty_path, help="output document path (default: stdout)"),
    "--svg": dict(type=_nonempty_path, help="also write an SVG rendering here"),
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
    "--svg": dict(type=_nonempty_path, help="write the SVG here (default: stdout)"),
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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # --help leaves through _emit, as reports do
        _emit(self.format_help(), None)


@functools.cache  # one parser per process, built on first use rather than at import
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        # any float text is a value: argparse's own pattern takes -1e-05 for an option
        p._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.I)
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
    try:
        args = _build_parser().parse_args(argv)
        _distinct_files(args)
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
