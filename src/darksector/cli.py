"""Command-line entry points and report emission.

Exit codes: 0 success, 1 internal failure, 2 invalid scene or rejected
option value, 3 parse error, 4 no dark sector certified (sectors command
only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .circle_map import (
    DEFAULT_EPS_B,
    DEFAULT_SEEDS,
    Decomposition,
    decompose,
    decomposition_report,
    is_injective,
    unlit_arcs,
)
from .dark_sector import (
    build_sector,
    sector_report,
    select_dark_arc,
    verify_darkness,
)
from .exact_angle import DEFAULT_GROUP_CAP, GroupOrderError
from .scene import (
    DEFAULT_CIRCLE_MARGIN,
    EnclosingCircle,
    Scene,
    SceneFormatError,
    enclosing_circle,
    load_scene,
    scene_from_document,
    scene_to_document,
    validate_scene,
)
from .svg_render import render_svg
from .tracer import DEFAULT_BOUNCE_CAP, TraceStatus, exit_ray, trace
from .unfolding import (
    CensusError,
    build_surface,
    census,
    census_report,
    cone_cycles,
    euler_check,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_SCENE = 2
EXIT_PARSE_ERROR = 3
EXIT_NO_SECTOR = 4

DEFAULT_DARKNESS_SAMPLES = 1000


@dataclass
class RunConfig:
    command: str
    scene_path: str | None = None
    report_path: str | None = None
    out_path: str | None = None
    svg_path: str | None = None
    theta: float | None = None
    seeds: int = DEFAULT_SEEDS
    eps_b: float = DEFAULT_EPS_B
    cap: int = DEFAULT_BOUNCE_CAP
    darkness_samples: int = DEFAULT_DARKNESS_SAMPLES
    seed: int = 0
    margin: float = DEFAULT_CIRCLE_MARGIN
    group_cap: int = DEFAULT_GROUP_CAP


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".darksector-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_doc(doc: dict, out_path: str | None) -> None:
    data = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if out_path:
        _write_atomic(out_path, data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _emit_svg(svg: str, svg_path: str) -> None:
    _write_atomic(svg_path, svg.encode("utf-8"))


def _load_valid_scene(config: RunConfig) -> "tuple[Scene, int | None]":
    """Load and validate the scene; returns (scene, error_exit) where a
    non-None exit code means the caller should stop."""
    try:
        with open(config.scene_path, "rb") as f:
            scene = load_scene(f.read())
    except OSError as e:
        print(f"error: cannot read scene file: {e}", file=sys.stderr)
        return None, EXIT_PARSE_ERROR
    except SceneFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, EXIT_PARSE_ERROR
    violations = validate_scene(scene)
    if violations:
        for v in violations:
            print(f"invalid scene: [{v.code}] {v.detail}", file=sys.stderr)
        return scene, EXIT_INVALID_SCENE
    return scene, None


def _angle_str(x: float) -> str:
    return f"{x:.17g} rad"


def run(config: RunConfig) -> int:
    handler = {
        "validate": _cmd_validate,
        "trace": _cmd_trace,
        "map": _cmd_map,
        "sectors": _cmd_sectors,
        "unfold": _cmd_unfold,
        "render": _cmd_render,
    }[config.command]
    return handler(config)


def _cmd_validate(config: RunConfig) -> int:
    try:
        with open(config.scene_path, "rb") as f:
            scene = load_scene(f.read())
    except (OSError, SceneFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    violations = validate_scene(scene)
    doc = {
        "scene": scene_to_document(scene),
        "valid": not violations,
        "violations": [
            {"code": v.code, "detail": v.detail, "mirrors": list(v.mirrors)}
            for v in violations
        ],
    }
    _emit_doc(doc, config.out_path)
    return EXIT_OK if not violations else EXIT_INVALID_SCENE


def _cmd_trace(config: RunConfig) -> int:
    scene, err = _load_valid_scene(config)
    if err is not None:
        return err
    circle = enclosing_circle(scene, margin=config.margin)
    tr = trace(scene, config.theta, cap=config.cap)
    doc = {
        "scene": scene_to_document(scene),
        "circle": {"center": list(circle.center), "radius": circle.radius},
        "theta0": config.theta,
        "status": tr.status.value,
        "itinerary": [[k, side] for k, side in tr.itinerary],
        "path": [[p[0], p[1]] for p in tr.path],
        "exit_point": [tr.exit_point[0], tr.exit_point[1]],
        "exit_dir": tr.exit_dir_numeric,
        "exit_dir_exact": {
            "s": tr.exit_dir_exact.s,
            "c_num": tr.exit_dir_exact.c.num,
            "c_den": tr.exit_dir_exact.c.den,
        },
        "bounce_count": tr.bounce_count,
        "params": {"bounce_cap": config.cap},
    }
    if tr.stop_point is not None:
        doc["stop_point"] = [tr.stop_point[0], tr.stop_point[1]]
    _emit_doc(doc, config.out_path)
    if config.svg_path:
        points = list(tr.path)
        if tr.status is TraceStatus.ESCAPED:
            points.append(exit_ray(tr, circle)[0])
        elif tr.stop_point is not None:
            points.append(tr.stop_point)
        svg = render_svg(scene, circle, traces=[(points, 0)])
        _emit_svg(svg, config.svg_path)
    print(
        f"trace: {tr.status.value}, {tr.bounce_count} bounce(s), "
        f"exit direction {_angle_str(tr.exit_dir_numeric)} "
        f"(exact {tr.exit_dir_exact})",
        file=sys.stderr,
    )
    return EXIT_OK


def _decompose_for(config: RunConfig, scene: Scene) -> "tuple[Decomposition, EnclosingCircle]":
    circle = enclosing_circle(scene, margin=config.margin)
    d = decompose(
        scene, circle, seeds=config.seeds, eps_b=config.eps_b, cap=config.cap
    )
    return d, circle


def _cmd_map(config: RunConfig) -> int:
    scene, err = _load_valid_scene(config)
    if err is not None:
        return err
    d, _ = _decompose_for(config, scene)
    _emit_doc(decomposition_report(d), config.out_path)
    print(
        f"map: {len(d.components)} component(s), escape measure "
        f"{d.escape_measure:.17g} of {2 * math.pi:.17g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sectors(config: RunConfig) -> int:
    scene, err = _load_valid_scene(config)
    if err is not None:
        return err
    d, circle = _decompose_for(config, scene)
    injective, witness = is_injective(d)
    unlit = unlit_arcs(d)

    sectors = []
    reports = []
    certified = False
    for i, arc in enumerate(unlit):
        dark = select_dark_arc([arc])
        sector = build_sector(dark, circle)
        verification = verify_darkness(
            sector, d, circle, config.darkness_samples, seed=config.seed + i
        )
        sectors.append(sector)
        reports.append(sector_report(sector, dark, verification))
        certified = certified or verification.passed

    selected = select_dark_arc(unlit)
    selected_index = None
    if selected is not None:
        for i, arc in enumerate(unlit):
            if arc == selected.source_arc:
                selected_index = i
                break

    doc = {
        "decomposition": decomposition_report(d),
        "seed": config.seed,
        "injective": injective,
        "witness": list(witness) if witness is not None else None,
        "unlit_arcs": [
            {"start": a.start, "end": a.end, "measure": a.measure} for a in unlit
        ],
        "sectors": reports,
        "selected_sector_index": selected_index,
        "certified": certified,
    }
    _emit_doc(doc, config.out_path)
    if config.svg_path:
        svg = render_svg(scene, circle, sectors=sectors)
        _emit_svg(svg, config.svg_path)
    if certified:
        n = len(reports)
        print(
            f"sectors: certified {n} dark sector(s); exit-direction map "
            f"{'injective' if injective else 'not injective'}",
            file=sys.stderr,
        )
        return EXIT_OK
    print("sectors: no dark sector certified", file=sys.stderr)
    return EXIT_NO_SECTOR


def _cmd_unfold(config: RunConfig) -> int:
    scene, err = _load_valid_scene(config)
    if err is not None:
        return err
    try:
        surface = build_surface(scene, group_cap=config.group_cap)
        cycles = cone_cycles(surface)
        c = census(surface, cycles)
        chi = euler_check(surface, cycles)
    except (GroupOrderError, CensusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit_doc(census_report(surface, cycles, c, chi), config.out_path)
    print(
        f"unfold: {c.sheet_count} sheet(s), {len(c.zeros)} zero(s), "
        f"{len(c.poles)} pole(s), genus {c.genus}, chi {chi}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_render(config: RunConfig) -> int:
    if config.report_path:
        try:
            with open(config.report_path, "rb") as f:
                doc = json.loads(f.read().decode("utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read report: {e}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        try:
            scene_doc = doc.get("decomposition", doc).get("scene", doc.get("scene"))
            scene = scene_from_document(scene_doc)
        except (AttributeError, SceneFormatError) as e:
            print(f"error: report carries no usable scene: {e}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        circle = enclosing_circle(scene, margin=config.margin)
        circle_doc = doc.get("decomposition", doc).get("circle")
        if circle_doc:
            circle = EnclosingCircle(
                (circle_doc["center"][0], circle_doc["center"][1]),
                circle_doc["radius"],
            )
        sectors = []
        for rep in doc.get("sectors", []):
            from .dark_sector import DarkSector

            sectors.append(
                DarkSector(
                    apex=(rep["apex"][0], rep["apex"][1]),
                    dir_lo=rep["dir_lo"],
                    dir_hi=rep["dir_hi"],
                    tangent_points=(
                        (rep["tangent_points"][0][0], rep["tangent_points"][0][1]),
                        (rep["tangent_points"][1][0], rep["tangent_points"][1][1]),
                    ),
                    circle=circle,
                )
            )
        traces = []
        if "path" in doc:
            traces.append(([(p[0], p[1]) for p in doc["path"]], 0))
        svg = render_svg(scene, circle, traces=traces, sectors=sectors)
    else:
        scene, err = _load_valid_scene(config)
        if err is not None:
            return err
        circle = enclosing_circle(scene, margin=config.margin)
        svg = render_svg(scene, circle)
    if config.svg_path:
        _emit_svg(svg, config.svg_path)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


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

    def add_common(p: argparse.ArgumentParser, scene_required: bool = True) -> None:
        p.add_argument("--scene", required=scene_required, help="scene JSON file")
        p.add_argument("--out", help="output document path (default: stdout)")
        p.add_argument("--svg", help="also write an SVG rendering here")
        p.add_argument("--samples", type=int, default=DEFAULT_SEEDS,
                       help="seed directions for the circle-map decomposition")
        p.add_argument("--eps-b", type=float, default=DEFAULT_EPS_B,
                       help="bisection tolerance for itinerary boundaries (rad)")
        p.add_argument("--cap", type=int, default=DEFAULT_BOUNCE_CAP,
                       help="bounce cap per trace")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized verification sampling")
        p.add_argument("--margin", type=float, default=DEFAULT_CIRCLE_MARGIN,
                       help="enclosing-circle radius margin")

    p = sub.add_parser("validate", help="check scene invariants")
    add_common(p)

    p = sub.add_parser("trace", help="trace one ray")
    add_common(p)
    p.add_argument("--theta", type=float, required=True,
                   help="launch direction in radians")

    p = sub.add_parser("map", help="decompose the escape-direction circle map")
    add_common(p)

    p = sub.add_parser("sectors", help="full pipeline: map, unlit arcs, sectors, verification")
    add_common(p)
    p.add_argument("--darkness-samples", type=int, default=DEFAULT_DARKNESS_SAMPLES,
                   help="sample points per sector verification")

    p = sub.add_parser("unfold", help="unfolded-surface census")
    add_common(p)
    p.add_argument("--group-cap", type=int, default=DEFAULT_GROUP_CAP,
                   help="abort if the reflection group exceeds this order")

    p = sub.add_parser("render", help="render a scene or a saved report to SVG")
    add_common(p, scene_required=False)
    p.add_argument("--report", help="saved report JSON to render instead of a scene")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        command=args.command,
        scene_path=getattr(args, "scene", None),
        report_path=getattr(args, "report", None),
        out_path=args.out,
        svg_path=args.svg,
        theta=getattr(args, "theta", None),
        seeds=args.samples,
        eps_b=args.eps_b,
        cap=args.cap,
        darkness_samples=getattr(args, "darkness_samples", DEFAULT_DARKNESS_SAMPLES),
        seed=args.seed,
        margin=args.margin,
        group_cap=getattr(args, "group_cap", DEFAULT_GROUP_CAP),
    )
    if config.theta is not None and not math.isfinite(config.theta):
        raise ValueError("--theta must be finite")
    if config.seeds < 8:
        raise ValueError("--samples must be >= 8")
    if config.cap < 1:
        raise ValueError("--cap must be >= 1")
    if not 0.0 < config.eps_b <= 1e-3:
        raise ValueError("--eps-b must be in (0, 1e-3]")
    if not config.margin > 1.0:
        raise ValueError("--margin must be > 1")
    if config.darkness_samples < 0:
        raise ValueError("--darkness-samples must be >= 0")
    if config.command == "render" and not (config.scene_path or config.report_path):
        raise ValueError("render needs --scene or --report")
    return config


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as e:
        parser.error(str(e))
    try:
        return run(config)
    except Exception as e:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
