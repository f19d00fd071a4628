"""Analysis of two-sided mirror configurations with rational-pi angles:
exact direction arithmetic, ray tracing, the escape-direction circle map,
dark-sector certificates, and the unfolded-surface census."""

from .arcs import Arc
from .circle_map import (
    Decomposition,
    decompose,
    decomposition_report,
    is_injective,
    unlit_arcs,
)
from .dark_sector import (
    DarkSector,
    build_sector,
    exit_probes,
    shrink_below_pi,
    verify_darkness,
)
from .exact_angle import (
    GroupElement,
    GroupOrderError,
    RationalTurn,
    apply,
    inverse,
    make_rational_turn,
    reflection_group,
)
from .scene import (
    EnclosingCircle,
    Mirror,
    Scene,
    SceneFormatError,
    enclosing_circle,
    endpoints,
    load_scene,
    save_scene,
    validate_scene,
)
from .tracer import TraceResult, TraceStatus, exit_ray, reflection_points, trace
from .unfolding import build_surface, total_dark_angle, write_census

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "DarkSector",
    "Decomposition",
    "EnclosingCircle",
    "GroupElement",
    "GroupOrderError",
    "Mirror",
    "RationalTurn",
    "Scene",
    "SceneFormatError",
    "TraceResult",
    "TraceStatus",
    "apply",
    "build_sector",
    "build_surface",
    "decompose",
    "decomposition_report",
    "enclosing_circle",
    "endpoints",
    "exit_probes",
    "exit_ray",
    "inverse",
    "is_injective",
    "load_scene",
    "make_rational_turn",
    "reflection_group",
    "reflection_points",
    "save_scene",
    "shrink_below_pi",
    "total_dark_angle",
    "trace",
    "unlit_arcs",
    "validate_scene",
    "verify_darkness",
    "write_census",
]
