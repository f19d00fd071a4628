"""Per-layer tracing of darksector, done from outside the program.

``LayerTrace.install`` replaces public functions at the module attribute
where their caller looks them up (``darksector.circle_map.trace``,
``darksector.cli.decompose``, ...) with timing wrappers; ``uninstall`` puts
the originals back.  Coarse calls are kept as spans (name, start, end,
parent, job); the hot ones (``first_hit``, ``compose``, the arc operations,
``trace``) run up to ~10^6 times per pass and are only aggregated into count,
total time and self time.  A call's self time is its duration minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

SPAN, AGGREGATE, LEAF = "span", "aggregate", "leaf"

# (module, attribute, record name, kind, result hook name)
WRAPPED = (
    ("darksector.cli", "load_scene", "load_scene", SPAN, None),
    ("darksector.cli", "validate_scene", "validate_scene", SPAN, None),
    ("darksector.cli", "decompose", "decompose", SPAN, "decomposition"),
    ("darksector.cli", "is_injective", "is_injective", SPAN, None),
    ("darksector.cli", "unlit_arcs", "unlit_arcs", SPAN, None),
    ("darksector.cli", "decomposition_report", "decomposition_report", SPAN, None),
    ("darksector.cli", "select_dark_arc", "select_dark_arc", SPAN, None),
    ("darksector.cli", "build_sector", "build_sector", SPAN, None),
    ("darksector.cli", "verify_darkness", "verify_darkness", SPAN, "verification"),
    ("darksector.cli", "sector_report", "sector_report", SPAN, None),
    ("darksector.cli", "render_svg", "render_svg", SPAN, "svg"),
    ("darksector.cli", "build_surface", "build_surface", SPAN, "surface"),
    ("darksector.cli", "cone_cycles", "cone_cycles", SPAN, "cycles"),
    ("darksector.cli", "census", "census", SPAN, None),
    ("darksector.cli", "euler_check", "euler_check", SPAN, None),
    ("darksector.cli", "census_report", "census_report", SPAN, None),
    ("darksector.unfolding", "generate_group", "generate_group", SPAN, "group"),
    ("darksector.circle_map", "trace", "trace.circle_map", AGGREGATE, "trace"),
    ("darksector.dark_sector", "trace", "trace.dark_sector", AGGREGATE, "trace"),
    ("darksector.tracer", "first_hit", "first_hit", LEAF, None),
    ("darksector.tracer", "compose", "compose", LEAF, None),
    ("darksector.exact_angle", "compose", "compose", LEAF, None),
    ("darksector.unfolding", "compose", "compose", LEAF, None),
    # is_injective's pair loop is the only caller of this one
    ("darksector.circle_map", "arc_intersection_measure", "arcs.pair_test", LEAF, None),
    ("darksector.circle_map", "arc_difference", "arcs.other", LEAF, None),
    ("darksector.dark_sector", "arc_intersection_measure", "arcs.other", LEAF, None),
    ("darksector.dark_sector", "arc_contains_arc", "arcs.other", LEAF, None),
)

TRACE_CALLERS = ("trace.circle_map", "trace.dark_sector")


class LayerTrace:
    """Aggregated call records, result counters and spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # n, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list = []
        self.missing: list[str] = []
        self.job: str | None = None
        self._child_time = [0.0]  # one accumulator per open wrapped call
        self._open_spans: list = [None]
        self._patches: list = []
        self._hooks = {
            "trace": self._on_trace,
            "decomposition": self._on_decomposition,
            "verification": self._on_verification,
            "svg": lambda svg: self._add("svg_bytes", len(svg.encode("utf-8"))),
            "surface": lambda s: self._add("sheets", s.sheet_count),
            "cycles": lambda cycles: self._add("cycles", len(cycles)),
            "group": lambda g: self._add("group_order_sum", g.order),
        }

    def _add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def _on_trace(self, tr) -> None:
        self.counts["bounces"] += tr.bounce_count
        self.counts["status." + tr.status.value] += 1

    def _on_decomposition(self, d) -> None:
        self.counts["seed_traces"] += d.params.seeds
        self.counts["components"] += len(d.components)
        self.counts["trapped_arcs"] += len(d.trapped_arcs)

    def _on_verification(self, report) -> None:
        self.counts["certified"] += bool(report.passed)

    def wrap(self, fn, name: str, kind: str, hook=None):
        """A timing wrapper around fn that records under ``name``."""
        rec = self.calls[name]
        child_time = self._child_time
        perf = time.perf_counter

        if kind == LEAF:
            def leaf(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    child_time[-1] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt
            return leaf

        spans = self.spans if kind == SPAN else None
        open_spans = self._open_spans

        def wrapper(*args, **kwargs):
            if spans is not None:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(span_id)
            child_time.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner = child_time.pop()
                child_time[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if spans is not None:
                    open_spans.pop()
                    spans[span_id] = (name, t0, t1, parent, self.job)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, kind, hook in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, kind, self._hooks.get(hook)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


def layer_metrics(lt: LayerTrace, report_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by the names in
    BENCHMARK.json."""
    n = {k: v[0] for k, v in lt.calls.items()}
    total = {k: v[1] for k, v in lt.calls.items()}
    own = {k: v[2] for k, v in lt.calls.items()}
    c = lt.counts

    def get(d: dict, *names: str):
        return sum(d.get(k, 0) for k in names)

    traces = get(n, *TRACE_CALLERS)
    trace_s = get(total, *TRACE_CALLERS)
    bounces = c["bounces"]
    map_traces = n.get("trace.circle_map", 0)
    components = c["components"]
    arcs = ("arcs.pair_test", "arcs.other")
    return {
        "scene.load_s": get(total, "load_scene", "validate_scene"),
        "tracer.traces": traces,
        "tracer.bounces": bounces,
        "tracer.first_hit_calls": n.get("first_hit", 0),
        "tracer.escaped": c["status.escaped"],
        "tracer.trapped": c["status.bounce_cap_exceeded"],
        "tracer.singular": c["status.singular"],
        "tracer.trace_s": trace_s,
        "tracer.first_hit_s": total.get("first_hit", 0.0),
        "tracer.trace_self_s": get(own, *TRACE_CALLERS),
        "tracer.us_per_bounce": 1e6 * trace_s / bounces if bounces else 0.0,
        "tracer.us_per_trace": 1e6 * trace_s / traces if traces else 0.0,
        "exact_angle.compose_calls": n.get("compose", 0),
        "exact_angle.compose_s": total.get("compose", 0.0),
        "exact_angle.generate_group_s": total.get("generate_group", 0.0),
        "exact_angle.group_order_sum": c["group_order_sum"],
        "circle_map.decompose_s": total.get("decompose", 0.0),
        "circle_map.decompose_self_s": own.get("decompose", 0.0),
        "circle_map.seed_traces": c["seed_traces"],
        "circle_map.bisect_traces": map_traces - c["seed_traces"],
        "circle_map.components": components,
        "circle_map.trapped_arcs": c["trapped_arcs"],
        "circle_map.traces_per_component": map_traces / components if components else 0.0,
        "circle_map.is_injective_s": total.get("is_injective", 0.0),
        "circle_map.pair_tests": n.get("arcs.pair_test", 0),
        "circle_map.unlit_arcs_s": total.get("unlit_arcs", 0.0),
        "circle_map.report_s": total.get("decomposition_report", 0.0),
        "arcs.ops": get(n, *arcs),
        "arcs.s": get(total, *arcs),
        "dark_sector.verify_darkness_s": total.get("verify_darkness", 0.0),
        "dark_sector.verify_self_s": own.get("verify_darkness", 0.0),
        "dark_sector.verify_traces": n.get("trace.dark_sector", 0),
        "dark_sector.sectors": n.get("build_sector", 0),
        "dark_sector.certified": c["certified"],
        "unfolding.build_surface_s": total.get("build_surface", 0.0),
        "unfolding.cone_cycles_s": total.get("cone_cycles", 0.0),
        "unfolding.census_s": total.get("census", 0.0),
        "unfolding.euler_check_s": total.get("euler_check", 0.0),
        "unfolding.sheets": c["sheets"],
        "unfolding.cycles": c["cycles"],
        "svg_render.render_svg_s": total.get("render_svg", 0.0),
        "svg_render.bytes": c["svg_bytes"],
        "cli.self_s": own.get("job", 0.0),
        "cli.report_bytes": report_bytes,
    }
