"""Output checks for every benchmark job.

``check`` tests invariants that hold for any scene; ``summary`` extracts the
fields that are compared with the committed reference in reference.json:
exact fields exactly, arc endpoints within the job's eps_b.
"""

from __future__ import annotations

import hashlib
import json
import math

from bench_scenes import Job, closed_form_sheets

TWO_PI = 2.0 * math.pi
# float slack for sums and differences of angles in [0, 2*pi)
ANGLE_SLACK = 1e-9


def _sectors_problems(doc: dict, exit_code: int) -> list[str]:
    problems = []
    d = doc["decomposition"]
    comps = d["components"]
    starts = [c["arc"]["start"] for c in comps]
    if starts != sorted(starts):
        problems.append("components are not sorted by start")
    for i, c in enumerate(comps):
        if c["isometry"]["s"] != (-1) ** len(c["itinerary"]):
            problems.append(f"component {i}: s != (-1)^len(itinerary)")
        if len(comps) > 1:
            gap = (starts[(i + 1) % len(comps)] - starts[i]) % TWO_PI
            if c["arc"]["measure"] > gap + ANGLE_SLACK:
                problems.append(f"component {i} overlaps the next one")
    if d["escape_measure"] > TWO_PI + ANGLE_SLACK:
        problems.append(f"escape_measure {d['escape_measure']} exceeds 2*pi")
    if doc["certified"] != (exit_code == 0):
        problems.append(f"certified={doc['certified']} with exit code {exit_code}")
    return problems


def _unfold_problems(doc: dict, job: Job) -> list[str]:
    problems = []
    genus = doc["genus"]
    if doc["euler_characteristic"] != 2 - 2 * genus:
        problems.append("euler_characteristic != 2 - 2*genus")
    if doc["degree"] != 2 * genus - 2:
        problems.append("degree != 2*genus - 2")
    expected = closed_form_sheets(job.scene)
    if doc["sheet_count"] != expected:
        problems.append(f"sheet_count {doc['sheet_count']} != closed form {expected}")
    return problems


def check(job: Job, doc: dict, exit_code: int) -> list[str]:
    """Broken invariants of one job's report; empty when it is sound."""
    if job.command == "sectors":
        return _sectors_problems(doc, exit_code)
    return _unfold_problems(doc, job)


def summary(job: Job, doc: dict, exit_code: int) -> dict:
    """The fields of one report that the reference pins."""
    if job.command == "unfold":
        return {"exit": exit_code, "sheet_count": doc["sheet_count"],
                "genus": doc["genus"]}
    d = doc["decomposition"]
    exact = [[c["itinerary"], c["isometry"]] for c in d["components"]]
    return {
        "exit": exit_code,
        "components": len(d["components"]),
        "digest": hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16],
        "trapped": len(d["trapped_arcs"]),
        "unlit": len(doc["unlit_arcs"]),
        "certified": doc["certified"],
        "arcs": [[c["arc"]["start"], c["arc"]["end"]] for c in d["components"]],
    }


def _angle_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def compare(job: Job, got: dict, want: dict) -> list[str]:
    """Differences between a summary and its reference entry."""
    problems = [
        f"{key}: {got.get(key)!r} != reference {want[key]!r}"
        for key in want
        if key != "arcs" and got.get(key) != want[key]
    ]
    if "arcs" in want and not problems:
        for i, (g, w) in enumerate(zip(got["arcs"], want["arcs"])):
            if max(_angle_distance(g[0], w[0]), _angle_distance(g[1], w[1])) > job.eps_b:
                problems.append(f"component {i}: endpoints {g} differ from {w} by more than eps_b")
                break
    return problems
