"""Byte parity of the darksector CLI between two source trees.

    python3 tools/parity.py --against REF [--seeds 1 5] [--tiny]

checks REF out with ``git worktree add --detach`` into a temporary
directory, runs every job of the benchmark workloads (``trapped``,
``random_sectors`` and ``unfold_census``, at each seed) in REF's tree and in
this one, and compares, job by job, the exit code, the whole stderr text and
the SHA-256 of the stdout, of the ``--out`` report and of the ``--svg``.  The
worktree is removed afterwards.

After the workload jobs comes one group that does not depend on the seed:
the commands no workload runs (``validate``, ``trace``, ``map`` and
``render`` of a scene and of its trace, map and validate reports) on
``scenes/*.json``, ``tests/scenes/*.json`` and the two ``trapped`` scenes,
one ``sectors`` job on ``scenes/single_mirror.json`` moved 10**6 along x,
the one job whose sector misses darkness check (i)'s tangent lemma and so
samples, and one ``validate`` job on ``scenes/two_perpendicular.json`` with
its second mirror moved across the first, the one invalid scene, whose
``mirrors-intersect`` violation names its two mirrors as a pair.
``trace`` runs at the escaping direction with the most bounces, at that
direction plus 2*pi, plus 2*pi*10**6 and minus 6*pi, at -0.0, at the
direction with the most bounces stopped by its ``--cap``, and at the first
mirror's anchor.  Last come the jobs that write to stdout: ``map``,
``unfold`` and ``render --scene`` of each of those scenes with no ``--out``
or ``--svg``, then ``--help`` of each command.

Each job's scene is written once, by ``perfbench/bench_scenes.setup`` of this
tree, and both trees read the same file.  Each tree runs all its jobs
through ``darksector.cli.main`` in one fresh process that imports only that
tree's ``src/``.  On a difference the tool prints the first differing job,
both stderr texts and a diff of the two reports, and exits 1; otherwise it
prints one summary line and exits 0.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trapped", "random_sectors", "unfold_census")
# lines of a report shown around its first difference
DIFF_WINDOW = 40
# the command group: launch directions tried per scene, and the bounce cap
# of those tries, of its map jobs and of its escaping and tip traces
COMMAND_DIRECTIONS = 256
COMMAND_CAP = 30
COMMAND_MAP_ARGS = ("--samples", "64", "--eps-b", "1e-4", "--cap", str(COMMAND_CAP))

# Run in a fresh ``python -I -B`` (no PYTHONPATH, no script directory on the
# path, and no __pycache__ written into either tree, which would change how
# fast it imports afterwards): import darksector from the tree's src/ given
# as argv[1], run each argv read from stdin, and print [exit code, stderr,
# sha256 of stdout] per job as JSON.
_RUNNER = r"""
import contextlib, hashlib, io, json, sys, traceback
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import darksector
from darksector.cli import main
if src not in Path(darksector.__file__).resolve().parents:
    sys.exit(f"imported darksector from {darksector.__file__}, not from {src}")
results = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crashed job is reported, the others still run
            code = f"raised {type(e).__name__}: {e}"
            err.write(traceback.format_exc().replace(str(src), "src"))
    results.append([code, err.getvalue(),
                    hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()])
json.dump(results, sys.stdout)
"""


def _jobs(seeds, tiny: bool, scene_dir: Path) -> list[tuple[str, list[str], list[str]]]:
    """(label, argv, output paths) of every job.  The output paths are
    relative, so both trees run the same argv, each in its own directory."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from bench_scenes import setup

    jobs = []
    for workload in WORKLOADS:
        for seed in seeds:
            group = f"{workload}-{seed}"
            for job in setup(workload, seed, scene_dir / group, tiny=tiny):
                argv = job.argv(Path(group))
                jobs.append((f"{workload} seed {seed} job {job.name}", argv, _outputs(argv)))
    return jobs + _command_jobs(scene_dir / "commands")


def _command_jobs(scene_dir: Path) -> list[tuple[str, list[str], list[str]]]:
    """The seed-independent group: every command but ``sectors`` and
    ``unfold`` on each scene file of the repo and each ``trapped`` scene,
    then ``sectors`` on a far copy of ``single_mirror`` and ``validate`` on
    a copy of ``two_perpendicular`` whose mirrors cross, then the jobs that
    write to stdout."""
    from bench_scenes import setup
    from darksector.scene import load_scene
    from darksector.tracer import ESCAPED, trace

    paths = [*sorted((ROOT / "scenes").glob("*.json")),
             *sorted((ROOT / "tests" / "scenes").glob("*.json")),
             *(job.scene_path for job in setup("trapped", 0, scene_dir))]
    thetas = [2 * math.pi * i / COMMAND_DIRECTIONS for i in range(COMMAND_DIRECTIONS)]
    jobs, stdout_jobs = [], []
    for path in paths:
        name = path.name.split(".")[0]
        scene = load_scene(path.read_bytes())
        tries = [(trace(scene, theta, COMMAND_CAP), theta) for theta in thetas]
        escaped = max((t for t in tries if t[0].status is ESCAPED),
                      key=lambda t: t[0].bounce_count)
        longest = max(tries, key=lambda t: t[0].bounce_count)
        (ax, ay), (sx, sy) = scene.mirrors[0].anchor, scene.source
        # the escaping direction also outside the turn [0, 2pi) whose first
        # leg is looked up in Scene.source_cells, one turn and 10**6 turns
        # ahead and three behind; and -0.0, which is looked up too and, where
        # it escapes at once, must exit at 0.0, not at -0.0
        traces = [("escaping", escaped[1], COMMAND_CAP),
                  ("escaping-next-turn", escaped[1] + 2 * math.pi, COMMAND_CAP),
                  ("escaping-ahead", escaped[1] + 2 * math.pi * 10**6, COMMAND_CAP),
                  ("escaping-behind", escaped[1] - 6 * math.pi, COMMAND_CAP),
                  ("minus-zero", -0.0, COMMAND_CAP),
                  ("tip", math.atan2(ay - sy, ax - sx), COMMAND_CAP)]
        if longest[0].bounce_count > 1:  # one bounce fewer stops it at the cap
            traces.append(("capped", longest[1], longest[0].bounce_count - 1))
        out = f"commands/{name}"
        argvs = [["validate", "--scene", str(path), "--out", f"{out}.validate.json"]]
        argvs += [["trace", "--scene", str(path), "--theta", repr(theta), "--cap", str(cap),
                   "--out", f"{out}.trace-{kind}.json", "--svg", f"{out}.trace-{kind}.svg"]
                  for kind, theta, cap in traces]
        argvs += [["map", "--scene", str(path), *COMMAND_MAP_ARGS, "--out", f"{out}.map.json"],
                  ["render", "--scene", str(path), "--svg", f"{out}.scene.svg"],
                  ["render", "--report", f"{out}.trace-escaping.json",
                   "--svg", f"{out}.report.svg"],
                  # a map report carries its circle; a validate report has
                  # none, so --margin sets it
                  ["render", "--report", f"{out}.map.json", "--svg", f"{out}.map-report.svg"],
                  ["render", "--report", f"{out}.validate.json",
                   "--svg", f"{out}.validate-report.svg"]]
        jobs += [(f"commands {Path(_outputs(argv)[0]).name}", argv, _outputs(argv))
                 for argv in argvs]
        stdout_jobs += [(f"commands {name} {argv[0]} to stdout", argv, []) for argv in (
            ["map", "--scene", str(path), *COMMAND_MAP_ARGS],
            ["unfold", "--scene", str(path)],
            ["render", "--scene", str(path)],
        )]
    # rounding the apex 10**6 from the origin misses check (i)'s tangent
    # lemma by about 20 times its slack, so this job runs the sampled check
    far = json.loads((ROOT / "scenes" / "single_mirror.json").read_text())
    for point in (far["source"], *(m["anchor"] for m in far["mirrors"])):
        point[0] += 1e6
    (scene_dir / "single_mirror_far.json").write_text(json.dumps(far))
    argv = ["sectors", "--scene", str(scene_dir / "single_mirror_far.json"), *COMMAND_MAP_ARGS,
            "--darkness-samples", "200", "--out", "commands/single_mirror_far.sectors.json"]
    jobs.append(("commands single_mirror_far.sectors.json", argv, _outputs(argv)))
    # the second mirror upright through (0, 0), on the first
    crossing = json.loads((ROOT / "scenes" / "two_perpendicular.json").read_text())
    crossing["mirrors"][1]["anchor"] = [0.0, -0.5]
    (scene_dir / "crossing_mirrors.json").write_text(json.dumps(crossing))
    argv = ["validate", "--scene", str(scene_dir / "crossing_mirrors.json"),
            "--out", "commands/crossing_mirrors.validate.json"]
    jobs.append(("commands crossing_mirrors.validate.json", argv, _outputs(argv)))
    stdout_jobs += [(f"commands {command} --help", [command, "--help"], [])
                    for command in ("validate", "trace", "map", "sectors", "unfold", "render")]
    return jobs + stdout_jobs


def _outputs(argv: list[str]) -> list[str]:
    """The paths the job writes: its ``--out`` and ``--svg``."""
    return [argv[argv.index(flag) + 1] for flag in ("--out", "--svg") if flag in argv]


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _run_tree(tree: Path, jobs, work: Path) -> list[tuple]:
    """Run every job in one fresh process on tree's src/, inside ``work``:
    (exit code, stderr, sha256 of stdout and of each output or None) per
    job."""
    for _, _, outputs in jobs:
        for out in outputs:
            (work / out).parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _RUNNER, str(tree / "src")],
        input=json.dumps([argv for _, argv, _ in jobs]),
        capture_output=True, text=True, cwd=work, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the jobs of {tree} did not run: {proc.stderr.strip()}")
    return [(code, stderr, [stdout, *(_sha256(work / out) for out in outputs)])
            for (_, _, outputs), (code, stderr, stdout) in zip(jobs, json.loads(proc.stdout))]


def _report_diff(a: Path, b: Path, names: tuple[str, str]) -> list[str]:
    """A unified diff of the two reports around their first differing line."""
    la, lb = ([] if not p.exists() else p.read_text("utf-8", "replace").splitlines()
              for p in (a, b))
    first = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    lo = max(first - 3, 0)
    return list(difflib.unified_diff(
        la[lo:first + DIFF_WINDOW], lb[lo:first + DIFF_WINDOW],
        f"{names[0]} (from line {lo + 1})", f"{names[1]} (from line {lo + 1})", lineterm="",
    ))


def compare(tree_a: Path, tree_b: Path, seeds=(1, 5), tiny: bool = False,
            names: tuple[str, str] | None = None) -> int:
    """Run every job in both source trees and compare them: 0 when all are
    identical, 1 after writing the first difference."""
    names = names or (str(tree_a), str(tree_b))
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = (Path(tmp) / "a", Path(tmp) / "b")
        jobs = _jobs(seeds, tiny, Path(tmp) / "scenes")
        for w in work:
            w.mkdir()
        runs = [_run_tree(tree, jobs, w) for tree, w in zip((tree_a, tree_b), work)]
        for (label, _, outputs), a, b in zip(jobs, *runs):
            if a == b:
                continue
            print(f"parity: first difference in {label}")
            for name, (code, stderr, digests) in zip(names, (a, b)):
                print(f"--- {name}: exit code {code}, "
                      f"sha256 {dict(zip(['stdout', *outputs], digests))}")
                print(f"stderr:\n{stderr}")
            if outputs:
                print("\n".join(_report_diff(work[0] / outputs[0], work[1] / outputs[0], names)))
            return 1
    print(f"parity: {len(jobs)} jobs identical ({', '.join(WORKLOADS)} at seed(s) "
          f"{', '.join(map(str, seeds))}{', tiny' if tiny else ''}; commands): "
          f"{names[0]} and {names[1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REF",
                        help="git ref whose tree the working tree is compared with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5],
                        help="workload seeds (default: 1 5)")
    parser.add_argument("--tiny", action="store_true",
                        help="the smoke-test size of every workload")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-ref-") as tmp:
        ref_tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(ref_tree), args.against], check=True)
        try:
            return compare(ref_tree, ROOT, args.seeds, args.tiny, (args.against, "working tree"))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(ref_tree)], check=True)


if __name__ == "__main__":
    sys.exit(main())
