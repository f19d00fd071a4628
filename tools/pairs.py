"""Alternated benchmark pairs of a git ref and the working tree.

    python3 tools/pairs.py --against REF --workload W [--pairs 10] [--seconds 30] [--seed 1]

checks REF out with ``git worktree add --detach`` into a temporary directory
and copies this tree's ``perfbench/`` and ``BENCHMARK.json`` into it, so both
sides run the same benchmark code.  Each pair runs ``python3 -B
perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in each
tree, and the side that goes first alternates from pair to pair.  Before
each run the tool removes the ``__pycache__`` directories under that tree's
``src/`` and ``perfbench/`` and its ``perfbench/_run/W``, so no run finds
bytecode or scene files that another run left behind (``setup_s`` times a
fresh import).

It prints each run's end-to-end metrics as it finishes, then, per end-to-end
metric of BENCHMARK.json, each side's median and quartiles, the pairs the
change won and the change of the median beside REF's interquartile range,
and each side's pass counts (``# untraced_passes``) beside ``peak_rss_mb``,
which grows with the passes a run fits.  After the table it prints one
verdict per metric (see ``verdict``).  It exits 1 if any run is not
``correct: true`` with 0 failed, else 0.  The worktree is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _clean(tree: Path, workload: str) -> None:
    """Remove the bytecode and the benchmark files of earlier runs."""
    for part in ("src", "perfbench"):
        for cache in sorted((tree / part).rglob("__pycache__")):
            shutil.rmtree(cache)
    for name in (workload, f"tiny-{workload}"):
        shutil.rmtree(tree / "perfbench" / "_run" / name, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One clean benchmark run in tree: its result line, plus the
    ``# key: value`` lines it printed under ``"info"``."""
    _clean(tree, workload)
    argv = [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv + (["--tiny"] if tiny else []), cwd=tree,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["info"] = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    if proc.returncode != 0:
        result["correct"] = False
        result["info"]["problem"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return result


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(ref: list[float], new: list[float], better: str, bound: float) -> str:
    """How the change's runs ``new`` compare with REF's runs ``ref``, pair by
    pair, for a metric whose ``better`` side is "lower" or "higher" and whose
    BENCHMARK.json ``bound`` is a fraction of REF's median:

    - "gain" when the change wins at least 9/10 of the pairs and its median
      is better by more than REF's interquartile range;
    - "worse" when its median is worse than REF's by more than the bound;
    - "unresolved" when either side's interquartile range is wider than the
      bound, unless every run of the change is better than every run of REF;
    - "within bound" otherwise.
    """
    sign = 1 if better == "lower" else -1
    (ref_median, q1, q3), (new_median, nq1, nq3) = _spread(ref), _spread(new)
    wins = sum(sign * (b - a) < 0 for a, b in zip(ref, new))
    worse_by, allowed = sign * (new_median - ref_median), bound * abs(ref_median)
    if 10 * wins >= 9 * len(ref) and -worse_by > q3 - q1:
        return "gain"
    if worse_by > allowed:
        return "worse"
    every_run_better = max(sign * v for v in new) < min(sign * v for v in ref)
    if max(q3 - q1, nq3 - nq1) > allowed and not every_run_better:
        return "unresolved"
    return "within bound"


def compare(tree_ref: Path, tree_new: Path, workload: str, pairs: int = 10,
            seconds: float = 30.0, seed: int = 1, tiny: bool = False,
            names: tuple[str, str] = ("ref", "change")) -> int:
    """Run the pairs in the two trees, each with its own perfbench/, and
    print the summary: 0 when every run was correct, 1 otherwise."""
    spec = json.loads((tree_new / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {names[0]: tree_ref, names[1]: tree_new}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    width = max(map(len, names))
    for i in range(pairs):
        for name in (names if i % 2 == 0 else names[::-1]):
            result = run_once(trees[name], workload, seed, seconds, tiny)
            runs[name].append(result)
            values = " ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4f}"
                              for m in spec if m["name"] in result["metrics"])
            print(f"pair {i + 1} {name:<{width}}  {values}  passes "
                  f"{result['info'].get('untraced_passes', '?')}  correct "
                  f"{json.dumps(result['correct'])}, failed {result['failed']}", flush=True)
    print(f"pairs: {workload} seed {seed}, {pairs} pair(s) of {seconds:g} s runs"
          f"{', tiny' if tiny else ''}: {names[0]} against {names[1]}")
    bad = [(name, j, result) for name in names
           for j, result in enumerate(runs[name])
           if result["correct"] is not True or result["failed"] != 0]
    for name, j, result in bad:
        print(f"pairs: {name} run {j + 1} is not correct with 0 failed: "
              f"{result['info'].get('problem', 'no problem printed')}")
    if bad:
        return 1
    verdicts = []
    for m in spec:
        metric, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {name: [r["metrics"][metric]["value"] for r in runs[name]] for name in names}
        wins = sum(sign * (new - ref) < 0 for ref, new in zip(*values.values()))
        sides = "  ".join("{} {:.4f} [{:.4f}, {:.4f}]".format(name, *_spread(values[name]))
                          for name in names)
        (ref_median, q1, q3), new_median = _spread(values[names[0]]), _spread(values[names[1]])[0]
        line = (f"{metric:<12} {sides} {m['unit']}  {names[1]} wins {wins}/{pairs}, median "
                f"{new_median - ref_median:+.4f} against {names[0]} IQR {q3 - q1:.4f}")
        if metric == "peak_rss_mb":
            line += "  passes " + "  ".join(
                f"{name} {' '.join(r['info']['untraced_passes'] for r in runs[name])}"
                for name in names)
        print(line)
        verdicts.append(f"verdict {metric:<12} "
                        + verdict(*values.values(), m["better"], m["bound"]))
    print("\n".join(verdicts))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REF",
                        help="git ref whose tree the working tree is measured against")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="--seconds of each run (default: 30)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--tiny", action="store_true",
                        help="the smoke-test size of the workload")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-ref-") as tmp:
        ref_tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(ref_tree), args.against], check=True)
        try:
            shutil.rmtree(ref_tree / "perfbench")
            shutil.copytree(ROOT / "perfbench", ref_tree / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "_run"))
            shutil.copy2(ROOT / "BENCHMARK.json", ref_tree / "BENCHMARK.json")
            return compare(ref_tree, ROOT, args.workload, args.pairs, args.seconds, args.seed,
                           args.tiny, (args.against, "working tree"))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(ref_tree)], check=True)


if __name__ == "__main__":
    sys.exit(main())
