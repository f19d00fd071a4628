"""The darksector benchmark: run one workload through ``darksector.cli.main``
in this process, check every job's output and print the metrics.

    python3 perfbench/run.py --workload trapped --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import NOMINAL_S, SpeedMeter  # noqa: E402  (perfbench is on the path)

DEFAULT_SEED = 1
SETUP_PROBES = 9
WORK_DIR = HERE / "_run"
REFERENCE = HERE / "reference.json"


@dataclass
class PassResult:
    """One pass over a workload's job list."""

    job_s: list[float]
    job_t: list[tuple[float, float]]  # (start, end) of each job's main call
    exits: list
    errors: list
    digests: list[str]
    report_bytes: int

    @property
    def wall(self) -> float:
        return sum(self.job_s)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        try:
            h.update(path.read_bytes())
        except FileNotFoundError:
            h.update(b"missing")
    return h.hexdigest()


def run_pass(jobs, out_dir: Path, main, lt=None) -> PassResult:
    """Run every job once; only the ``main`` call itself is timed."""
    result = PassResult([], [], [], [], [], 0)
    for job in jobs:
        argv = job.argv(out_dir)
        if lt is not None:
            lt.job = job.name
        error = None
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejected the arguments
                code = e.code
            except Exception as e:  # noqa: BLE001  (a failed job, not a failed run)
                code, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
        if error is None and code not in job.expected_exits:
            last = stderr.getvalue().strip().splitlines()[-1:]
            error = f"exit code {code}, expected {sorted(job.expected_exits)}: {''.join(last)}"
        outputs = [job.out_path(out_dir)] + ([out_dir / f"{job.name}.svg"] if job.svg else [])
        result.job_s.append(t1 - t0)
        result.job_t.append((t0, t1))
        result.exits.append(code)
        result.errors.append(error)
        result.digests.append(_digest(outputs))
        result.report_bytes += sum(p.stat().st_size for p in outputs if p.exists())
    return result


def setup_probe(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Set-up time of one fresh process (see setup_probe.py): seconds as
    measured and at the nominal speed of ``calibrate``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(WORK_DIR / workload / "probe"), "1" if tiny else "0"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds, kernel_s = map(float, proc.stdout.split()[-2:])
    return seconds, seconds * NOMINAL_S / kernel_s


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs
    interpreted code right now, independent of darksector."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    loadavg = _read("/proc/loadavg")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor() or "unknown",
        "loadavg_1m": float(loadavg.split()[0]) if loadavg else os.getloadavg()[0],
        "cpu_probe_ms": cpu_probe_ms(),
    }


def check_outputs(jobs, passes, out_dir: Path, reference: dict | None):
    """Failed job runs over all passes, and the reference summaries.

    A job run fails if it raised or exited with an unexpected code (see
    ``run_pass``), wrote other bytes than the job's first run, or if the
    job's report breaks an invariant or disagrees with the reference.
    """
    from bench_checks import check, compare, summary

    failed, problems, summaries = 0, [], {}
    first = passes[0]
    for i, job in enumerate(jobs):
        bad_job = []
        code = first.exits[i]
        if first.errors[i] is None:
            try:
                doc = json.loads(job.out_path(out_dir).read_bytes())
                bad_job += check(job, doc, code)
                summaries[job.name] = summary(job, doc, code)
            except (OSError, ValueError, KeyError, TypeError) as e:
                bad_job.append(f"unreadable report: {type(e).__name__}: {e}")
            if reference is not None and job.name in summaries:
                want = reference.get(job.name)
                if want is None:
                    bad_job.append("no reference entry")
                else:
                    bad_job += compare(job, summaries[job.name], want)
        for p in passes:
            why = list(bad_job)
            if p.errors[i] is not None:
                why.append(p.errors[i])
            elif p.digests[i] != first.digests[i]:
                why.append("output differs from the job's first run")
            if why:
                failed += 1
                problems.append(f"{job.name}: {'; '.join(why)}")
    return failed, problems, summaries


def _dump_reference(refs: dict) -> str:
    """The reference file, one job per line."""
    blocks = []
    for workload in sorted(refs):
        jobs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(s, sort_keys=True)}"
                          for name, s in sorted(refs[workload].items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{jobs}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        write_reference: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result line, problems found)."""
    import darksector.cli as cli
    from bench_scenes import setup
    from bench_trace import SPAN, LayerTrace, layer_metrics

    env_start = environment()
    base = WORK_DIR / (f"tiny-{workload}" if tiny else workload)
    jobs = setup(workload, seed, base / "scenes", tiny)
    out_dir = base / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    # Set-up probes run between passes, so that their median samples the
    # machine over the whole run rather than at one moment.  With --trace 0
    # the passes run under the speed meter of calibrate.py.
    probes, untraced, traced = [], [], []
    meter = SpeedMeter()
    start = time.perf_counter()
    while True:
        with contextlib.nullcontext() if trace else meter:
            untraced.append(run_pass(jobs, out_dir, cli.main))
        if not trace:
            probes.append(setup_probe(workload, seed, tiny))
        else:
            lt = LayerTrace()
            lt.install()
            try:
                p = run_pass(jobs, out_dir, lt.wrap(cli.main, "job", SPAN), lt)
            finally:
                lt.uninstall()
            traced.append((p, lt))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed, tiny))

    use_reference = not tiny and (workload == "trapped" or seed == DEFAULT_SEED)
    reference = None
    if use_reference and not write_reference:
        reference = json.loads(REFERENCE.read_text()).get(workload, {})
    passes = untraced + [p for p, _ in traced]
    failed, problems, summaries = check_outputs(jobs, passes, out_dir, reference)
    if write_reference and not failed:
        all_refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        all_refs[workload] = summaries
        REFERENCE.write_text(_dump_reference(all_refs))

    attempted = len(jobs) * len(passes)
    if trace:
        per_pass = [layer_metrics(lt, p.report_bytes) for p, lt in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["bench.trace_overhead_frac"] = (
            statistics.median(p.wall for p, _ in traced)
            / statistics.median(p.wall for p in untraced) - 1.0
        )
        values["bench.fail_frac"] = failed / attempted
        first_trace = traced[0][1]
        first_trace.write_spans(base / f"spans-seed{seed}.jsonl")
        if first_trace.missing:
            problems.append(f"not traced (attribute missing): {', '.join(first_trace.missing)}")
    else:
        norm = [[meter.normalise(t0, t1) for t0, t1 in p.job_t] for p in untraced]
        raw = [[t1 - t0 - meter.spent(t0, t1) for t0, t1 in p.job_t] for p in untraced]
        values = {
            "setup_s": statistics.median(s for _, s in probes),
            "wall_s": statistics.median(sum(n) for n in norm),
            "job_p50_ms": 1e3 * statistics.median(t for n in norm for t in n),
            "peak_rss_mb": peak_rss_mb,
        }
        measured = {
            "measured_setup_s": statistics.median(s for s, _ in probes),
            "measured_wall_s": statistics.median(sum(r) for r in raw),
            "measured_job_p50_ms": 1e3 * statistics.median(t for r in raw for t in r),
            "slowdown": meter.median_slowdown(),
            "speed_samples": len(meter.samples),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    env_end = environment()
    info = {
        "workload": workload, "seed": seed, "jobs": len(jobs),
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "python": env_start["python"], "nproc": env_start["nproc"], "cpu": env_start["cpu"],
        "loadavg_1m_start": env_start["loadavg_1m"], "loadavg_1m_end": env_end["loadavg_1m"],
        "cpu_probe_ms_start": env_start["cpu_probe_ms"], "cpu_probe_ms_end": env_end["cpu_probe_ms"],
        "reference_checked": reference is not None,
    }
    if not trace:
        info.update(measured)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trapped", "random_sectors", "unfold_census"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole passes over the job list for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small jobs per workload, for smoke tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's summaries as the workload's reference")
    args = parser.parse_args(argv)
    if args.write_reference and (args.tiny or (args.workload != "trapped"
                                               and args.seed != DEFAULT_SEED)):
        parser.error(f"--write-reference needs the full size and seed {DEFAULT_SEED}")

    try:
        import darksector
    except ImportError as e:
        print(f"error: cannot import darksector from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if not Path(darksector.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: darksector was imported from {darksector.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.tiny, args.write_reference)
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
