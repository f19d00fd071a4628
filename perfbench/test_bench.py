"""Tests of the benchmark itself.

    python -m pytest perfbench
"""

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import darksector.cli as cli  # noqa: E402
import darksector.tracer as tracer  # noqa: E402
from bench_checks import check  # noqa: E402
from bench_scenes import setup  # noqa: E402
from bench_trace import SPAN, LayerTrace, layer_metrics  # noqa: E402
from calibrate import SpeedMeter  # noqa: E402
from run import run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_traced_channel_reproduces_the_baseline_counters(tmp_path):
    jobs = [j for j in setup("trapped", 1, tmp_path) if j.name == "channel"]
    original = tracer.first_hit
    lt = LayerTrace()
    lt.install()
    try:
        p = run_pass(jobs, tmp_path, lt.wrap(cli.main, "job", SPAN), lt)
    finally:
        lt.uninstall()
    assert tracer.first_hit is original
    assert p.errors == [None] and p.exits == [4]
    m = layer_metrics(lt, p.report_bytes)
    assert m["tracer.traces"] == 6372
    assert m["tracer.bounces"] == 789752
    assert m["circle_map.components"] == 1602
    assert m["circle_map.trapped_arcs"] == 2
    assert m["circle_map.seed_traces"] + m["circle_map.bisect_traces"] == 6372
    assert m["dark_sector.verify_traces"] == 0  # no unlit arc, so nothing to verify
    assert [s[0] for s in lt.spans if s[3] is None] == ["job"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    assert table == want


def test_speed_meter_samples_during_work_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedMeter(period=0.01) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    spent = meter.spent(t0, t1)
    assert len(meter.samples) >= 3 and 0 < spent < t1 - t0
    assert meter.normalise(t0, t1) == pytest.approx(
        (t1 - t0 - spent) / meter.slowdown(t0, t1))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trapped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_report(tmp_path, workload, name):
    job = next(j for j in setup(workload, 1, tmp_path, tiny=True) if j.name == name)
    code = cli.main(job.argv(tmp_path))
    return job, json.loads(job.out_path(tmp_path).read_text()), code


def test_checks_reject_broken_sectors_reports(tmp_path):
    job, doc, code = _tiny_report(tmp_path, "trapped", "six_mirror_trap")
    assert code == 0 and check(job, doc, code) == []
    assert check(job, doc, 4)  # certified, yet exit 4

    flipped = copy.deepcopy(doc)
    flipped["decomposition"]["components"][0]["isometry"]["s"] *= -1
    assert check(job, flipped, code)

    unsorted = copy.deepcopy(doc)
    comps = unsorted["decomposition"]["components"]
    comps[0], comps[1] = comps[1], comps[0]
    assert check(job, unsorted, code)

    overlapping = copy.deepcopy(doc)
    overlapping["decomposition"]["components"][0]["arc"]["measure"] += 1.0
    assert check(job, overlapping, code)

    too_much = copy.deepcopy(doc)
    too_much["decomposition"]["escape_measure"] = 7.0
    assert check(job, too_much, code)


def test_checks_reject_broken_unfold_reports(tmp_path):
    job, doc, code = _tiny_report(tmp_path, "unfold_census", "unfold_009")
    assert code == 0 and check(job, doc, code) == []
    for key, delta in (("sheet_count", 2), ("degree", 2), ("euler_characteristic", -2)):
        broken = dict(doc, **{key: doc[key] + delta})
        assert check(job, broken, code), key
