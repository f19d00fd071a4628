"""tools/pairs.py runs the benchmark in alternated pairs of two trees; its
core needs no git, so two copies of src/, perfbench/ and BENCHMARK.json stand
in for the two trees."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = ("setup_s", "wall_s", "job_p50_ms", "peak_rss_mb")
VERDICTS = ("gain", "worse", "unresolved", "within bound")


@pytest.fixture
def trees(tmp_path):
    """Two copies of this tree's src/, perfbench/ and BENCHMARK.json."""
    copies = (tmp_path / "a", tmp_path / "b")
    for tree in copies:
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "_run"))
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return copies


def test_copies_of_one_tree_run_one_pair(trees, capsys):
    (trees[0] / "perfbench" / "_run" / "tiny-unfold_census").mkdir(parents=True)
    stale = trees[0] / "perfbench" / "_run" / "tiny-unfold_census" / "stale"
    stale.write_text("left by an earlier run")
    assert pairs.compare(*trees, "unfold_census", pairs=1, seconds=0, tiny=True,
                         names=("a", "b")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:9] for line in lines[:2]] == ["pair 1 a ", "pair 1 b "]
    for line in lines[:2]:
        assert line.endswith("  passes 1  correct true, failed 0")
        assert [word for word in line.split() if word in METRICS] == list(METRICS)
    assert lines[2] == "pairs: unfold_census seed 1, 1 pair(s) of 0 s runs, tiny: a against b"
    table, verdicts = lines[3:7], lines[7:]
    assert [line.split()[0] for line in table] == list(METRICS)
    assert all(" b wins " in line and " against a IQR 0.0000" in line for line in table)
    assert table[-1].endswith("  passes a 1  b 1")
    assert [line.split()[:2] for line in verdicts] == [["verdict", m] for m in METRICS]
    assert all(line.split(maxsplit=2)[2] in VERDICTS for line in verdicts)
    assert not stale.exists()


def _result(wall_s: float, passes: int = 3, correct: bool = True, failed: int = 0) -> dict:
    metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
    metrics["wall_s"]["value"] = wall_s
    return {"correct": correct, "failed": failed, "metrics": metrics,
            "info": {"untraced_passes": str(passes)}}


def test_sides_alternate_and_the_summary_counts_wins(trees, monkeypatch, capsys):
    walls = {"a": [0.75, 0.70, 0.80, 0.72], "b": [0.60, 0.72, 0.58, 0.57]}
    order = []

    def fake_run(tree, workload, seed, seconds, tiny):
        name = tree.name
        order.append(name)
        return _result(walls[name][order.count(name) - 1], passes=10 + len(order))

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.compare(*trees, "trapped", pairs=4, seconds=30, seed=2,
                         names=("a", "b")) == 0
    assert order == ["a", "b", "b", "a", "a", "b", "b", "a"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[8] == "pairs: trapped seed 2, 4 pair(s) of 30 s runs: a against b"
    wall = next(line for line in lines[9:] if line.startswith("wall_s"))
    # inclusive quartiles; b won three of the four pairs
    assert wall == ("wall_s       a 0.7350 [0.7150, 0.7625]  b 0.5900 [0.5775, 0.6300] s  "
                    "b wins 3/4, median -0.1450 against a IQR 0.0475")
    assert lines[-5].endswith("b wins 0/4, median +0.0000 against a IQR 0.0000  "
                              "passes a 11 14 15 18  b 12 13 16 17")
    # 3/4 wins is no gain, and a 20% lower median is not worse
    assert lines[-4:] == [f"verdict {m:<12} within bound" for m in METRICS]


def test_each_metric_gets_a_verdict_by_its_bound(trees, monkeypatch, capsys):
    # ten pairs; per metric (better lower, bounds 0.25 and 0.1 for peak_rss_mb)
    # the ref's and the change's runs
    ref = {"setup_s": [1.0] * 10, "wall_s": [1.0, 1.02] * 5,
           "job_p50_ms": [0.5, 1.5] * 5, "peak_rss_mb": [30.0] * 10}
    new = {"setup_s": [1.3] * 10,  # 30% worse than a 0.25 bound
           "wall_s": [0.8] * 9 + [1.1],  # 9/10 wins, 0.21 beyond an IQR of 0.02
           "job_p50_ms": [0.4, 1.6] * 5,  # an IQR twice the median
           "peak_rss_mb": [32.9] * 10}  # 9.7% worse, inside the 0.1 bound
    runs = iter(metrics for i in range(10)
                for metrics in ([ref, new] if i % 2 == 0 else [new, ref]))

    def fake_run(*args):
        values = next(runs)
        result = _result(0.0)
        for name in METRICS:
            result["metrics"][name]["value"] = values[name].pop(0)
        return result

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.compare(*trees, "unfold_census", pairs=10, names=("a", "b")) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "verdict setup_s      worse", "verdict wall_s       gain",
        "verdict job_p50_ms   unresolved", "verdict peak_rss_mb  within bound"]


@pytest.mark.parametrize("ref, new, better, expected", [
    ([1.0, 2.0] * 5, [0.9] * 10, "lower", "within bound"),  # wide, but every run better
    ([1.0, 2.0] * 5, [0.9] * 9 + [2.5], "lower", "unresolved"),
    ([10.0] * 10, [12.0] * 10, "higher", "gain"),
    ([10.0] * 10, [7.4] * 10, "higher", "worse"),
    ([10.0] * 10, [10.0] * 10, "lower", "within bound"),  # ties win nothing
], ids=["every-run-better", "one-run-not-better", "higher-gain", "higher-worse", "ties"])
def test_verdict(ref, new, better, expected):
    assert pairs.verdict(ref, new, better, 0.25) == expected


@pytest.mark.parametrize("bad", [dict(correct=False, failed=1), dict(failed=2)],
                         ids=["incorrect", "failed"])
def test_a_run_that_is_not_correct_exits_one(trees, monkeypatch, capsys, bad):
    runs = iter([_result(0.7), _result(0.6, **bad)])
    monkeypatch.setattr(pairs, "run_once", lambda *args: next(runs))
    assert pairs.compare(*trees, "unfold_census", pairs=1, names=("a", "b")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "pairs: b run 1 is not correct with 0 failed: no problem printed"
