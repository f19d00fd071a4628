"""tools/parity.py compares the CLI's bytes between two source trees; its
core needs no git, so two copies of src/ stand in for the two trees."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


@pytest.fixture
def trees(tmp_path):
    """Two copies of this tree's src/."""
    copies = (tmp_path / "a", tmp_path / "b")
    for tree in copies:
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return copies


def test_copies_of_one_tree_are_identical(trees, capsys):
    assert parity.compare(*trees, tiny=True, names=("a", "b")) == 0
    # trapped: 2 jobs, random_sectors: 5, unfold_census: 10, at 2 seeds; then
    # the command group: 12 per scene on 6 scenes, plus a capped trace on the
    # 4 scenes with a direction of 2 or more bounces, plus a long trace on
    # each of the 2 trapped scenes at its workload cap, plus sectors on the far
    # single_mirror, whose check (i) samples, and validate on a scene whose
    # two mirrors cross; then map, unfold and render to stdout on the 6
    # scenes, and --help of the 6 commands
    assert capsys.readouterr().out == ("parity: 138 jobs identical (trapped, random_sectors, "
                                       "unfold_census at seed(s) 1, 5, tiny; commands): "
                                       "a and b\n")
    # the runs compile no bytecode into either tree
    assert [p for tree in trees for p in tree.rglob("__pycache__")] == []


def test_one_changed_byte_names_the_first_differing_job(trees, capsys):
    cli = trees[1] / "src" / "darksector" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"sectors: certified ') == 1
    cli.write_text(text.replace('"sectors: certified ', '"sectors: Certified '), encoding="utf-8")
    assert parity.compare(*trees, seeds=(1,), tiny=True, names=("a", "b")) == 1
    lines = capsys.readouterr().out.splitlines()
    # the channel job certifies nothing, so the trap job is the first to differ
    assert lines[0] == "parity: first difference in trapped seed 1 job six_mirror_trap"
    assert lines[1].startswith("--- a: exit code 0, sha256 {")
    summary = "certified 11 dark sector(s); exit-direction map not injective"
    assert lines[2:5] == ["stderr:", f"sectors: {summary}", ""]
    # the same report digests, and no report diff
    assert lines[5] == "--- b" + lines[1].removeprefix("--- a")
    assert lines[6:] == ["stderr:", f"sectors: {summary.capitalize()}", "", ""]


def test_a_changed_report_is_shown_as_a_diff(trees, capsys):
    module = trees[1] / "src" / "darksector" / "circle_map.py"
    text = module.read_text(encoding="utf-8")
    module.write_text(text.replace('"escape_measure": d.escape_measure',
                                   '"escape_measure": -d.escape_measure'), encoding="utf-8")
    assert parity.compare(*trees, seeds=(1,), tiny=True, names=("a", "b")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "parity: first difference in trapped seed 1 job channel"
    assert lines[1] != "--- a" + lines[5].removeprefix("--- b")
    # the diff opens three lines above the one changed line
    diff = lines[9:]
    first = int(diff[0].removeprefix("--- a (from line ").removesuffix(")"))
    assert diff[1] == f"+++ b (from line {first})"
    changed = [line for line in diff[3:] if line[:1] in "-+"]
    assert changed == [diff[6], diff[6].replace("-", "+", 1).replace('": ', '": -')]
    assert changed[0].startswith('-    "escape_measure": ')
