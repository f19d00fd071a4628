"""The README's example session and library sketch run as written, and
every name the package exports has a use outside the tests."""

import json
import re
import shlex
import shutil
from pathlib import Path

import darksector
from darksector.cli import main

ROOT = Path(__file__).resolve().parent.parent


def library_sketch() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def example_session() -> "list[list[str]]":
    """The README's example session, one argv per command."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Example session using the bundled scenes:\n\n```\n(.*?)```", text, re.DOTALL)
    return [shlex.split(line) for line in block[1].replace("\\\n", " ").splitlines()]


def test_example_session_runs(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "scenes", tmp_path / "scenes")
    monkeypatch.chdir(tmp_path)
    session = example_session()
    assert [argv[:2] for argv in session] == [
        ["darksector", "validate"], ["darksector", "unfold"], ["darksector", "sectors"]]
    for argv in session:
        assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["valid"] is True
    # one summary line each from unfold and sectors; validate writes none
    assert captured.err == (
        "unfold: 4 sheet(s), 8 zero(s), 4 pole(s), genus 1, chi 0\n"
        "sectors: certified 1 dark sector(s); exit-direction map not injective\n")
    assert json.loads(Path("census.json").read_text())["sheet_count"] == 4
    assert json.loads(Path("sectors.json").read_text())["certified"] is True
    assert Path("sectors.svg").read_text().count('class="sector"') == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "census.json", "scenes", "sectors.json", "sectors.svg"]


def test_library_sketch_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(library_sketch(), "README.md", "exec"), {})


def test_every_export_is_used():
    # used: by another module of the package, by the README sketch, or by
    # the acceptance criteria
    package = ROOT / "src" / "darksector"
    modules = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    del modules["__init__"]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    readers = [library_sketch(), acceptance]
    unused = []
    for name in darksector.__all__:
        home = getattr(darksector, name).__module__.rpartition(".")[2]
        texts = [text for stem, text in modules.items() if stem != home] + readers
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unused.append(name)
    assert unused == []
