"""The README's example session and library sketch run as written, and
every public name of the package has a use outside the tests."""

import ast
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


def loaded_names(text: str) -> "list[str]":
    """Every name that code in text reads, bare or as an attribute."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


def public_definitions(text: str) -> "list[str]":
    """The public names a module defines at its top level."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_export_is_used():
    # an export is used by another module of the package, by the README
    # sketch, or by the acceptance criteria; every other public name of a
    # module is read, beyond its definition, by code of the package, the
    # sketch, the acceptance criteria or perfbench
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
    bench = [p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")]
    read = {name for text in [*modules.values(), *readers, *bench] for name in loaded_names(text)}
    unread = [f"{stem}.{name}" for stem, text in sorted(modules.items())
              for name in public_definitions(text) if name not in read]
    assert unread == []
