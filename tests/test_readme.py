"""The README's library sketch runs as written from the repository root, and
every name the package exports has a use outside the tests."""

import re
from pathlib import Path

import darksector

ROOT = Path(__file__).resolve().parent.parent


def library_sketch() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


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
