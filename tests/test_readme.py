"""The README's library sketch runs as written from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_sketch_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
