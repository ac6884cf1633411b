"""The README's Python quick start runs, and every exported name resolves."""

import re
from pathlib import Path

import minlen

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under the quick start"
    exec(compile(block.group(1), "README quick start", "exec"), {})


def test_all_names_resolve():
    missing = [name for name in minlen.__all__ if not hasattr(minlen, name)]
    assert missing == []
