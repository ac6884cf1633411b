"""The README's Python quick start and command-line examples run, and every
exported name resolves."""

import re
import shlex
from pathlib import Path

import pytest

import minlen
from minlen import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under the quick start"
    exec(compile(block.group(1), "README quick start", "exec"), {})


def readme_commands():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block is not None, "no sh block under the command line"
    return [line for line in block.group(1).splitlines()
            if line.startswith("minlen ")]


def test_readme_lists_every_subcommand():
    commands = {shlex.split(line)[1] for line in readme_commands()}
    assert commands == {"verify-algebra", "spectrum", "wavefunction",
                        "uncertainty", "limits"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, tmp_path):
    argv = shlex.split(line)[1:] + ["--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert (tmp_path / "report.json").is_file()


def test_all_names_resolve():
    missing = [name for name in minlen.__all__ if not hasattr(minlen, name)]
    assert missing == []
