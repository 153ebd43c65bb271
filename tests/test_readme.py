"""The README's Python API example and command-line block run as written."""

import re
import shlex
from pathlib import Path

import pytest

from qdelay.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    section = README.read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Python API", "exec"), {})


def _commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("qdelay ")]
    return [shlex.split(line)[1:] for line in lines]


def test_command_block_is_found():
    assert [argv[0] for argv in _commands()] == [
        "simulate", "critical-delay", "critical-delay", "hopf-curve", "sweep", "verify"]


@pytest.mark.parametrize("argv", [argv for argv in _commands() if argv[0] != "verify"],
                         ids=" ".join)
def test_command_runs(argv, tmp_path, monkeypatch):
    # qdelay verify has its own tests; --out files land in tmp_path
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
