"""The README's examples stay in step with the code: the Python quick start
runs against the public API, and every ``pcout ...`` command line in it
parses (without running)."""

import re
import shlex
from pathlib import Path

import pytest

from pcout import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def _command_lines() -> list[list[str]]:
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pcout"]:
                lines.append(words[1:])
    return lines


COMMANDS = _command_lines()


def test_python_quick_start_runs():
    blocks = _blocks("python")
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_subcommand_is_documented():
    assert {argv[0] for argv in COMMANDS} == {"detect", "sweep", "bench", "plotdata"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_parses(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
