"""The README's examples stay in step with the code: the Python quick start
runs against the public API, every ``pcout ...`` command line in it parses
(without running), and it names every option the command line defines."""

import argparse
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


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
    return options


def test_every_option_is_named():
    options = _option_strings(cli._build_parser())
    assert "--scatter-factor" in options
    named = {option for option in options if re.search(rf"(?<![\w-]){option}(?![\w-])", README)}
    assert options - named == set()
