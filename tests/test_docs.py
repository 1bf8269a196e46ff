"""The README's command-line examples parse with the real argument parser,
so a removed or renamed flag cannot stay documented."""

import re
import shlex
from pathlib import Path

import pytest

from chunkreader import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines() -> list[str]:
    """Each `chunkreader …` command of the README's "Command line" block,
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.startswith("chunkreader ")]


def test_readme_documents_every_subcommand():
    commands = {shlex.split(line)[1] for line in command_lines()}
    assert commands == {"train", "predict", "evaluate", "chunk-stats", "gradcheck"}


@pytest.mark.parametrize("line", command_lines())
def test_readme_command_parses(line):
    cli._build_parser().parse_args(shlex.split(line)[1:])  # a bad flag raises UsageError
