"""The README's command-line examples parse with the real argument parser,
and its Library-use block imports names that exist and calls them as
their signatures allow, so a removed or renamed flag, function or
parameter cannot stay documented."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from chunkreader import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first `language` code block under the README's `heading`."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def command_lines() -> list[str]:
    """Each `chunkreader …` command of the README's "Command line" block,
    backslash continuations joined."""
    joined = readme_block("Command line", "sh").replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.startswith("chunkreader ")]


def test_readme_documents_every_subcommand():
    commands = {shlex.split(line)[1] for line in command_lines()}
    assert commands == {"train", "predict", "evaluate", "chunk-stats", "gradcheck"}


@pytest.mark.parametrize("line", command_lines())
def test_readme_command_parses(line):
    cli._build_parser().parse_args(shlex.split(line)[1:])  # a bad flag raises UsageError


def check_library_calls(source: str) -> tuple[list[str], list[str]]:
    """The chunkreader names `source` imports and calls, and one problem
    line per `from chunkreader… import` name that does not resolve and per
    call of an imported name that its signature cannot bind, counting the
    call's positional arguments and naming its keywords."""
    tree = ast.parse(source)
    imported, called, problems = {}, [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chunkreader":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    problems.append(f"line {node.lineno}: {node.module} has no {alias.name}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in imported:
            continue
        called.append(node.func.id)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            problems.append(f"line {node.lineno}: unpacked arguments cannot be checked")
            continue
        try:
            inspect.signature(imported[node.func.id]).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords}
            )
        except TypeError as exc:
            problems.append(f"line {node.lineno}: {ast.unparse(node)}: {exc}")
    return called, problems


def test_readme_library_use_imports_resolve_and_calls_bind():
    called, problems = check_library_calls(readme_block("Library use", "python"))
    assert problems == []
    assert {"load_dataset", "load_embeddings", "ChunkReaderModel", "ModelConfig", "Featurizer",
            "build_tag_inventories", "train", "TrainConfig", "evaluate"} <= set(called)


def test_library_call_check_reports_stale_names_and_arguments():
    source = (
        "from chunkreader.corpus import load_embeddings, load_vectors\n"
        "from chunkreader.trainer import TrainConfig\n"
        "load_embeddings('v.txt', width=300)\n"
        "load_embeddings('v.txt', 300, 5)\n"
        "load_embeddings('v.txt', dim=300)\n"
        "TrainConfig(lr=0.1)\n"
    )
    called, problems = check_library_calls(source)
    assert called == ["load_embeddings"] * 3 + ["TrainConfig"]
    assert [p.split(":")[0] for p in problems] == ["line 1", "line 3", "line 4", "line 6"]
    assert "has no load_vectors" in problems[0]
