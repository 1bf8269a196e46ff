"""The README's command-line examples parse with the real argument parser,
its Library-use block imports names that exist and calls them as their
signatures allow, and its tape sizes are those of recorded tapes, so a
removed or renamed flag, function or parameter, or a changed composition
of the model, cannot stay documented."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from chunkreader import cli, numerics as nm, trainer as tr
from chunkreader.chunker import enumerate_candidates
from chunkreader.model import ChunkReaderModel, ModelConfig

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


def readme_tape_sizes() -> tuple[int, int, int]:
    """The README's node count for a forward of one example, and the a and
    b of its `a + bB` nodes for a training step of B examples."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    forward = re.search(r"(\d+) nodes for a forward of one example", text)
    step = re.search(r"training step of B examples is (\d+) \+ (\d+)B tape nodes", text)
    assert forward and step, "the README no longer states both tape sizes"
    return int(forward.group(1)), int(step.group(1)), int(step.group(2))


def test_readme_tape_sizes_are_those_recorded():
    forward_nodes, fixed, per_example = readme_tape_sizes()
    config = ModelConfig(hidden_size=3, embedding_dim=2, pos_tags=("A",), ne_tags=("O",),
                         max_chunk_len=2)
    model = ChunkReaderModel(config)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data[...] = rng.uniform(-0.5, 0.5, p.data.shape)
    features = lambda n: rng.normal(size=(n, config.input_width))
    with nm.Tape() as tape:
        model.forward(features(6), features(3), enumerate_candidates(6, 2))
    assert len(tape) == forward_nodes
    for B in (1, 3):
        prepared = [
            tr.PreparedExample(None, features(4 + b), features(2 + b), enumerate_candidates(4 + b, 2), 0)
            for b in range(B)
        ]
        cfg = tr.TrainConfig(batch_size=B, hidden_size=3, max_chunk_len=2)
        (batch,) = tr.make_batches(prepared, cfg, nm.SeededRng(0), epoch=0)
        with nm.Tape() as tape:
            tr._batch_loss(model, batch, cfg, nm.SeededRng(0))
        assert len(tape) == fixed + per_example * B, f"a step of {B} examples"
