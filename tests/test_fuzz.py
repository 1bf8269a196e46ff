"""Arbitrary bytes given to the file loaders: each file either loads or
fails with the loader's typed error, never with anything else."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkreader import checkpoint as ckpt, model as M
from chunkreader.chunker import PosPatternTrie
from chunkreader.corpus import DataError, load_dataset
from helpers import example_dict, make_example

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_edits = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 10**6), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def mutate(raw: bytes, edits) -> bytes:
    """Apply byte edits at positions taken modulo the current length."""
    buf = bytearray(raw)
    for op, pos, value in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), value)
        elif buf:
            pos %= len(buf)
            if op == "set":
                buf[pos] = value
            else:
                del buf[pos]
    return bytes(buf)


def _dataset_bytes() -> bytes:
    ex = make_example("q1", ["Alice", "met", "Bob"], ["Who", "met", "Bob"], [(1, 1)])
    return (json.dumps(example_dict(ex)) + "\n").encode("utf-8") * 2


def _checkpoint_bytes(candidate_mode) -> bytes:
    cfg = M.ModelConfig(
        hidden_size=2, embedding_dim=2, pos_tags=("A", "B"), ne_tags=("O",),
        candidate_mode=candidate_mode, max_chunk_len=3,
    )
    trie = None
    if candidate_mode == "trie":
        trie = PosPatternTrie(3)
        trie.insert(["A", "B"], 2)
    model = M.ChunkReaderModel(cfg, trie)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data[...] = rng.normal(size=p.data.shape)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "m.ckpt")
        ckpt.save_checkpoint(model, path)
        with open(path, "rb") as fh:
            return fh.read()


DATASET = _dataset_bytes()
CHECKPOINTS = {mode: _checkpoint_bytes(mode) for mode in ("window", "trie")}


def loads_or_raises(load, raw: bytes, error) -> None:
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        try:
            load(path)
        except error:
            pass
    finally:
        os.remove(path)


@FUZZ
@given(raw=st.binary(max_size=400))
def test_fuzz_dataset_any_bytes(raw):
    loads_or_raises(load_dataset, raw, DataError)


@FUZZ
@given(edits=_edits)
def test_fuzz_dataset_edited_record(edits):
    loads_or_raises(load_dataset, mutate(DATASET, edits), DataError)


@FUZZ
@given(raw=st.binary(max_size=400))
def test_fuzz_checkpoint_any_bytes(raw):
    loads_or_raises(ckpt.load_checkpoint, raw, ckpt.CheckpointError)


@FUZZ
@given(mode=st.sampled_from(sorted(CHECKPOINTS)), edits=_edits)
def test_fuzz_checkpoint_edited_manifest(mode, edits):
    raw = CHECKPOINTS[mode]
    head = raw.index(b"param ")  # aim the edits at the header and settings
    edits = [(op, pos % head, value) for op, pos, value in edits]
    loads_or_raises(ckpt.load_checkpoint, mutate(raw, edits), ckpt.CheckpointError)


@pytest.mark.parametrize(
    "line",
    ["[" * 100_000, '{"id": ' + "1" * 5000 + "}"],
    ids=["deep-nesting", "long-integer"],
)
def test_dataset_json_beyond_parser_limits_cites_line(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1: invalid JSON"):
        load_dataset(path)
