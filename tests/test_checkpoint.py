"""Checkpoint round-trips, byte stability, and corruption detection."""

import ast
import dataclasses
import inspect
import re

import numpy as np
import pytest

from chunkreader import checkpoint as ckpt, model as M
from chunkreader.chunker import PosPatternTrie
from chunkreader.corpus import Featurizer
from helpers import edit_checkpoint, make_example, toy_embedding_table


def seeded_model(seed=0, **kw):
    cfg = M.ModelConfig(
        hidden_size=3,
        embedding_dim=2,
        pos_tags=("A", "B"),
        ne_tags=("O",),
        **kw,
    )
    trie = None
    if kw.get("candidate_mode") == "trie":
        trie = PosPatternTrie(kw.get("max_chunk_len", 10))
        trie.insert(["A"], 3)
        trie.insert(["A", "B"], 1)
    m = M.ChunkReaderModel(cfg, trie)
    rng = np.random.default_rng(seed)
    for p in m.parameters().values():
        p.data[...] = rng.normal(size=p.data.shape)
    return m


def test_roundtrip_parameters_and_config(tmp_path):
    m = seeded_model(seed=1, scoring="cosine", normalize_attention=True, max_chunk_len=7)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    loaded = ckpt.load_checkpoint(path)
    assert loaded.config == m.config
    for name, p in m.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data), name


def test_roundtrip_is_byte_stable(tmp_path):
    m = seeded_model(seed=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_checkpoint(m, p1)
    ckpt.save_checkpoint(ckpt.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_trie_mode_preserves_patterns(tmp_path):
    m = seeded_model(seed=3, candidate_mode="trie")
    path = tmp_path / "trie.ckpt"
    ckpt.save_checkpoint(m, path)
    loaded = ckpt.load_checkpoint(path)
    assert loaded.trie is not None
    assert dict(loaded.trie.patterns()) == dict(m.trie.patterns())
    assert loaded.trie.depth_cap == m.trie.depth_cap


def test_roundtrip_preserves_predictions(tmp_path):
    m = seeded_model(seed=4)
    ex = make_example(
        "e", ["Alice", "met", "Bob"], ["who"], [(1, 1)], pos=["A", "B", "A"]
    )
    table = toy_embedding_table(["alice", "met", "bob", "who"], dim=2)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    loaded = ckpt.load_checkpoint(path)
    assert loaded.predict_example(ex, fz) == m.predict_example(ex, fz)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load_checkpoint(path)


def test_truncated_blob_rejected(tmp_path):
    m = seeded_model(seed=5)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, error):
    # training saves every improving epoch onto one path; a write that
    # fails part-way must not leave that path truncated
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=5), path)
    before = path.read_bytes()
    real, calls = np.ascontiguousarray, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:  # the fifth parameter's bytes
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(ckpt.np, "ascontiguousarray", failing)
    with pytest.raises(type(error)):
        ckpt.save_checkpoint(seeded_model(seed=6), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    monkeypatch.undo()
    ckpt.load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    m = seeded_model(seed=6)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ckpt.CheckpointError, match="trailing"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("name", ["shared.fwd.U", "attention.bwd.W"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected_naming_it(tmp_path, name, value):
    m = seeded_model(seed=6)
    m.parameters()[name].data[1, 2] = value
    path = tmp_path / "bad.ckpt"
    ckpt.save_checkpoint(m, path)
    with pytest.raises(ckpt.CheckpointError, match=f"^parameter {name} holds a non-finite value$"):
        ckpt.load_checkpoint(path)


def test_manifest_shape_mismatch_rejected(tmp_path):
    m = seeded_model(seed=7)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    raw = path.read_bytes()
    # corrupt the hidden size so every declared shape disagrees
    corrupted = raw.replace(b"hidden_size 3", b"hidden_size 4", 1)
    # manifest length unchanged (same byte count), so the header still parses
    path.write_bytes(corrupted)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        # edits inside the manifest keep its byte count, so the declared
        # manifest length still holds
        (b"manifest_bytes ", b"manifest_bytes x", "manifest_bytes"),
        (b"manifest_bytes ", b"manifest_bytes -", "manifest_bytes"),
        (b"hidden_size 3", b"hidden_size x", "hidden_size"),
        (b"hidden_size 3", b"hidden_size 0", "hidden_size"),
        (b"candidate_mode window", b"candidate_mode wibble", "candidate mode"),
        (b"scoring dot", b"scoring dit", "scoring"),
        (b"max_chunk_len 10", b"max_chunk_len 00", "max_chunk_len"),
        (b"precision float64", b"precision \xff\xfeat64", "UTF-8"),
    ],
)
def test_malformed_manifest_raises_checkpoint_error(tmp_path, old, new, message):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=9), path)
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"hidden_size 3", b"hidden_size 3" + b"0" * 5000, "hidden_size must be a non-negative integer"),
        (b"hidden_size 3", b"hidden_size 999999999999999999", "invalid model settings"),  # too big for numpy
        (b"hidden_size 3", b"hidden_size 100000000", "invalid model settings"),  # more than memory can hold
        (b"hidden_size 3", b"hidden_size 3\nhidden_size 3", "repeats 'hidden_size'"),
        (b"hidden_size 3", b"hidden_size 3\nhidden_sise 3", "unknown manifest key 'hidden_sise'"),
        # the tag inventories fix the one-hot layout: a second line used to
        # win silently (here permuting the POS columns), a missing one to
        # load as an empty inventory
        (b"pos_tags A B\n", b"pos_tags A B\npos_tags B A\n", "^manifest repeats 'pos_tags'$"),
        (b"ne_tags O\n", b"ne_tags O\nne_tags O\n", "^manifest repeats 'ne_tags'$"),
        (b"pos_tags A B\n", b"", "^manifest missing pos_tags$"),
        (b"ne_tags O\n", b"", "^manifest missing ne_tags$"),
    ],
    ids=[
        "long-integer", "too-big", "out-of-memory", "repeated", "unknown",
        "repeated-pos-tags", "repeated-ne-tags", "missing-pos-tags", "missing-ne-tags",
    ],
)
def test_manifest_sizes_and_keys_raise_checkpoint_error(tmp_path, old, new, message):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=9), path)
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(edit_checkpoint(raw, old, new))
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)


def test_inventories_roundtrip_exactly(tmp_path):
    m = seeded_model(seed=8)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    loaded = ckpt.load_checkpoint(path)
    assert loaded.config.pos_tags == ("A", "B")
    assert loaded.config.ne_tags == ("O",)


def test_trie_checkpoint_requires_depth_cap(tmp_path):
    path = tmp_path / "trie.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=10, candidate_mode="trie"), path)
    raw = path.read_bytes()
    assert b"trie_depth_cap 10" in raw
    # same byte count, so the declared manifest length still holds
    path.write_bytes(raw.replace(b"trie_depth_cap 10", b"xrie_depth_cap 10", 1))
    with pytest.raises(ckpt.CheckpointError, match="trie_depth_cap"):
        ckpt.load_checkpoint(path)


def manifest_text(raw):
    _magic, head, rest = raw.split(b"\n", 2)
    return rest[: int(head.split(b" ")[1])].decode("utf-8")


PARAM_LINES = """\
param shared.fwd.W_r 8 3
param shared.fwd.W_u 8 3
param shared.fwd.W 8 3
param shared.fwd.U_r 3 3
param shared.fwd.U_u 3 3
param shared.fwd.U 3 3
param shared.bwd.W_r 8 3
param shared.bwd.W_u 8 3
param shared.bwd.W 8 3
param shared.bwd.U_r 3 3
param shared.bwd.U_u 3 3
param shared.bwd.U 3 3
param attention.fwd.W_r 12 3
param attention.fwd.W_u 12 3
param attention.fwd.W 12 3
param attention.fwd.U_r 3 3
param attention.fwd.U_u 3 3
param attention.fwd.U 3 3
param attention.bwd.W_r 12 3
param attention.bwd.W_u 12 3
param attention.bwd.W 12 3
param attention.bwd.U_r 3 3
param attention.bwd.U_u 3 3
param attention.bwd.U 3 3
"""


@pytest.mark.parametrize(
    "kw, settings",
    [
        (dict(), """\
format_version 1
precision float64
hidden_size 3
embedding_dim 2
candidate_mode window
max_chunk_len 10
scoring dot
normalize_attention 0
pos_tags A B
ne_tags O
"""),
        (dict(candidate_mode="trie", max_chunk_len=4, scoring="cosine", normalize_attention=True), """\
format_version 1
precision float64
hidden_size 3
embedding_dim 2
candidate_mode trie
max_chunk_len 4
scoring cosine
normalize_attention 1
pos_tags A B
ne_tags O
trie_depth_cap 4
trie_pattern 3 A
trie_pattern 1 A B
"""),
    ],
    ids=["window", "trie"],
)
def test_manifest_text_is_pinned(tmp_path, kw, settings):
    # the settings lines follow ModelConfig's fields, so reordering, adding
    # or renaming a field changes this text: a deliberate format change
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=11, **kw), path)
    assert manifest_text(path.read_bytes()) == settings + PARAM_LINES


@pytest.mark.parametrize("field", ["pos_tags", "ne_tags"])
@pytest.mark.parametrize("tag", ["", "A B", "A\tB"])
def test_tag_that_would_split_cannot_be_saved(tmp_path, field, tag):
    m = seeded_model(seed=13)
    m.config = dataclasses.replace(m.config, **{field: (tag,)})
    path = tmp_path / "model.ckpt"
    with pytest.raises(ckpt.CheckpointError, match="cannot be serialized"):
        ckpt.save_checkpoint(m, path)
    assert not path.exists()


def test_checkpoint_module_names_no_setting_but_candidate_mode():
    # the manifest's settings lines come from dataclasses.fields(ModelConfig);
    # only candidate_mode, which decides whether a trie is read, is named
    others = {f.name for f in dataclasses.fields(M.ModelConfig)} - {"candidate_mode"}
    named = set()
    for node in ast.walk(ast.parse(inspect.getsource(ckpt))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)):
            named.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(re.findall(r"\w+", node.value))
    assert named & others == set()


def test_window_checkpoint_with_trie_lines_loads_ignoring_them(tmp_path):
    # format-1 window files written before the model refused a window-mode
    # trie carry trie lines; they load as before, with those lines dropped
    m = seeded_model(seed=12)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    raw = path.read_bytes()
    old = b"ne_tags O\n"
    path.write_bytes(edit_checkpoint(raw, old, old + b"trie_depth_cap 10\ntrie_pattern 2 A\n"))
    loaded = ckpt.load_checkpoint(path)
    assert loaded.config == m.config and loaded.trie is None
    ckpt.save_checkpoint(loaded, tmp_path / "resaved.ckpt")
    assert (tmp_path / "resaved.ckpt").read_bytes() == raw
