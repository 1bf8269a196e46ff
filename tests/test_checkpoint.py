"""Checkpoint round-trips, byte stability, and corruption detection."""

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
    "new, message",
    [
        (b"hidden_size 3" + b"0" * 5000, "hidden_size must be a non-negative integer"),
        (b"hidden_size 999999999999999999", "invalid model settings"),  # too big for numpy
        (b"hidden_size 100000000", "invalid model settings"),  # more than memory can hold
        (b"hidden_size 3\nhidden_size 3", "repeats 'hidden_size'"),
        (b"hidden_size 3\nhidden_sise 3", "unknown manifest key 'hidden_sise'"),
    ],
    ids=["long-integer", "too-big", "out-of-memory", "repeated", "unknown"],
)
def test_manifest_sizes_and_keys_raise_checkpoint_error(tmp_path, new, message):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=9), path)
    path.write_bytes(edit_checkpoint(path.read_bytes(), b"hidden_size 3", new))
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
