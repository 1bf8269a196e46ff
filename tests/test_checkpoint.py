"""Checkpoint round-trips, byte stability, and corruption detection."""

import ast
import dataclasses
import inspect
import os
import re
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import checkpoint as ckpt, model as M
from chunkreader.chunker import CANDIDATE_MODES
from chunkreader.corpus import Featurizer, serializable_tag
from helpers import edit_checkpoint, make_example, toy_embedding_table


def seeded_model(seed=0, **kw):
    cfg = M.ModelConfig(
        hidden_size=3,
        embedding_dim=2,
        pos_tags=("A", "B"),
        ne_tags=("O",),
        **kw,
    )
    trie = {("A",): 3, ("A", "B"): 1} if kw.get("candidate_mode") == "trie" else None
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
    assert loaded.trie == m.trie == {("A",): 3, ("A", "B"): 1}
    assert loaded.config.max_chunk_len == m.config.max_chunk_len


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


@pytest.mark.parametrize("huge", [False, True], ids=["whole", "huge-manifest-size"])
def test_checkpoint_loads_through_a_pipe(tmp_path, huge):
    # a pipe has no size to check a header's manifest size against, so the
    # manifest is read in bounded pieces until it is whole or the data ends
    m = seeded_model(seed=5)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(m, path)
    raw = path.read_bytes()
    if huge:
        raw = raw.replace(b"manifest_bytes ", b"manifest_bytes 99999999999999", 1)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        if huge:
            with pytest.raises(ckpt.CheckpointError, match="^truncated manifest$"):
                ckpt.load_checkpoint(fifo)
        else:
            loaded = ckpt.load_checkpoint(fifo)
            for name, p in m.parameters().items():
                assert np.array_equal(loaded.parameters()[name].data, p.data)
    finally:
        writer.join()


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
        # a size far beyond the file used to be allocated at once: out of
        # memory, with an empty reason
        (b"manifest_bytes ", b"manifest_bytes 99999999999999", "^truncated manifest$"),
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
        # each line the model would not write is refused, naming the
        # first one with the line expected there
        (b"hidden_size 3", b"hidden_size 3\nhidden_size 3",
         r"^manifest line 4: found 'hidden_size 3\\n', expected 'embedding_dim 2\\n'$"),
        (b"hidden_size 3", b"hidden_size 3\nhidden_sise 3",
         r"^manifest line 4: found 'hidden_sise 3\\n', expected 'embedding_dim 2\\n'$"),
        # the tag inventories fix the one-hot layout: a second line used to
        # win silently (here permuting the POS columns), a missing one to
        # load as an empty inventory
        (b"pos_tags A B\n", b"pos_tags A B\npos_tags B A\n",
         r"^manifest line 10: found 'pos_tags B A\\n', expected 'ne_tags O\\n'$"),
        (b"ne_tags O\n", b"ne_tags O\nne_tags O\n",
         r"^manifest line 11: found 'ne_tags O\\n', expected 'param shared.fwd.W_r 8 3\\n'$"),
        (b"pos_tags A B\n", b"", "^manifest missing pos_tags$"),
        (b"ne_tags O\n", b"", "^manifest missing ne_tags$"),
        (b"hidden_size 3", b"hidden_size 3\ntrie_pattern 3",
         r"^manifest line 4: found 'trie_pattern 3\\n', expected 'embedding_dim 2\\n'$"),
        (b"param shared.fwd.U 3 3", b"param shared.fwd.U",
         r"^manifest line 16: found 'param shared.fwd.U\\n', expected 'param shared.fwd.U 3 3\\n'$"),
        (b"format_version 1", b"format_version 2",
         r"^manifest line 1: found 'format_version 2\\n', expected 'format_version 1\\n'$"),
        (b"precision float64", b"precision float32",
         r"^manifest line 2: found 'precision float32\\n', expected 'precision float64\\n'$"),
        (b"param shared.fwd.U 3 3", b"param shared.fwd.V 3 3",
         r"^manifest line 16: found 'param shared.fwd.V 3 3\\n', expected 'param shared.fwd.U 3 3\\n'$"),
    ],
    ids=[
        "long-integer", "too-big", "out-of-memory", "repeated", "unknown",
        "repeated-pos-tags", "repeated-ne-tags", "missing-pos-tags", "missing-ne-tags",
        "short-trie-pattern", "short-param", "format-version", "precision", "param-catalog",
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


@pytest.mark.parametrize(
    "old, new", [(b"pos_tags A B\n", b"pos_tags A\tB\n"), (b"ne_tags O\n", "ne_tags O\u2003\n".encode())]
)
def test_manifest_tag_the_config_refuses_is_invalid_settings(tmp_path, old, new):
    # a tag holding a whitespace character other than a space loaded, and
    # the model then failed at its next save
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=9), path)
    path.write_bytes(edit_checkpoint(path.read_bytes(), old, new))
    with pytest.raises(ckpt.CheckpointError, match="^invalid model settings: tag .* cannot be serialized"):
        ckpt.load_checkpoint(path)


def test_ints_below_10_to_the_18_save_and_load_and_larger_ones_are_refused(tmp_path):
    # max_chunk_len=10**18 in window mode, and a trie count of 10**18,
    # each built a model whose checkpoint load_checkpoint refused
    with pytest.raises(ValueError, match=r"^max_chunk_len must be below 10\*\*18, got 10{18}$"):
        seeded_model(max_chunk_len=10**18)
    trie_config = dataclasses.replace(seeded_model().config, candidate_mode="trie")
    with pytest.raises(ValueError, match=r"^bad trie pattern \('A',\) \(count 10{18}\): .* below 10\*\*18$"):
        M.ChunkReaderModel(trie_config, {("A",): 10**18})
    for model in (seeded_model(max_chunk_len=10**18 - 1),
                  M.ChunkReaderModel(trie_config, {("A",): 10**18 - 1})):
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(model, path)
        loaded = ckpt.load_checkpoint(path)
        assert (loaded.config, loaded.trie) == (model.config, model.trie)


_tags = st.text(min_size=1, max_size=3).filter(serializable_tag)  # non-ASCII too


@st.composite
def models(draw):
    """Any model the constructor accepts, at small sizes, with random
    finite parameters (one entry drawn from every finite float)."""
    config = M.ModelConfig(
        hidden_size=draw(st.integers(1, 3)),
        embedding_dim=draw(st.integers(0, 3)),
        candidate_mode=draw(st.sampled_from(CANDIDATE_MODES)),
        max_chunk_len=draw(st.integers(1, 4)),
        scoring=draw(st.sampled_from(["dot", "cosine"])),
        normalize_attention=draw(st.booleans()),
        pos_tags=tuple(draw(st.lists(_tags, max_size=3))),
        ne_tags=tuple(draw(st.lists(_tags, max_size=3))),
    )
    trie = None
    if config.candidate_mode == "trie":
        patterns = st.lists(_tags, min_size=1, max_size=config.max_chunk_len).map(tuple)
        trie = draw(st.dictionaries(patterns, st.integers(0, 10**18 - 1), max_size=4))
    model = M.ChunkReaderModel(config, trie)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for p in model.parameters().values():
        p.data[...] = rng.normal(size=p.data.shape)
    model.parameters()["shared.fwd.W_r"].data.flat[0] = draw(st.floats(allow_nan=False, allow_infinity=False))
    return model


@settings(max_examples=100, deadline=None)
@given(model=models())
def test_every_model_saves_bytes_that_load_and_save_again_identically(model):
    # a file loads only if its manifest is the one its model writes, so a
    # writer that is not canonical would lock a user out of their own file
    with tempfile.TemporaryDirectory() as root:
        first, second = os.path.join(root, "a.ckpt"), os.path.join(root, "b.ckpt")
        ckpt.save_checkpoint(model, first)
        loaded = ckpt.load_checkpoint(first)
        ckpt.save_checkpoint(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert (loaded.config, loaded.trie) == (model.config, model.trie)
    for name, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data), name


@pytest.mark.parametrize(
    "mode, old, new, message",
    [
        ("window", b"hidden_size 3\n", b"hidden_size 03\n",
         r"^manifest line 3: found 'hidden_size 03\\n', expected 'hidden_size 3\\n'$"),
        ("window", b"pos_tags A B\n", b"pos_tags A  B\n",
         r"^manifest line 9: found 'pos_tags A  B\\n', expected 'pos_tags A B\\n'$"),
        ("window", b"scoring dot\nnormalize_attention 0\n", b"normalize_attention 0\nscoring dot\n",
         r"^manifest line 7: found 'normalize_attention 0\\n', expected 'scoring dot\\n'$"),
        ("window", b"param shared.fwd.U 3 3\n", b"param shared.fwd.U 03 3\n",
         r"^manifest line 16: found 'param shared.fwd.U 03 3\\n', expected 'param shared.fwd.U 3 3\\n'$"),
        ("trie", b"trie_pattern 3 A\n", b"trie_pattern 03 A\n",
         r"^manifest line 12: found 'trie_pattern 03 A\\n', expected 'trie_pattern 3 A\\n'$"),
    ],
    ids=["leading-zero", "doubled-space", "swapped-lines", "param-leading-zero", "pattern-leading-zero"],
)
def test_spelling_no_writer_produces_is_refused(tmp_path, mode, old, new, message):
    # each file used to load as the saved model: the loader read every line
    # by its own rule, not by the manifest the model writes
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=14, candidate_mode=mode), path)
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


def test_trie_checkpoint_refuses_a_repeated_pattern(tmp_path):
    # the loader used to add up the counts: this file loaded as {("A",): 5}
    path = tmp_path / "trie.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=10, candidate_mode="trie"), path)
    old = b"trie_pattern 3 A\n"
    path.write_bytes(edit_checkpoint(path.read_bytes(), old, old + b"trie_pattern 2 A\n"))
    message = r"^manifest line 13: found 'trie_pattern 2 A\\n', expected 'trie_pattern 1 A B\\n'$"
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)


def test_trie_checkpoint_refuses_a_pattern_no_model_holds(tmp_path):
    # a doubled space reads as an empty tag, which the model's table refuses
    path = tmp_path / "trie.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=10, candidate_mode="trie"), path)
    old = b"trie_pattern 1 A B\n"
    path.write_bytes(edit_checkpoint(path.read_bytes(), old, b"trie_pattern 1 A  B\n"))
    with pytest.raises(ckpt.CheckpointError, match=r"^invalid model settings: bad trie pattern \('A', '', 'B'\) "):
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
def test_tag_that_would_split_cannot_be_saved(field, tag):
    # the model config refuses the tag, so no model holding it reaches
    # save_checkpoint (a library model trained with it and failed at save)
    config = seeded_model(seed=13).config
    with pytest.raises(ValueError, match=r"^tag .* cannot be serialized \(whitespace\)$"):
        dataclasses.replace(config, **{field: (tag,)})


def test_checkpoint_module_names_no_setting_but_candidate_mode():
    # the manifest's settings lines come from dataclasses.fields(ModelConfig);
    # only candidate_mode, which decides whether a trie is read, and
    # max_chunk_len, which the trie_depth_cap line repeats, are named
    others = {f.name for f in dataclasses.fields(M.ModelConfig)} - {"candidate_mode", "max_chunk_len"}
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


def test_window_checkpoint_with_trie_lines_is_refused(tmp_path):
    # format-1 window files written before the model refused a window-mode
    # trie carry trie lines, which no model writes back: such a file used
    # to load with those lines dropped, and now must be saved again by a
    # version that loads it
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(seeded_model(seed=12), path)
    old = b"ne_tags O\n"
    path.write_bytes(edit_checkpoint(path.read_bytes(), old, old + b"trie_depth_cap 10\ntrie_pattern 2 A\n"))
    message = r"^manifest line 11: found 'trie_depth_cap 10\\n', expected 'param shared.fwd.W_r 8 3\\n'$"
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)
