"""Optimizer pieces, batching, filtering, and the training loop."""

import dataclasses
import gc
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import model as M, numerics as nm, trainer as tr
from chunkreader.chunker import CandidateChunk, enumerate_candidates
from chunkreader.corpus import AnswerSpan, DataError, EmbeddingTable, Featurizer, detokenize
from chunkreader.model import ChunkReaderModel, ModelConfig, nll_loss
from chunkreader.synthetic import SyntheticSpec, generate
from chunkreader.checkpoint import load_checkpoint, save_checkpoint
from helpers import assert_views_of_blocks, make_example


def tiny_setup(n=8, seed=0, hidden=6, max_chunk_len=4):
    examples, table = generate(
        SyntheticSpec(n_examples=n, seed=seed, passage_len=(6, 9), answer_len=(1, 2))
    )
    from chunkreader.corpus import build_tag_inventories

    pos, ne = build_tag_inventories(examples)
    mc = ModelConfig(
        hidden_size=hidden,
        embedding_dim=table.dim,
        pos_tags=pos,
        ne_tags=ne,
        max_chunk_len=max_chunk_len,
    )
    model = ChunkReaderModel(mc)
    fz = Featurizer(table, pos, ne)
    return model, fz, examples


def tiny_config(**kw):
    base = dict(
        learning_rate=0.05,
        batch_size=4,
        hidden_size=6,
        dropout_rate=0.0,
        max_epochs=3,
        patience=2,
        max_chunk_len=4,
        seed=11,
    )
    base.update(kw)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# init


def test_init_parameters_within_range_and_deterministic():
    model, _, _ = tiny_setup()
    tr.init_parameters(model, nm.SeededRng(3), 0.01)
    snapshot = {k: p.data.copy() for k, p in model.parameters().items()}
    for arr in snapshot.values():
        assert np.all(arr > -0.01) and np.all(arr < 0.01)
        assert np.any(arr != 0.0)
    tr.init_parameters(model, nm.SeededRng(3), 0.01)
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, snapshot[k])


def test_init_draws_are_centered():
    rng = nm.SeededRng(5)
    draws = rng.uniform(-0.01, 0.01, 100_000)
    assert abs(draws.mean()) < 0.0002


# ---------------------------------------------------------------------------
# clip


def test_clip_scales_above_threshold():
    a = np.full(9, 5.0)  # norm 15
    b = np.zeros(3)
    norm = tr.clip_gradients([a, b], 10.0)
    assert norm == pytest.approx(15.0)
    assert np.allclose(a, 5.0 * (10.0 / 15.0))


def test_clip_leaves_small_gradients_alone():
    a = np.array([3.0, 4.0])  # norm 5
    norm = tr.clip_gradients([a], 10.0)
    assert norm == pytest.approx(5.0)
    assert np.array_equal(a, [3.0, 4.0])


def test_clip_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        tr.clip_gradients([np.ones(2)], 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), clip=st.floats(0.1, 20.0))
def test_property_post_clip_norm_bounded(seed, clip):
    rng = np.random.default_rng(seed)
    grads = [rng.normal(scale=3.0, size=s) for s in [(4, 3), (7,), (2, 2)]]
    tr.clip_gradients(grads, clip)
    post = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert post <= clip + 1e-9


# ---------------------------------------------------------------------------
# adam


def make_scalar_param(value=1.0):
    p = nm.parameter(np.array([value]))
    return {"theta": p}, p


def test_adam_first_step_is_minus_lr():
    params, p = make_scalar_param(0.5)
    state = tr.AdamState(params)
    tr.adam_step(params, {"theta": np.array([1.0])}, state, lr=0.001)
    # after bias correction the first update is -lr/(1 + eps), i.e. -lr
    # up to a 1e-11 shift from the denominator epsilon
    assert p.data[0] == pytest.approx(0.5 - 0.001, abs=1e-10)
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    params, p = make_scalar_param(0.7)
    state = tr.AdamState(params)
    for _ in range(5):
        tr.adam_step(params, {"theta": np.zeros(1)}, state, lr=0.1)
    assert p.data[0] == pytest.approx(0.7)


def test_adam_missing_gradient_treated_as_zero():
    params, p = make_scalar_param(0.7)
    state = tr.AdamState(params)
    tr.adam_step(params, {}, state, lr=0.1)
    assert p.data[0] == pytest.approx(0.7)
    assert state.t == 1


def test_adam_shape_mismatch():
    params, _ = make_scalar_param()
    state = tr.AdamState(params)
    with pytest.raises(nm.ShapeError):
        tr.adam_step(params, {"theta": np.zeros(3)}, state, lr=0.1)


def test_adam_converges_on_scalar_quadratic():
    # minimizing theta^2 from theta=1; each step moves at most ~lr, so the
    # run uses lr=0.02 (0.001 cannot cover the unit distance in 200 steps)
    params, p = make_scalar_param(1.0)
    state = tr.AdamState(params)
    for _ in range(200):
        tr.adam_step(params, {"theta": 2.0 * p.data}, state, lr=0.02)
    assert abs(p.data[0]) < 0.01


def test_adam_matches_textbook_update_bit_for_bit():
    rng = np.random.default_rng(1)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2)}
    params = {k: nm.parameter(rng.normal(size=s)) for k, s in shapes.items()}
    state = tr.AdamState(params)
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.01
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 8):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        if t == 3:
            del grads["b"]  # a missing gradient counts as zeros
        tr.adam_step(params, grads, state, lr)
        for k in shapes:
            g = grads.get(k, np.zeros(shapes[k]))
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[k].data, ref[k]), (t, k)
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])


def test_adam_second_moment_nonnegative():
    params, p = make_scalar_param(1.0)
    state = tr.AdamState(params)
    rng = np.random.default_rng(0)
    for _ in range(50):
        tr.adam_step(params, {"theta": rng.normal(size=1)}, state, lr=0.01)
    assert state.v["theta"][0] >= 0.0


# ---------------------------------------------------------------------------
# filtering and truncation


def test_filter_keeps_reachable_gold():
    ex = make_example("a", ["x", "y", "z", "w"], ["q"], [(3, 4)])
    cands = enumerate_candidates(4, 10)
    idx = tr.filter_trainable(ex, cands)
    assert idx is not None
    assert (cands[idx].start, cands[idx].end) == (3, 4)


def test_filter_skips_gold_longer_than_window():
    words = [f"w{i}" for i in range(15)]
    ex = make_example("a", words, ["q"], [(1, 12)])
    assert tr.filter_trainable(ex, enumerate_candidates(15, 10)) is None


def test_filter_prefers_first_qualifying_gold():
    ex = make_example("a", ["x", "y", "z", "w", "v"], ["q"], [(1, 4), (2, 2), (3, 3)])
    cands = enumerate_candidates(5, 2)  # (1,4) too long for the window
    idx = tr.filter_trainable(ex, cands)
    assert (cands[idx].start, cands[idx].end) == (2, 2)


def test_truncate_cuts_passages_and_answers():
    words = [f"w{i}" for i in range(12)]
    keepable = make_example("a", words, ["q"], [(2, 3), (9, 11)])
    doomed = make_example("b", words, ["q"], [(9, 11)])
    short = make_example("c", ["a", "b"], ["q"], [(1, 1)])
    kept, dropped = tr.truncate_for_training([keepable, doomed, short], 8)
    assert dropped == 1
    assert [ex.id for ex in kept] == ["a", "c"]
    assert len(kept[0].passage) == 8
    assert [(a.start, a.end) for a in kept[0].answers] == [(2, 3)]
    assert kept[1] is short  # within limit: untouched object


# ---------------------------------------------------------------------------
# batching


def prepared_with_lengths(lengths, width=3):
    out = []
    for i, L in enumerate(lengths):
        ex = make_example(f"e{i}", [f"w{j}" for j in range(L)], ["q"], [(1, 1)])
        out.append(
            tr.PreparedExample(
                example=ex,
                passage_features=np.full((L, width), float(i)),
                question_features=np.ones((2, width)),
                candidates=[CandidateChunk(1, 1)],
                gold_index=0,
            )
        )
    return out


def test_batches_sizes_and_remainder():
    prepared = prepared_with_lengths([5] * 10)
    cfg = tiny_config(batch_size=4)
    batches = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    assert [len(b) for b in batches] == [4, 4, 2]


def test_batches_sorted_by_length_within_group():
    prepared = prepared_with_lengths(list(np.random.default_rng(0).integers(3, 30, size=20)))
    cfg = tiny_config(batch_size=5, curriculum_group=4)  # one group covers all 20
    batches = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    lengths = [pe.passage_len for b in batches for pe in b.items]
    assert lengths == sorted(lengths)


def test_batches_local_sort_not_global():
    # two curriculum groups: each sorted internally, but the boundary may
    # go backwards, proving the sort is local to the group
    prepared = prepared_with_lengths(list(np.random.default_rng(1).integers(3, 40, size=24)))
    cfg = tiny_config(batch_size=3, curriculum_group=4)  # group span 12
    batches = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    lengths = [pe.passage_len for b in batches for pe in b.items]
    first, second = lengths[:12], lengths[12:]
    assert first == sorted(first) and second == sorted(second)


def test_batches_preserve_example_multiset():
    prepared = prepared_with_lengths([4, 7, 3, 9, 5, 6, 8, 2])
    cfg = tiny_config(batch_size=3)
    batches = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=2)
    seen = sorted(pe.example.id for b in batches for pe in b.items)
    assert seen == sorted(pe.example.id for pe in prepared)


def test_batches_deterministic_and_epoch_sensitive():
    prepared = prepared_with_lengths([4, 7, 3, 9, 5, 6, 8, 2] * 2)
    cfg = tiny_config(batch_size=4, curriculum_group=1)
    ids = lambda bs: [[pe.example.id for pe in b.items] for b in bs]
    a = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    b = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    c = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=1)
    assert ids(a) == ids(b)
    assert ids(a) != ids(c)


def test_batch_padding_and_masks():
    prepared = prepared_with_lengths([2, 5])
    cfg = tiny_config(batch_size=2, curriculum_group=1)
    (batch,) = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    assert batch.passages.shape == (2, 5, 3)
    order = [pe.passage_len for pe in batch.items]
    for i, L in enumerate(order):
        assert np.all(batch.passage_mask[i, :L] == 1.0)
        assert np.all(batch.passage_mask[i, L:] == 0.0)
        assert np.all(batch.passages[i, L:] == 0.0)
    assert np.all(batch.question_mask == 1.0)  # questions all length 2
    assert batch.passage_mask.dtype == batch.question_mask.dtype == np.float64


def test_make_batches_empty_input():
    cfg = tiny_config()
    assert tr.make_batches([], cfg, nm.SeededRng(0), epoch=0) == []


# ---------------------------------------------------------------------------
# config file parsing


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# toy settings\n"
        "learning_rate 0.05\n"
        "batch_size 4\n"
        "hidden_size 6\n"
        "seed 9  # inline comment\n"
        "candidate_mode window\n"
    )
    cfg = tr.load_train_config(path)
    assert cfg.learning_rate == 0.05
    assert cfg.batch_size == 4
    assert cfg.seed == 9
    assert cfg.max_epochs == 30  # untouched default


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("turbo_mode yes\n")
    with pytest.raises(ValueError, match="turbo_mode"):
        tr.load_train_config(path)


def test_load_config_rejects_a_repeated_key_naming_both_lines(tmp_path):
    # the last value used to win silently
    path = tmp_path / "twice.cfg"
    path.write_text("batch_size 4\n# again\nbatch_size 6\n")
    with pytest.raises(ValueError, match=r"^line 1 and line 3: batch_size is repeated$"):
        tr.load_train_config(path)


def test_load_config_value_error_names_its_line_and_key(tmp_path):
    path = tmp_path / "bad_value.cfg"
    path.write_text("seed 1\nbatch_size 4 8\n")
    message = r"^line 2: batch_size must be a non-negative integer below 10\*\*18, got '4 8'$"
    with pytest.raises(ValueError, match=message):
        tr.load_train_config(path)
    path.write_text("seed 1\nbatch_size  # no value\n")
    with pytest.raises(ValueError, match=r"^line 2: expected 'key value', got 'batch_size'$"):
        tr.load_train_config(path)
    message = r"^--set learning_rate=fast: learning_rate must be a number, got 'fast'$"
    with pytest.raises(ValueError, match=message):
        tr.load_train_config(sets=["learning_rate=fast"])


def test_load_config_overrides(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("seed 1\nbatch_size 8\n")
    cfg = tr.load_train_config(path, sets=["seed=99"])
    assert cfg.seed == 99 and cfg.batch_size == 8
    assert tr.load_train_config(sets=["seed=3"]) == tr.TrainConfig(seed=3)
    sets = ["learning_rate=1e-3", "clip_norm=5", "init_range=.5", "dropout_rate=0"]
    assert tr.load_train_config(sets=sets) == tr.TrainConfig(
        learning_rate=1e-3, clip_norm=5.0, init_range=0.5, dropout_rate=0.0
    )
    assert tr.load_train_config() == tr.TrainConfig()


def test_load_config_non_utf8_line_is_named(tmp_path):
    # the file used to be decoded whole, so the error named a byte offset
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed 1\nbatch_size \xff4\n")
    with pytest.raises(ValueError, match=r"^line 2: not valid UTF-8$"):
        tr.load_train_config(path)


@pytest.mark.parametrize(
    "sets, message",
    [
        (["batch_size=x", "batch_size=4"], "--set batch_size=x and --set batch_size=4: batch_size is repeated"),
        (["seed=1", "turbo=yes"], "--set turbo=yes: unknown config key 'turbo'"),
        (["seed"], "--set expects KEY=VALUE, got 'seed'"),
    ],
    ids=["repeated", "unknown", "no-equals"],
)
def test_load_config_set_error_names_the_string_as_given(tmp_path, sets, message):
    path = tmp_path / "train.cfg"
    path.write_text("batch_size 8\n")
    with pytest.raises(ValueError) as info:
        tr.load_train_config(path, sets)
    assert str(info.value) == message


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(seed=-1)
    with pytest.raises(ValueError):
        tr.TrainConfig(candidate_mode="magic")
    # nan passes `value <= 0`; inf and an init draw of width 2 * init_range
    # that overflows must fail here, not as NaN parameters or a traceback;
    # an int beyond the float range raised OverflowError
    for field in ("learning_rate", "clip_norm", "dropout_rate", "init_range"):
        for value in (float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)):
            with pytest.raises(ValueError, match=field):
                tr.TrainConfig(**{field: value})
    for value in (1e308, 10**308):
        with pytest.raises(ValueError, match="init_range"):
            tr.TrainConfig(init_range=value)
    tr.TrainConfig(init_range=1e307)


def test_config_positive_settings_and_the_first_error():
    positive = [
        "learning_rate", "batch_size", "clip_norm", "hidden_size", "max_passage_len",
        "max_epochs", "patience", "curriculum_group", "init_range", "max_chunk_len",
    ]
    for name in positive:
        with pytest.raises(ValueError, match=f"^{name} must be positive, got 0$"):
            tr.TrainConfig(**{name: 0})
    tr.TrainConfig(dropout_rate=0.0, seed=0)
    # two bad settings: the first in declaration order is reported
    with pytest.raises(ValueError, match="^batch_size must be positive, got -2$"):
        tr.TrainConfig(max_chunk_len=0, batch_size=-2)


def test_config_numbers_are_ints_where_the_field_is_an_int():
    # batch_size=True and max_epochs=2.5 were accepted, and seed=1.5 trained
    # with seed 1
    for name, value in (("batch_size", True), ("max_epochs", 2.5), ("hidden_size", 3.0),
                        ("seed", 1.5), ("patience", np.True_), ("max_chunk_len", "3")):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            tr.TrainConfig(**{name: value})
    for value in (True, "0.1"):  # a float setting takes an int, not a bool or a str
        with pytest.raises(ValueError, match="^learning_rate must be a number, got "):
            tr.TrainConfig(learning_rate=value)
    assert tr.TrainConfig(learning_rate=1, seed=np.int64(2)).learning_rate == 1


# ---------------------------------------------------------------------------
# training loop


def test_train_errors_on_empty_trainable_set():
    model, fz, examples = tiny_setup()
    # window of 1 token cannot contain the length-2 golds... make all golds
    # unreachable by truncating passages to 1 token
    cfg = tiny_config(max_passage_len=1)
    with pytest.raises(ValueError, match="no trainable examples"):
        tr.train(model, fz, examples, examples, cfg, echo=lambda s: None)


def test_train_failures_are_data_errors_raised_before_any_epoch(tmp_path, monkeypatch):
    # the dev checks run before the first epoch: a dev set evaluate cannot
    # score used to fail only after a whole epoch of training
    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch started before the inputs were checked")

    monkeypatch.setattr(tr, "make_batches", no_epoch)
    model, fz, examples = tiny_setup()
    no_gold = dataclasses.replace(examples[1], answers=())
    cases = [
        (tiny_config(max_passage_len=1), examples,
         "no trainable examples: 8 given, 8 lost all answers to truncation, "
         "0 had no gold span in the candidate set"),
        (tiny_config(), [], "cannot evaluate an empty dataset"),
        (tiny_config(), [examples[0], no_gold], f"example {no_gold.id!r} has no gold answers"),
    ]
    echoed = []
    ckpt = tmp_path / "m.ckpt"
    for cfg, dev, message in cases:
        with pytest.raises(DataError) as info:
            tr.train(model, fz, examples, dev, cfg, checkpoint_path=ckpt, echo=echoed.append)
        assert str(info.value) == message
    assert echoed == [] and not ckpt.exists()


@pytest.mark.parametrize(
    "name, value", [("hidden_size", 5), ("candidate_mode", "trie"), ("max_chunk_len", 3)]
)
def test_train_rejects_a_config_that_disagrees_with_the_model(monkeypatch, name, value):
    # training reads these fields from model.config: a config that said
    # otherwise used to train the model's values without a word
    def no_init(*args, **kwargs):
        raise AssertionError("parameters were initialized before the config was checked")

    monkeypatch.setattr(tr, "init_parameters", no_init)
    model, fz, examples = tiny_setup()
    built = getattr(model.config, name)
    with pytest.raises(ValueError) as info:
        tr.train(model, fz, examples, examples, tiny_config(**{name: value}), echo=lambda s: None)
    assert str(info.value) == f"config {name} {value!r} differs from the model's {built!r}"


def test_train_and_answers_reject_a_featurizer_that_does_not_fit_the_model(monkeypatch):
    # a featurizer given the model's POS tags in reverse order (same width)
    # trained an epoch and answered, with permuted one-hot columns
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the featurizer was checked")

    model, fz, examples = tiny_setup()
    pos, ne, table = fz.pos_tags, fz.ne_tags, fz.table
    wider = EmbeddingTable(table.dim + 1, {})
    for bad, name, given, built in (
        (Featurizer(table, pos[::-1], ne), "pos_tags", pos[::-1], pos),
        (Featurizer(table, pos, ne[:-1]), "ne_tags", ne[:-1], ne),
        (Featurizer(wider, pos, ne), "embedding width", table.dim + 1, table.dim),
    ):
        message = f"featurizer {name} {given!r} differs from the model's {built!r}"
        with monkeypatch.context() as m:
            m.setattr(tr, "prepare_examples", no_work)
            with pytest.raises(ValueError) as info:
                tr.train(model, bad, examples, examples, tiny_config(max_epochs=1))
            assert str(info.value) == message
            m.setattr(model, "forward_batch", no_work)
            with pytest.raises(ValueError) as info:
                model.answers(examples, bad)
            assert str(info.value) == message


def test_train_loss_decreases_on_fixed_batch():
    model, fz, examples = tiny_setup(n=4, seed=1)
    cfg = tiny_config(batch_size=4, learning_rate=0.001, max_epochs=1)
    truncated, _ = tr.truncate_for_training(examples, cfg.max_passage_len)
    prepared, _ = tr.prepare_examples(truncated, model, fz)
    tr.init_parameters(model, nm.SeededRng(cfg.seed), cfg.init_range)
    params = model.parameters()
    state = tr.AdamState(params)
    (batch,) = tr.make_batches(prepared, cfg, nm.SeededRng(cfg.seed), epoch=0)
    rng = nm.SeededRng(cfg.seed + 100)
    losses = []
    for _ in range(11):
        model.zero_grads()
        with nm.Tape() as tape:
            loss = tr._batch_loss(model, batch, cfg, rng)
            tape.backward(loss)
        losses.append(float(loss.data))
        grads = {k: p.grad for k, p in params.items()}
        tr.clip_gradients([g for g in grads.values() if g is not None], cfg.clip_norm)
        tr.adam_step(params, grads, state, cfg.learning_rate)
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
    assert drops >= 8, f"loss decreased only {drops}/10 times: {losses}"


# ---------------------------------------------------------------------------
# the batched step


def random_batch(lengths, normalize=False, dropout_rate=0.2, seed=0, d=5, max_chunk_len=3,
                 scoring="dot"):
    """A model and one batch of random examples with the given (passage,
    question) lengths, gold candidates drawn at random."""
    rng = np.random.default_rng(seed)
    mc = ModelConfig(hidden_size=d, embedding_dim=4, pos_tags=("A", "B"), ne_tags=("O",),
                     max_chunk_len=max_chunk_len, normalize_attention=normalize, scoring=scoring)
    model = ChunkReaderModel(mc)
    for p in model.parameters().values():
        p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    prepared = []
    for T, K in lengths:
        cands = enumerate_candidates(T, max_chunk_len)
        prepared.append(tr.PreparedExample(
            None, rng.normal(size=(T, mc.input_width)), rng.normal(size=(K, mc.input_width)),
            cands, int(rng.integers(len(cands))),
        ))
    cfg = tiny_config(batch_size=len(lengths), hidden_size=d, max_chunk_len=max_chunk_len,
                      dropout_rate=dropout_rate)
    (batch,) = tr.make_batches(prepared, cfg, nm.SeededRng(seed), epoch=0)
    return model, cfg, batch, prepared


def step_grads(model, loss_fn):
    """Loss, gradients and tape length of one taped step."""
    model.zero_grads()
    with nm.Tape() as tape:
        loss = loss_fn()
        nodes = len(tape)
        tape.backward(loss)
    return float(loss.data), {k: p.grad.copy() for k, p in model.parameters().items()}, nodes


def per_example_loss(model, batch, cfg, rng):
    """The batch loss the way it was computed before batching: one
    model.forward per example, in batch order."""
    losses = []
    for i, pe in enumerate(batch.items):
        scored = model.forward(
            batch.passages[i], batch.questions[i], pe.candidates, pe.passage_len, pe.question_len,
            dropout_rate=cfg.dropout_rate, rng=rng, training=True,
        )
        losses.append(nll_loss(scored, pe.candidates[pe.gold_index]))
    return nm.scale(reduce(nm.add, losses), 1.0 / len(losses))


@pytest.mark.parametrize("normalize", [False, True])
def test_batched_step_matches_per_example_step(normalize):
    # mixed passage and question lengths, so both blocks carry padding
    lengths = [(7, 3), (4, 5), (9, 2), (4, 4), (6, 5)]
    model, cfg, batch, _ = random_batch(lengths, normalize=normalize)
    rngs = [nm.SeededRng(3), nm.SeededRng(3)]
    loss, grads, _ = step_grads(model, lambda: tr._batch_loss(model, batch, cfg, rngs[0]))
    ref_loss, ref_grads, _ = step_grads(model, lambda: per_example_loss(model, batch, cfg, rngs[1]))
    assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-10 * np.max(np.abs(ref)), name
    # the dropout draws consumed the same stretch of the stream
    assert np.array_equal(rngs[0].random(8), rngs[1].random(8))


def test_batched_example_loss_ignores_its_neighbours():
    # the same example (drawn first from the same seed) next to different
    # neighbours, so with different padding and row order, gets the same loss
    losses = []
    for others in ([(9, 5), (3, 2)], [(4, 4)], [(6, 6), (6, 3), (11, 1)]):
        model, _, batch, prepared = random_batch([(6, 3)] + others, dropout_rate=0.0, seed=4)
        scored = model.forward_batch(
            batch.passages, batch.questions, [pe.candidates for pe in batch.items],
            [pe.passage_len for pe in batch.items], [pe.question_len for pe in batch.items],
        )
        i = next(i for i, pe in enumerate(batch.items) if pe is prepared[0])
        pe = prepared[0]
        losses.append(float(nll_loss(scored[i], pe.candidates[pe.gold_index]).data))
    for loss in losses[1:]:
        assert abs(loss - losses[0]) <= 1e-12 * abs(losses[0])


def test_batched_step_tape_does_not_grow_with_length():
    counts = set()
    for scale in (1, 3):
        lengths = [(5 * scale, 2 * scale), (3 * scale, 3 * scale), (4 * scale, scale)]
        model, cfg, batch, _ = random_batch(lengths, seed=5)
        counts.add(step_grads(model, lambda: tr._batch_loss(model, batch, cfg, nm.SeededRng(0)))[2])
    assert len(counts) == 1


def test_batched_step_tape_is_ten_plus_three_nodes_per_example():
    # nine nodes for the batch's encoders and attention, three per example
    # (chunk rows, question rows, scores) and one mean NLL for the batch
    lengths = [(5, 2), (3, 3), (4, 1), (6, 4), (2, 2)]
    for B in (1, 2, 5):
        model, cfg, batch, _ = random_batch(lengths[:B], seed=5)
        nodes = step_grads(model, lambda: tr._batch_loss(model, batch, cfg, nm.SeededRng(0)))[2]
        assert nodes == 10 + 3 * B


def test_backward_frees_each_node_once_it_has_passed_it():
    model, cfg, batch, _ = random_batch([(9, 3), (6, 5), (7, 2)], d=4)
    model.zero_grads()
    with nm.Tape() as tape:
        loss = tr._batch_loss(model, batch, cfg, nm.SeededRng(0))
        recorded = len(tape)
        # the attention encoder's (B, T, 4d) input block, and a passage
        # state block the caller keeps hold of
        fused = weakref.ref(next(
            out.data for out, _, _ in tape.nodes if out.data.shape == (3, 9, 16)
        ))
        kept = tape.nodes[0][0]
        tape.backward(loss)
    gc.collect()
    assert fused() is None
    assert tape.nodes and len(tape) == recorded
    assert isinstance(kept.grad, np.ndarray) and kept.grad.shape == kept.data.shape
    assert all(p.grad is not None for p in model.parameters().values())
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_peak_memory_stays_near_the_forward_state():
    # released nodes and handed-over gradients bound what backward adds to
    # the live forward state; holding every node and copying every fresh
    # gradient took the peak to more than twice the forward state
    lengths = [(25, 6), (31, 4), (36, 7), (40, 5)]
    model, cfg, batch, _ = random_batch(lengths, d=32, max_chunk_len=10, seed=6)
    model.zero_grads()
    tracemalloc.start()
    try:
        with nm.Tape() as tape:
            loss = tr._batch_loss(model, batch, cfg, nm.SeededRng(1))
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * live, f"backward peak {peak} B against {live} B live after the forward"


def test_recorded_forward_holds_memory_linear_in_batch_and_length():
    # what the tape holds after one recorded forward, per example, grows at
    # most in proportion to the passage length and not with the batch
    held = {}
    for B in (2, 4):
        for T in (40, 80):
            model, cfg, batch, _ = random_batch([(T, 5)] * B, d=8, max_chunk_len=10, seed=8)
            tracemalloc.start()
            try:
                with nm.Tape():
                    start = tracemalloc.get_traced_memory()[0]
                    loss = tr._batch_loss(model, batch, cfg, nm.SeededRng(1))
                    held[B, T] = (tracemalloc.get_traced_memory()[0] - start) / B
            finally:
                tracemalloc.stop()
            del loss
    for (B, T), per_example in held.items():
        bound = 1.1 * T / 40 * held[2, 40]
        assert per_example <= bound, f"B={B} T={T}: {per_example:.0f} B per example, bound {bound:.0f}"


def test_cell_parameters_stay_views_of_their_blocks(tmp_path):
    # a scan reads a cell's stacked blocks, so every way weights are
    # written (init, clipping and ADAM, a checkpoint load) must fill the
    # parameters' arrays in place, never replace them
    model, cfg, batch, _ = random_batch([(7, 3), (4, 5)], seed=9)

    def cells(m):
        return [c for e in (m.shared_encoder, m.attention_encoder) for c in (e.forward_cell, e.backward_cell)]

    tr.init_parameters(model, nm.SeededRng(1), 0.1)
    for cell in cells(model):
        assert_views_of_blocks(cell)
    params = model.parameters()
    before = {k: p.data.copy() for k, p in params.items()}
    with nm.Tape() as tape:
        tape.backward(tr._batch_loss(model, batch, cfg, nm.SeededRng(2)))
    grads = {k: p.grad for k, p in params.items()}
    assert tr.clip_gradients(list(grads.values()), 1e-3) > 1e-3
    tr.adam_step(params, grads, tr.AdamState(params), 0.01)
    for cell in cells(model):
        assert_views_of_blocks(cell)
    assert not any(np.array_equal(p.data, before[k]) for k, p in params.items())
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    for cell in cells(loaded):
        assert_views_of_blocks(cell)
    for p, q in zip(params.values(), loaded.parameters().values()):
        assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("scoring", ["dot", "cosine"])
@pytest.mark.parametrize("normalize", [False, True])
def test_no_two_gradients_share_memory(scoring, normalize):
    # handed-over gradients are fresh arrays, and every view or alias (a
    # concat slice, a gradient an add passes through) is still copied
    model, cfg, batch, _ = random_batch(
        [(7, 3), (4, 5), (9, 2)], normalize=normalize, scoring=scoring, seed=7
    )
    model.zero_grads()
    with nm.Tape() as tape:
        loss = tr._batch_loss(model, batch, cfg, nm.SeededRng(2))
        held = {id(t): t for out, inputs, _ in tape.nodes for t in (out, *inputs)}
        tape.backward(loss)
    grads = [t.grad for t in held.values() if t.grad is not None]
    assert len(grads) > len(model.parameters())
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)


def test_train_runs_and_logs(tmp_path):
    model, fz, examples = tiny_setup(n=6, seed=2)
    cfg = tiny_config(max_epochs=2, batch_size=3)
    log = tmp_path / "train.log"
    ckpt = tmp_path / "best.ckpt"
    result = tr.train(
        model, fz, examples, examples, cfg,
        log_path=log, checkpoint_path=ckpt, echo=lambda s: None,
    )
    assert result.epochs_run == 2
    assert len(result.log_lines) == 2
    assert ckpt.exists()
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 2
    for i, line in enumerate(lines):
        cols = line.split("\t")
        assert cols[0] == str(i + 1)
        float(cols[1]); float(cols[2]); float(cols[3])
        assert len(cols) == 4  # no wall time in the persisted log


def test_train_is_bitwise_deterministic(tmp_path):
    def run(tag):
        model, fz, examples = tiny_setup(n=6, seed=3)
        cfg = tiny_config(max_epochs=2, batch_size=3, dropout_rate=0.2)
        log = tmp_path / f"{tag}.log"
        ckpt = tmp_path / f"{tag}.ckpt"
        tr.train(model, fz, examples, examples, cfg,
                 log_path=log, checkpoint_path=ckpt, echo=lambda s: None)
        return log.read_bytes(), ckpt.read_bytes()

    log1, ckpt1 = run("a")
    log2, ckpt2 = run("b")
    assert log1 == log2
    assert ckpt1 == ckpt2


def test_train_dev_pass_scores_at_most_answer_batch_examples_per_call(monkeypatch):
    # the model bounds each inference batch, not batch_size: 40 dev
    # examples under batch_size 64 are scored 16, 16 and 8 at a time
    model, fz, examples = tiny_setup(n=48, seed=6)
    train_examples, dev_examples = examples[:8], examples[8:]
    params = list(model.parameters().values())
    unrecorded = []
    forward_batch = ChunkReaderModel.forward_batch

    def spy(self, passages, questions, candidates, *args, **kwargs):
        if not nm.recording(params):
            unrecorded.append(len(candidates))
        return forward_batch(self, passages, questions, candidates, *args, **kwargs)

    monkeypatch.setattr(ChunkReaderModel, "forward_batch", spy)
    tr.train(model, fz, train_examples, dev_examples, tiny_config(max_epochs=1, batch_size=64),
             echo=lambda s: None)
    assert len(dev_examples) == 40
    assert unrecorded == [M.ANSWER_BATCH, M.ANSWER_BATCH, 40 - 2 * M.ANSWER_BATCH]


def test_train_early_stops_on_stagnant_em():
    model, fz, examples = tiny_setup(n=6, seed=4)
    # learning rate zero is invalid per config; freeze instead via a tiny
    # lr and patience 2 with EM pinned by an untrainable setup is fragile,
    # so instead verify the stop arithmetic: patience 1 halts after the
    # first epoch without strict improvement
    cfg = tiny_config(max_epochs=10, patience=1, learning_rate=1e-9)
    result = tr.train(model, fz, examples, examples, cfg, echo=lambda s: None)
    # epoch 1 sets the baseline; epoch 2 cannot strictly improve with a
    # frozen model, so the run stops at 2 epochs
    assert result.epochs_run == 2
    assert result.best_epoch == 1


def test_train_stats_surface_filtering():
    model, fz, examples = tiny_setup(n=6, seed=5)
    cfg = tiny_config(max_epochs=1)
    result = tr.train(model, fz, examples, examples, cfg, echo=lambda s: None)
    assert result.stats["train_examples"] == 6
    assert result.stats["trainable"] == 6
    assert result.stats["dropped_by_truncation"] == 0
    assert result.stats["dropped_by_candidate_filter"] == 0
    # a window example whose only answer is longer than max_chunk_len (4)
    # has no gold candidate, so the filter drops it
    passage = examples[0].passage
    too_long = dataclasses.replace(
        examples[0], id="too-long", answers=(AnswerSpan(1, 5, detokenize(passage[:5])),)
    )
    result = tr.train(model, fz, examples + [too_long], examples, cfg, echo=lambda s: None)
    assert result.stats["train_examples"] == 7
    assert result.stats["dropped_by_candidate_filter"] == 1
    assert result.stats["trainable"] == 6


def test_train_skips_non_finite_steps():
    # one word's vector is NaN, so every batch holding example 0 has a NaN
    # loss and gradient; those steps must leave the parameters untouched
    model, fz, examples = tiny_setup(n=6, seed=6)
    others = {t.surface.lower() for ex in examples[1:] for t in ex.passage + ex.question}
    word = next(t.surface.lower() for t in examples[0].passage if t.surface.lower() not in others)
    entries = dict(fz.table.entries, **{word: np.full(fz.table.dim, np.nan)})
    fz = Featurizer(EmbeddingTable(fz.table.dim, entries), fz.pos_tags, fz.ne_tags)
    cfg = tiny_config(max_epochs=3, batch_size=4, patience=3)
    result = tr.train(model, fz, examples, examples[1:], cfg, echo=lambda s: None)
    assert result.epochs_run == 3
    assert result.stats["skipped_steps"] == 3  # one batch of two per epoch
    for name, p in model.parameters().items():
        assert np.all(np.isfinite(p.data)), name
    # the logged loss averages the applied steps only, so it stays finite
    assert all(np.isfinite(loss) for loss in result.train_losses)
    for line in result.log_lines:
        assert np.isfinite(float(line.split("\t")[1])), line


def test_train_counts_clipped_steps_and_keeps_the_largest_norm():
    model, fz, examples = tiny_setup(n=6, seed=7)
    cfg = tiny_config(max_epochs=2, batch_size=4, patience=2, clip_norm=1e-6)
    result = tr.train(model, fz, examples, examples, cfg, echo=lambda s: None)
    steps = result.epochs_run * 2  # batches of 4 and 2 per epoch
    assert result.stats["skipped_steps"] == 0
    assert result.stats["clipped_steps"] == steps
    assert result.stats["max_grad_norm"] > 1e-6

    model, fz, examples = tiny_setup(n=6, seed=7)
    loose = tr.train(model, fz, examples, examples, tiny_config(max_epochs=2, batch_size=4,
                                                                patience=2, clip_norm=1e6),
                     echo=lambda s: None)
    assert loose.stats["clipped_steps"] == 0
    assert 0.0 < loose.stats["max_grad_norm"] <= 1e6
