"""Acceptance gates for the chunk reader package.

One test per gate, in order; each docstring states the bar and the
tolerance. These restate the critical guarantees end to end even where a
module suite covers the same ground, so a single `pytest
tests/test_acceptance.py -v` run prints one pass/fail line per gate.
"""

import json
import os
import time
from collections import Counter

import numpy as np
import pytest

import chunkreader.numerics as nm
from chunkreader.chunker import CandidateChunk, enumerate_candidates, trie_candidates
from chunkreader.corpus import Featurizer, build_tag_inventories
from chunkreader.encoder import BiGruEncoder, GruCell
from chunkreader.evaluator import exact_match, f1_score
from chunkreader.model import (
    ChunkReaderModel,
    ChunkScoreSet,
    ModelConfig,
    chunk_repr,
    nll_loss,
)
from chunkreader.synthetic import SyntheticSpec, generate
from chunkreader.trainer import AdamState, TrainConfig, adam_step, clip_gradients, train
from helpers import make_tokens

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_metrics.json")


def test_gate_gradient_suite():
    """End-to-end loss gradients at toy scale (hidden size 8, 6-token
    passage, 15 candidates) match central finite differences with max
    relative error < 1e-4, in under 2 minutes."""
    started = time.monotonic()
    config = ModelConfig(
        hidden_size=8,
        embedding_dim=4,
        pos_tags=("ADJ", "NOUN", "VERB"),
        ne_tags=("LOC", "O", "PER"),
        max_chunk_len=3,
    )
    model = ChunkReaderModel(config)
    rng = np.random.default_rng(0)
    # healthy fan-in init and dense inputs keep every gradient coordinate
    # above the difference-quotient noise floor
    for p in model.parameters().values():
        bound = 1.2 / np.sqrt(p.data.shape[0])
        p.data[...] = rng.uniform(-bound, bound, size=p.data.shape)
    P = rng.normal(scale=1.0, size=(6, config.input_width))
    Q = rng.normal(scale=1.0, size=(4, config.input_width))
    candidates = enumerate_candidates(6, 3)
    assert len(candidates) == 15
    gold = candidates[2]

    def build():
        return nll_loss(model.forward(P, Q, candidates), gold)

    worst = max(
        nm.finite_difference_errors(build, list(model.parameters().values()), 1e-4)
    )
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"


def test_gate_synthetic_overfit():
    """Training on the 32-example synthetic dataset (hidden size 32,
    window length cap 4, learning rate 0.001) reaches training exact
    match 1.0 within 200 epochs, in under 5 minutes."""
    started = time.monotonic()
    examples, table = generate(SyntheticSpec())
    assert len(examples) == 32
    pos_tags, ne_tags = build_tag_inventories(examples)
    config = TrainConfig(
        learning_rate=0.001,
        batch_size=8,
        dropout_rate=0.0,
        hidden_size=32,
        max_epochs=200,
        patience=30,
        seed=0,
        candidate_mode="window",
        max_chunk_len=4,
    )
    model = ChunkReaderModel(
        ModelConfig(
            hidden_size=32,
            embedding_dim=table.dim,
            pos_tags=pos_tags,
            ne_tags=ne_tags,
            candidate_mode="window",
            max_chunk_len=4,
        )
    )
    featurizer = Featurizer(table, pos_tags, ne_tags)
    # the train set doubles as the eval set: best_em is training EM
    result = train(model, featurizer, examples, examples, config)
    elapsed = time.monotonic() - started
    assert result.best_em == 1.0, f"training EM peaked at {result.best_em}"
    assert result.best_epoch <= 200
    assert elapsed < 300.0, f"overfit gate took {elapsed:.0f}s"


def test_gate_chunker_oracles():
    """Pattern-trie candidates equal brute-force substring matching on 200
    random instances (passages up to 30 tokens), and window enumeration
    counts equal sum_j min(N, L-j+1) for every 1 <= L, N <= 50 and for
    L=300, N=10 (2955)."""
    rng = np.random.default_rng(12345)
    for _ in range(200):
        alphabet = [f"T{i}" for i in range(int(rng.integers(2, 5)))]
        length = int(rng.integers(1, 31))
        tags = [alphabet[i] for i in rng.integers(0, len(alphabet), size=length)]
        table = {}
        patterns = set()
        for _ in range(int(rng.integers(0, 16))):
            width = int(rng.integers(1, 7))
            pattern = tuple(alphabet[i] for i in rng.integers(0, len(alphabet), size=width))
            table[pattern] = table.get(pattern, 0) + 1
            patterns.add(pattern)
        expected = sorted(
            (s + 1, e + 1)
            for s in range(length)
            for e in range(s, length)
            if tuple(tags[s : e + 1]) in patterns
        )
        got = trie_candidates(make_tokens(["w"] * length, pos=tags), table)
        assert [(c.start, c.end) for c in got] == expected

    for L in range(1, 51):
        for N in range(1, 51):
            expected_count = sum(min(N, L - j + 1) for j in range(1, L + 1))
            assert len(enumerate_candidates(L, N)) == expected_count
    assert len(enumerate_candidates(300, 10)) == 2955


def test_gate_metric_golden_file():
    """EM and token F1 reproduce 13 hand-computed golden cases (F1 within
    1e-9 of the stored value), including the two anchor cases: a
    one-token-in-six overlap scoring F1 0.2857 +- 1e-4, and a prediction
    differing only by a leading article scoring EM 1."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) >= 10
    by_name = {}
    for case in cases:
        em = exact_match(case["prediction"], case["references"])
        f1 = f1_score(case["prediction"], case["references"])
        assert em == case["em"], case["name"]
        assert f1 == pytest.approx(case["f1"], abs=1e-9), case["name"]
        by_name[case["name"]] = (em, f1)
    assert by_name["one-of-six-overlap"][1] == pytest.approx(0.2857, abs=1e-4)
    assert by_name["leading-article-ignored"][0] == 1


def test_gate_model_invariants():
    """Five invariant families, each over at least 100 random instances:
    ranking probabilities sum to 1 +- 1e-9; GRU gates lie strictly inside
    (0, 1); zero-initial-state encodings satisfy max |h| <= 1; a chunk
    representation ignores state rows outside its span ends; argmax ties
    resolve to the earliest (start, end) candidate. The gates are the ones
    the cell's forward scan computes over a 3-step sequence, and chunk
    representations come from the same chunk_repr that model.forward
    calls."""
    rng = np.random.default_rng(2024)

    for _ in range(100):
        n = int(rng.integers(1, 13))
        probs = nm.softmax(rng.normal(scale=3.0, size=n))
        assert abs(float(probs.sum()) - 1.0) <= 1e-9

    cell = GruCell(5, 4, "gate_probe")
    for _ in range(100):
        for p in cell.parameters().values():
            p.data[...] = rng.normal(scale=0.8, size=p.data.shape)
        X = rng.normal(scale=0.8, size=(3, 5))
        _, states = cell.scan(X[None], np.array([3]), reverse=False, keep=True)
        for gate in (states.r, states.u):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)

    encoder = BiGruEncoder(4, 3, "bound_probe")
    for _ in range(100):
        for p in encoder.parameters().values():
            p.data[...] = rng.normal(scale=1.5, size=p.data.shape)
        T = int(rng.integers(1, 9))
        F, B, H = encoder.encode(nm.tensor(rng.normal(scale=2.0, size=(T, 4))))
        assert float(np.abs(H.data).max()) <= 1.0 + 1e-12

    for _ in range(100):
        T = int(rng.integers(3, 11))
        start = int(rng.integers(1, T - 1))
        end = int(rng.integers(start + 2, T + 1))
        F = rng.normal(size=(T, 3))
        B = rng.normal(size=(T, 3))
        chunk = [CandidateChunk(start, end)]
        before = chunk_repr(nm.tensor(F), nm.tensor(B), chunk).data.copy()
        F2, B2 = F.copy(), B.copy()
        rows = [i for i in range(T) if i != start - 1]
        F2[rng.choice(rows)] += rng.normal(size=3)
        rows = [i for i in range(T) if i != end - 1]
        B2[rng.choice(rows)] += rng.normal(size=3)
        after = chunk_repr(nm.tensor(F2), nm.tensor(B2), chunk).data
        assert np.array_equal(before, after)

    for _ in range(100):
        n = int(rng.integers(2, 21))
        candidates = enumerate_candidates(n, 1)
        tied = sorted(rng.choice(n, size=2, replace=False))
        peak = 2.0 / (n + 2)
        rest = (1.0 - 2 * peak) / (n - 2) if n > 2 else 0.0
        probs = np.full(n, rest)
        probs[tied] = peak
        scored = ChunkScoreSet(candidates, nm.tensor(np.log(probs)))
        assert scored.best_index() == tied[0]


def test_gate_training_determinism(tmp_path):
    """Two full toy training runs with the same seed write byte-identical
    training logs and checkpoints."""
    spec = SyntheticSpec(n_examples=8, seed=5, passage_len=(7, 10), answer_len=(1, 2),
                         embedding_dim=8)
    examples, table = generate(spec)
    pos_tags, ne_tags = build_tag_inventories(examples)
    config = TrainConfig(
        learning_rate=0.05, batch_size=4, dropout_rate=0.2, hidden_size=4,
        max_epochs=3, patience=3, seed=11, max_chunk_len=3,
    )
    blobs = []
    for tag in ("first", "second"):
        model = ChunkReaderModel(
            ModelConfig(hidden_size=4, embedding_dim=table.dim, pos_tags=pos_tags,
                        ne_tags=ne_tags, max_chunk_len=3)
        )
        log = tmp_path / f"{tag}.log"
        ckpt = tmp_path / f"{tag}.ckpt"
        train(model, Featurizer(table, pos_tags, ne_tags), examples[:6], examples[6:],
              config, log_path=str(log), checkpoint_path=str(ckpt))
        blobs.append((log.read_bytes(), ckpt.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "training logs differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "checkpoints differ between identical runs"


def test_gate_clip_and_adam():
    """Unit gates: gradients scaled to joint norm 15 come out of clipping
    with norm <= 10 + 1e-9; the first ADAM step on unit gradients moves
    each weight by the learning rate within 1e-6; ADAM at learning rate
    0.02 drives a scalar quadratic below |theta| = 0.01 in 200 steps."""
    rng = np.random.default_rng(99)
    grads = [rng.normal(size=s) for s in ((4, 3), (7,), (2, 2, 2))]
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    grads = [g * (15.0 / total) for g in grads]
    pre = clip_gradients(grads, 10.0)
    assert pre == pytest.approx(15.0, abs=1e-9)
    post = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert post <= 10.0 + 1e-9

    params = {"w": nm.parameter(np.full(5, 0.3))}
    state = AdamState(params)
    adam_step(params, {"w": np.ones(5)}, state, lr=0.001)
    assert np.allclose(params["w"].data, 0.3 - 0.001, atol=1e-6)

    theta = nm.parameter(np.array(1.0))
    state = AdamState({"t": theta})
    steps_taken = None
    for step in range(1, 201):
        adam_step({"t": theta}, {"t": 2.0 * theta.data}, state, lr=0.02)
        if abs(float(theta.data)) < 0.01:
            steps_taken = step
            break
    assert steps_taken is not None, f"quadratic stalled at {float(theta.data):.4f}"


def test_gate_full_scale_run():
    """Optional full-data gate: with complete SQuAD-format data and
    large-scale compute, a full training run targets dev exact match
    within 4 points of 0.625. Not runnable at desk scale."""
    pytest.skip("full-scale annotated dataset and compute not available here")
