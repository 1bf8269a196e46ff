"""Optimization loop: ADAM, global-norm clipping, curriculum batching,
passage truncation, gold-in-candidates filtering, early stopping.

Determinism contract: a fixed (seed, config, data) triple reproduces the
entire run bit for bit on the same numpy and BLAS build with the same
BLAS thread count. The thread count changes how BLAS splits a product,
and so its rounding: the same seed under another count can give other
parameter bytes. Parameter init draws from SeededRng(seed) in
parameter-catalog order, the same stream then feeds dropout in example
order, and each epoch's shuffle comes from a child rng derived from
(seed, epoch), so batch composition is reproducible without replaying
earlier epochs.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import numerics as nm
from .checkpoint import save_checkpoint
from .chunker import CANDIDATE_MODES, CandidateChunk
from .corpus import Example, Featurizer, text_lines
from .evaluator import evaluate
from .model import ChunkReaderModel, ModelConfig, _pad
from .numerics import SeededRng, Tensor

__all__ = [
    "TrainConfig",
    "AdamState",
    "PreparedExample",
    "Batch",
    "TrainResult",
    "load_train_config",
    "init_parameters",
    "truncate_for_training",
    "prepare_examples",
    "filter_trainable",
    "make_batches",
    "clip_gradients",
    "adam_step",
    "train",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 180
    clip_norm: float = 10.0
    dropout_rate: float = 0.2
    hidden_size: int = 300
    max_passage_len: int = 300
    max_epochs: int = 30
    patience: int = 10
    curriculum_group: int = 10  # batches per locally-sorted group
    init_range: float = 0.01
    seed: int = 0
    candidate_mode: str = ModelConfig.candidate_mode
    max_chunk_len: int = ModelConfig.max_chunk_len

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not math.isfinite(2 * self.init_range):  # the width of the init draw
            raise ValueError(f"init_range is too large, got {self.init_range}")
        # every number but the dropout rate and the seed must be positive
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float") and f.name not in ("dropout_rate", "seed") and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate_mode: {self.candidate_mode!r}")


def load_train_config(path=None, sets: Sequence[str] = ()) -> TrainConfig:
    """Resolve each TrainConfig field from a `KEY=VALUE` string of `sets`,
    else from the flat config file at `path` (`key value` lines, '#'
    comments allowed, read by corpus.text_lines), else its default. Each key
    is given at most once by each source; an error (a ValueError) names its
    `line N` or `--set k=v`, and its key."""
    spec = {f.name: f.type for f in fields(TrainConfig)}
    from_file, from_sets = [], []  # (where, key, raw value) triples
    lines = text_lines(path) if path is not None else ()
    for line_no, line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'key value', got {line!r}")
        from_file.append((f"line {line_no}", *parts))
    for item in sets:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        from_sets.append((f"--set {item}", *item.split("=", 1)))
    values = {}  # key -> (raw value, where); a --set string replaces a file line
    for entries in (from_file, from_sets):
        first = {}  # key -> where this source gave it
        for where, key, raw in entries:
            if key not in spec:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if key in first:
                raise ValueError(f"{first[key]} and {where}: {key} is repeated")
            first[key] = where
            values[key] = (raw, where)
    kwargs = {}
    for key, (raw, where) in values.items():
        parse = {"int": int, "float": float}.get(spec[key], str)
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: {key}: {exc}") from None
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# parameter init and optimizer


def init_parameters(model: ChunkReaderModel, rng: SeededRng, init_range: float = 0.01) -> None:
    """Fill every parameter i.i.d. uniform(-init_range, init_range), drawing
    in parameter-catalog order so a seed pins the full initialization."""
    for p in model.parameters().values():
        p.data[...] = rng.uniform(-init_range, init_range, p.data.shape)


class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0


def clip_gradients(grads: Sequence[np.ndarray], clip_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= clip_norm;
    returns the pre-clip norm."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > clip_norm:
        factor = clip_norm / norm
        for g in grads:
            g *= factor
    return norm


def adam_step(
    params: dict[str, Tensor], grads: dict[str, np.ndarray | None], state: AdamState, lr: float
) -> None:
    """One ADAM update; a missing gradient is treated as all zeros.

    Computes m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr m_hat / (sqrt(v_hat) + eps) with bias-corrected m_hat, v_hat,
    operation for operation, in place and in two work buffers that every
    parameter reuses.
    """
    state.t += 1
    t = state.t
    b1, b2, eps = state.beta1, state.beta2, state.eps
    scratch = np.empty((2, max((p.data.size for p in params.values()), default=0)))
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise nm.ShapeError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        a, b = (buf[: g.size].reshape(g.shape) for buf in scratch)
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, 1 - b2**t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += eps
        np.divide(m, 1 - b1**t, out=a)  # m_hat
        a *= lr
        a /= b
        p.data -= a


# ---------------------------------------------------------------------------
# example preparation and batching


@dataclass
class PreparedExample:
    example: Example
    passage_features: np.ndarray  # (L, width)
    question_features: np.ndarray  # (K, width)
    candidates: list[CandidateChunk]
    gold_index: int  # index into candidates

    @property
    def passage_len(self) -> int:
        return self.passage_features.shape[0]

    @property
    def question_len(self) -> int:
        return self.question_features.shape[0]


def truncate_for_training(
    examples: Sequence[Example], max_passage_len: int
) -> tuple[list[Example], int]:
    """Cut passages to the first max_passage_len tokens, keep only answers
    that survive whole, and drop examples left with no answers. Returns the
    kept examples and the dropped count. Test-time evaluation never calls
    this; full-length passages are scored as-is."""
    kept = []
    dropped = 0
    for ex in examples:
        if len(ex.passage) <= max_passage_len:
            survivors = ex.answers
            passage = ex.passage
        else:
            passage = ex.passage[:max_passage_len]
            survivors = tuple(a for a in ex.answers if a.end <= max_passage_len)
        if not survivors:
            dropped += 1
            continue
        if passage is ex.passage:
            kept.append(ex)
        else:
            kept.append(Example(ex.id, passage, ex.question, survivors))
    return kept, dropped


def filter_trainable(example: Example, candidates: Sequence[CandidateChunk]) -> int | None:
    """Index (into candidates) of the training target, or None to skip.

    An example is trainable only if some gold span appears exactly in its
    candidate set; with several qualifying golds the first in dataset
    order wins."""
    spans = {(c.start, c.end): i for i, c in enumerate(candidates)}
    for a in example.answers:
        i = spans.get((a.start, a.end))
        if i is not None:
            return i
    return None


def prepare_examples(
    examples: Sequence[Example], model: ChunkReaderModel, featurizer: Featurizer
) -> tuple[list[PreparedExample], int]:
    """Featurize and generate candidates once per example; returns the
    trainable subset and the count filtered out for gold-not-in-candidates."""
    prepared = []
    filtered = 0
    for ex in examples:
        candidates = model.candidates_for(ex.passage)
        gold = filter_trainable(ex, candidates) if candidates else None
        if gold is None:
            filtered += 1
            continue
        prepared.append(
            PreparedExample(
                example=ex,
                passage_features=featurizer.passage_matrix(ex),
                question_features=featurizer.question_matrix(ex),
                candidates=candidates,
                gold_index=gold,
            )
        )
    return prepared, filtered


@dataclass
class Batch:
    """Zero-padded feature blocks; row i of each block pads example i out
    to the batch-wide max lengths. Training reads the items' lengths, so
    the 0/1 masks are built only when read."""

    items: list[PreparedExample]
    passages: np.ndarray  # (B, Tmax, width)
    questions: np.ndarray  # (B, Kmax, width)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def passage_mask(self) -> np.ndarray:  # (B, Tmax) 0/1
        return _mask([pe.passage_len for pe in self.items])

    @property
    def question_mask(self) -> np.ndarray:  # (B, Kmax) 0/1
        return _mask([pe.question_len for pe in self.items])


def _mask(lengths: list[int]) -> np.ndarray:
    """(B, max length) float 0/1 mask: 1 on each row's first `length` columns."""
    return (np.arange(max(lengths)) < np.array(lengths)[:, None]).astype(np.float64)


def make_batches(
    prepared: Sequence[PreparedExample], config: TrainConfig, rng: SeededRng, epoch: int
) -> list[Batch]:
    """Shuffle, then sort by passage length inside consecutive groups of
    curriculum_group x batch_size examples, then cut and pad batches.

    The shuffle uses a child rng derived from (rng.seed, epoch) rather than
    the live stream, so epoch k's batches can be reproduced without
    replaying epochs 0..k-1.
    """
    if not prepared:
        return []
    child = SeededRng(rng.seed * 1_000_003 + epoch + 1)
    order = list(child.permutation(len(prepared)))
    shuffled = [prepared[i] for i in order]
    group_span = config.curriculum_group * config.batch_size
    regrouped: list[PreparedExample] = []
    for start in range(0, len(shuffled), group_span):
        group = shuffled[start : start + group_span]
        group.sort(key=lambda pe: pe.passage_len)  # stable: ties keep shuffle order
        regrouped.extend(group)
    batches = []
    for start in range(0, len(regrouped), config.batch_size):
        chunk = regrouped[start : start + config.batch_size]
        passages, _ = _pad([pe.passage_features for pe in chunk])
        questions, _ = _pad([pe.question_features for pe in chunk])
        batches.append(Batch(chunk, passages, questions))
    return batches


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_em: float
    best_f1: float
    train_losses: list[float]
    log_lines: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _batch_loss(model, batch: Batch, config, rng) -> Tensor:
    """Mean NLL of the batch's gold candidates, from one batched forward
    and one `nm.mean_nll` node: a step of B examples records 10 + 3B
    nodes."""
    items = batch.items
    scored = model.forward_batch(
        batch.passages,
        batch.questions,
        [pe.candidates for pe in items],
        [pe.passage_len for pe in items],
        [pe.question_len for pe in items],
        dropout_rate=config.dropout_rate,
        rng=rng,
        training=True,
    )
    return nm.mean_nll([s.scores for s in scored], [pe.gold_index for pe in items])


def train(
    model: ChunkReaderModel,
    featurizer: Featurizer,
    train_examples: Sequence[Example],
    dev_examples: Sequence[Example],
    config: TrainConfig,
    log_path=None,
    checkpoint_path=None,
    echo=None,
) -> TrainResult:
    """Run the full optimization loop and return the best-epoch summary.

    Each epoch: curriculum batches -> mean batch NLL -> backward -> global
    clip -> ADAM, then exact-match on the dev set (full-length passages,
    no dropout), answered by one `model.answers` call, so batch_size does
    not set the size of an inference batch. A step whose gradient norm is
    not finite makes no update, is counted in stats["skipped_steps"] and is
    left out of the epoch's logged loss, the mean over the examples of the
    applied steps (nan when no step applied). Of the applied steps,
    stats["clipped_steps"] counts those whose pre-clip gradient norm
    exceeded clip_norm, and stats["max_grad_norm"] is the largest pre-clip
    norm. Training stops at max_epochs or once dev EM has gone `patience`
    consecutive epochs without a strict improvement. The best checkpoint
    and the log are written when paths are given; the persisted log
    carries only run-reproducible columns (epoch, loss, EM, F1), and
    wall-clock seconds go to `echo` (default stderr) for humans.
    """
    echo = echo if echo is not None else (lambda s: print(s, file=sys.stderr))

    truncated, dropped_truncation = truncate_for_training(train_examples, config.max_passage_len)
    prepared, dropped_filter = prepare_examples(truncated, model, featurizer)
    stats = {
        "train_examples": len(train_examples),
        "dropped_by_truncation": dropped_truncation,
        "dropped_by_candidate_filter": dropped_filter,
        "trainable": len(prepared),
        "skipped_steps": 0,
        "clipped_steps": 0,
        "max_grad_norm": 0.0,
    }
    if not prepared:
        raise ValueError(
            "no trainable examples: "
            f"{stats['train_examples']} given, "
            f"{dropped_truncation} lost all answers to truncation, "
            f"{dropped_filter} had no gold span in the candidate set"
        )

    rng = SeededRng(config.seed)
    init_parameters(model, rng, config.init_range)
    params = model.parameters()
    state = AdamState(params)

    best_em = -1.0
    best_f1 = 0.0
    best_epoch = -1
    stale = 0
    train_losses: list[float] = []
    log_lines: list[str] = []

    for epoch in range(config.max_epochs):
        started = time.monotonic()
        batches = make_batches(prepared, config, rng, epoch)
        loss_sum = 0.0
        applied = 0  # examples in the steps that updated the parameters
        for batch in batches:
            model.zero_grads()
            with nm.Tape() as tape:
                loss = _batch_loss(model, batch, config, rng)
                tape.backward(loss)
            grads = {k: p.grad for k, p in params.items()}
            norm = clip_gradients([g for g in grads.values() if g is not None], config.clip_norm)
            if not np.isfinite(norm):  # a NaN/inf gradient must never reach the parameters
                stats["skipped_steps"] += 1
                continue
            if norm > config.clip_norm:
                stats["clipped_steps"] += 1
            stats["max_grad_norm"] = max(stats["max_grad_norm"], norm)
            adam_step(params, grads, state, config.learning_rate)
            loss_sum += float(loss.data) * len(batch)
            applied += len(batch)
        mean_loss = loss_sum / applied if applied else float("nan")
        train_losses.append(mean_loss)

        answers = model.answers(dev_examples, featurizer)
        report = evaluate({got.id: got.answer for got in answers}, dev_examples)
        line = f"{epoch + 1}\t{mean_loss:.10f}\t{report.em:.6f}\t{report.f1:.6f}"
        log_lines.append(line)
        echo(f"{line}\t{time.monotonic() - started:.2f}s")

        if report.em > best_em:
            best_em = report.em
            best_f1 = report.f1
            best_epoch = epoch + 1
            stale = 0
            if checkpoint_path is not None:
                save_checkpoint(model, checkpoint_path)
        else:
            stale += 1
            if stale >= config.patience:
                break

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(log_lines) + "\n")
    return TrainResult(
        epochs_run=len(train_losses),
        best_epoch=best_epoch,
        best_em=best_em,
        best_f1=best_f1,
        train_losses=train_losses,
        log_lines=log_lines,
        stats=stats,
    )
