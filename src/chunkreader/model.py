"""End-to-end chunk ranking model.

Pipeline per example: a shared bi-GRU encodes passage and question words
(same parameters for both sides); every passage state is paired with an
attention summary of the question to form a 4d-wide fused vector; a
second bi-GRU with its own parameters re-encodes the fused sequence; each
candidate chunk is represented by the forward state at its first word
concatenated with the backward state at its last word; candidates are
ranked by softmax over dot products with the question representation.

`ChunkReaderModel.forward_batch` runs a batch of examples, zero-padded
to common lengths, through both encoders and the attention as (B, T, ·)
blocks with per-example lengths, then scores each example on its own,
because candidate counts differ, gathering its chunk and question rows
straight from the batched states. `forward` is the batch-of-one call of
the same code. The attention, recorded or not, fuses each example over
its real rows only. Training calls `forward_batch` once per batch,
recorded, and there the batched recurrent products let the rows of a
batch differ in their last bits from a run alone. An unrecorded call keeps
the rows apart: the encoders run every product row by row (see `encoder`).
So `answers`, which the dev loop, `predict` and `evaluate` call once on
all their examples, can score ANSWER_BATCH of them per call, a bound on
inference memory no caller sets, and give each the answer it gets alone,
bit for bit.

Attention weights are raw inner products with no normalization; a
normalized variant (a row-wise softmax over question positions) exists
behind a flag for ablation, as does cosine instead of dot scoring. Each
variant of attention and of scoring records the same number of tape
nodes whatever the passage length: the attention, normalized or not, is
one node, and so is cosine scoring, each with a hand-derived backward.
A forward of one example records 12 nodes: three for each pass of the
shared encoder (two cells and their concatenation), one for the
attention, one per attention-encoder cell (scoring reads the two
directions apart, so they are never concatenated), one each for the
chunk and question representations (`nm.gather_pair`, which keeps only
indices), and one for the scores; `nll_loss`, one example's
`nm.mean_nll`, adds one more. A training step scores a whole batch and
adds one `nm.mean_nll` node for all of it (see `trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import numerics as nm
from .chunker import CANDIDATE_MODES, CandidateChunk, generate_candidates
from .corpus import AnswerSpan, DataError, Example, Featurizer, detokenize, serializable_tag
from .encoder import BiGruEncoder
from .numerics import Tensor

__all__ = [
    "ModelConfig",
    "ChunkReaderModel",
    "ChunkScoreSet",
    "Prediction",
    "attend",
    "chunk_repr",
    "question_repr",
    "score_chunks",
    "nll_loss",
]

# Examples per inference batch in `answers`: it bounds memory, not answers.
ANSWER_BATCH = 16


@dataclass(frozen=True, kw_only=True)
class ModelConfig:
    """Architecture and candidate-generation settings baked into checkpoints.

    Each field is one checkpoint manifest line, written in declaration
    order (so the tag inventories come last), and every line is required
    on load: adding a field makes older checkpoints fail with
    `manifest missing <field>`. A field's type must be one the checkpoint
    module can write: int, bool, str or tuple[str, ...]. A value of
    another type or an int of 10**18 or more, which no manifest line holds
    (`nm.check_settings`), an unknown mode or scoring, a
    chunk cap below 1, a negative embedding width or a tag the manifest
    cannot store raises ValueError.
    """

    hidden_size: int
    embedding_dim: int
    candidate_mode: str = "window"  # one of chunker.CANDIDATE_MODES
    max_chunk_len: int = 10
    scoring: str = "dot"  # "dot" or "cosine"
    normalize_attention: bool = False
    pos_tags: tuple[str, ...]
    ne_tags: tuple[str, ...]

    def __post_init__(self):
        nm.check_settings(self)
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate mode: {self.candidate_mode!r}")
        if self.scoring not in ("dot", "cosine"):
            raise ValueError(f"unknown scoring: {self.scoring!r}")
        if self.max_chunk_len < 1:
            raise ValueError(f"max_chunk_len must be >= 1, got {self.max_chunk_len}")
        if self.embedding_dim < 0:
            raise ValueError(f"embedding_dim must be >= 0, got {self.embedding_dim}")
        for tag in self.pos_tags + self.ne_tags:
            if not serializable_tag(tag):
                raise ValueError(f"tag {tag!r} cannot be serialized (whitespace)")

    @property
    def input_width(self) -> int:
        return self.embedding_dim + len(self.pos_tags) + len(self.ne_tags) + 3


@dataclass
class ChunkScoreSet:
    """Aligned candidates and their pre-softmax scores; the ranking
    probabilities (the softmax of the scores, checked to be a finite
    simplex) are computed on first read and never recorded on a tape."""

    candidates: list[CandidateChunk]
    scores: Tensor

    def __post_init__(self):
        n = len(self.candidates)
        if self.scores.data.shape != (n,):
            raise ValueError(f"{n} candidates but score shape {self.scores.data.shape}")

    @cached_property
    def probabilities(self) -> Tensor:
        probs = nm.tensor(nm.softmax(self.scores.data))
        if not np.all(np.isfinite(probs.data)):
            raise ValueError("probabilities are not finite")
        s = float(probs.data.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s!r}, not 1")
        return probs

    def best_index(self) -> int:
        # np.argmax takes the first maximum; candidates are sorted by
        # (start, end), so ties resolve to the earliest span
        return int(np.argmax(self.probabilities.data))


@dataclass(frozen=True)
class Prediction:
    """One example's answer, field for field the record `predict` writes.

    An example that yields no candidates is answered with the empty string
    and null start, end and probability; the empty answer scores as a miss.
    """

    id: str
    answer: str
    start: int | None = None
    end: int | None = None
    probability: float | None = None


def attend(
    passage_states: Tensor,
    question_states: Tensor,
    normalize: bool = False,
    *,
    passage_lens: int | Sequence[int] | None = None,
    question_lens: int | Sequence[int] | None = None,
) -> Tensor:
    """Fuse each passage state with its question summary, as one tape node.

    The states are (T, 2d) and (K, 2d) matrices or (B, T, 2d) and
    (B, K, 2d) stacks. Example b attends over its first passage_lens[b]
    and question_lens[b] rows only, so padding changes neither its values
    nor their rounding. Each is None (all rows), one int for every
    example, or one int per example (`nm.row_counts`); anything else
    raises ShapeError. For
    real rows p and q: weights a = p q^T, row-softmaxed when normalize is
    set, and output rows [p ; a q]; padded output rows are zero.

    Backward per example, upstream g = [g_p ; g_s]: da = g_s q^T and
    dq = a^T g_s; with the softmax, da <- a * (da - rowsum(da * a)); then
    dp = g_p + da q and dq += da^T p.
    """
    P, Q = passage_states.data, question_states.data
    if P.ndim not in (2, 3) or (P.ndim, P.shape[:-2], P.shape[-1]) != (Q.ndim, Q.shape[:-2], Q.shape[-1]):
        raise nm.ShapeError(f"attend: {P.shape} and {Q.shape} are not matrices or stacks of one width")
    P3, Q3 = (P, Q) if P.ndim == 3 else (P[None], Q[None])
    plens = nm.row_counts(passage_lens, *P3.shape[:2], "passage lengths")
    qlens = nm.row_counts(question_lens, *Q3.shape[:2], "question lengths")
    width = P.shape[-1]
    out = np.zeros(P3.shape[:-1] + (2 * width,))
    weights = []
    for b, (n, k) in enumerate(zip(plens, qlens)):
        p, q = P3[b, :n], Q3[b, :k]
        a = p @ q.T
        if normalize:
            e = np.exp(a - a.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        out[b, :n, :width], out[b, :n, width:] = p, a @ q
        weights.append(a)

    def backward_fn(g):
        G, dP, dQ = g.reshape(out.shape), np.zeros_like(P3), np.zeros_like(Q3)
        for b, a in enumerate(weights):
            n, k = a.shape
            p, q, g_s = P3[b, :n], Q3[b, :k], G[b, :n, width:]
            da = g_s @ q.T
            dQ[b, :k] = a.T @ g_s
            if normalize:
                da = a * (da - (da * a).sum(axis=1, keepdims=True))
            dP[b, :n] = G[b, :n, :width] + da @ q
            dQ[b, :k] += da.T @ p
        nm.accumulate(passage_states, dP.reshape(P.shape), owned=True)
        nm.accumulate(question_states, dQ.reshape(Q.shape), owned=True)

    fused = Tensor(out.reshape(P.shape[:-1] + (2 * width,)))
    return nm.record(fused, (passage_states, question_states), backward_fn)


def chunk_repr(
    fwd_states: Tensor,
    bwd_states: Tensor,
    candidates: Sequence[CandidateChunk],
    example: int | None = None,
) -> Tensor:
    """One row per candidate: the forward state at its first word
    concatenated with the backward state at its last word, from (T, d)
    states or from row `example` of (B, T, d) stacks. A candidate
    reaching past the state rows raises IndexError."""
    at = () if example is None else (example,)
    # arrays, judged by dtype, not entry by entry (np.fromiter casts floats)
    starts = at + (np.array([c.start - 1 for c in candidates]),)
    ends = at + (np.array([c.end - 1 for c in candidates]),)
    return nm.gather_pair(fwd_states, starts, bwd_states, ends)


def question_repr(
    fwd_states: Tensor, bwd_states: Tensor, length: int | None = None, example: int | None = None
) -> Tensor:
    """Question summary: last real forward state plus first backward state,
    from (K, d) states or from row `example` of (B, K, d) stacks, whose
    first `length` rows are real (None: all K; `nm.row_counts`)."""
    at = () if example is None else (example,)
    (length,) = nm.row_counts(length, 1, fwd_states.data.shape[-2], "question length")
    return nm.gather_pair(fwd_states, at + (length - 1,), bwd_states, at + (0,))


def _cosine_scores(reps: Tensor, question: Tensor) -> Tensor:
    """Dot products normalized by both vector lengths, as one tape node; a
    1e-12 floor under each squared norm keeps zero vectors finite.

    With row norms n, question norm m and scores s = R q / (n m), the
    backward for upstream g is dR = (g / (n m)) q^T - (g s / n^2) * R
    row-wise, and dq = R^T (g / (n m)) - (sum g s / m^2) q.
    """
    R, q = reps.data, question.data
    n2 = (R * R) @ np.ones(R.shape[1]) + 1e-12
    m2 = q @ q + 1e-12
    n, m = np.sqrt(n2), np.sqrt(m2)
    s = (R @ q) / (n * m)

    def backward_fn(g):
        gs = g / (n * m)
        nm.accumulate(reps, np.outer(gs, q) - (g * s / n2)[:, None] * R, owned=True)
        nm.accumulate(question, R.T @ gs - (g @ s / m2) * q, owned=True)

    return nm.record(Tensor(s), (reps, question), backward_fn)


def score_chunks(
    chunk_reprs: Tensor,
    question: Tensor,
    candidates: Sequence[CandidateChunk],
    scoring: str = "dot",
) -> ChunkScoreSet:
    """Rank candidates: one dot product (or cosine) per chunk; the score
    set softmaxes them when its probabilities are read."""
    if len(candidates) == 0:
        raise ValueError("cannot score an empty candidate set")
    if chunk_reprs.data.shape[0] != len(candidates):
        raise ValueError(
            f"{len(candidates)} candidates but {chunk_reprs.data.shape[0]} representations"
        )
    if scoring == "dot":
        scores = nm.matmul(chunk_reprs, question)
    elif scoring == "cosine":
        scores = _cosine_scores(chunk_reprs, question)
    else:
        raise ValueError(f"unknown scoring: {scoring!r}")
    return ChunkScoreSet(list(candidates), scores)


def nll_loss(score_set: ChunkScoreSet, gold: CandidateChunk) -> Tensor:
    """Negative log probability of the gold span's candidate: the
    `nm.mean_nll` of this one example, computed from the pre-softmax scores
    so that it stays finite for any finite scores.

    The gold span must be present in the candidate list; training filters
    out examples whose gold cannot be generated, so absence here is a bug.
    """
    try:
        idx = score_set.candidates.index(gold)
    except ValueError:
        raise LookupError(
            f"gold span {(gold.start, gold.end)} not among {len(score_set.candidates)} candidates"
        ) from None
    return nm.mean_nll([score_set.scores], [idx])


class ChunkReaderModel:
    """Holds both encoders plus the candidate-generation setup: in trie
    mode its own copy of `trie`, the table of answer tag patterns
    (`chunker.build_pos_trie`), whose keys must each be 1 to max_chunk_len
    tags a checkpoint can store and whose counts ints >= 0 (`nm.is_int`)
    below 10**`nm.INT_DIGITS`."""

    def __init__(self, config: ModelConfig, trie: dict[tuple[str, ...], int] | None = None):
        if config.candidate_mode == "trie" and trie is None:
            raise ValueError("trie candidate mode needs a built trie")
        if config.candidate_mode != "trie" and trie is not None:
            raise ValueError(f"{config.candidate_mode} candidate mode takes no trie")
        self.config = config
        self.trie = None if trie is None else dict(trie)
        for pattern, count in (self.trie or {}).items():
            if not (
                isinstance(pattern, tuple)
                and 1 <= len(pattern) <= config.max_chunk_len
                and all(isinstance(tag, str) and serializable_tag(tag) for tag in pattern)
                and nm.is_int([count])
                and 0 <= count < 10**nm.INT_DIGITS
            ):
                raise ValueError(
                    f"bad trie pattern {pattern!r} (count {count!r}): need 1 to "
                    f"{config.max_chunk_len} non-empty tags without whitespace and an int count "
                    f">= 0 below 10**{nm.INT_DIGITS}"
                )
        d = config.hidden_size
        self.shared_encoder = BiGruEncoder(config.input_width, d, "shared")
        self.attention_encoder = BiGruEncoder(4 * d, d, "attention")

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.shared_encoder.parameters())
        out.update(self.attention_encoder.parameters())
        return out

    def zero_grads(self) -> None:
        for p in self.parameters().values():
            p.grad = None

    def check_featurizer(self, featurizer: Featurizer) -> None:
        """Raise ValueError unless the featurizer lays out the rows this
        model reads: the config's embedding width and tag inventories."""
        for name, given, built in (
            ("embedding width", featurizer.table.dim, self.config.embedding_dim),
            ("pos_tags", featurizer.pos_tags, self.config.pos_tags),
            ("ne_tags", featurizer.ne_tags, self.config.ne_tags),
        ):
            if given != built:
                raise ValueError(f"featurizer {name} {given!r} differs from the model's {built!r}")

    def candidates_for(self, passage) -> list[CandidateChunk]:
        return generate_candidates(passage, self.trie, self.config.max_chunk_len)

    def forward(
        self,
        passage_features: np.ndarray,
        question_features: np.ndarray,
        candidates: Sequence[CandidateChunk],
        passage_len: int | None = None,
        question_len: int | None = None,
        dropout_rate: float = 0.0,
        rng: nm.SeededRng | None = None,
        training: bool = False,
    ) -> ChunkScoreSet:
        """Score one example's candidates: `forward_batch` on a batch of one.

        Feature blocks may carry trailing zero-padding rows; passage_len /
        question_len give the true lengths (None: every row is real).
        """
        P, Q = np.asarray(passage_features), np.asarray(question_features)
        (scored,) = self.forward_batch(
            P[None], Q[None], [candidates], passage_len, question_len, dropout_rate, rng, training
        )
        return scored

    def forward_batch(
        self,
        passages: np.ndarray,
        questions: np.ndarray,
        candidates: Sequence[Sequence[CandidateChunk]],
        passage_lens: int | Sequence[int] | None,
        question_lens: int | Sequence[int] | None,
        dropout_rate: float = 0.0,
        rng: nm.SeededRng | None = None,
        training: bool = False,
    ) -> list[ChunkScoreSet]:
        """Score the candidates of each example of a batch.

        passages (B, T, width) and questions (B, K, width) hold each
        example's features in one row, zero-padded past its true length;
        the lengths are checked once, in the forms `attend` takes. Both
        encoders and the attention run over the whole batch at once, the
        attention over each example's real rows; each example is then
        scored on its own, because candidate counts differ. Dropout, when
        active, hits the input features, drawn example by example, the
        passage before the question: the order in which scoring the
        examples one at a time would consume the stream.

        Each block is dropped once its last reader has run: the passage
        encoder's unread direction at once, its (B, T, 2d) states and the
        question's once the attention has read them, the (B, T, 4d) fused
        block once both attention-encoder cells have, and each example's
        (candidates, 2d) chunk block once it is scored. An unrecorded call
        thus frees them as it goes; a recorded call keeps them on the tape.
        """
        B = len(candidates)
        if passages.shape[0] != B or questions.shape[0] != B:
            raise nm.ShapeError(
                f"{B} candidate lists for {passages.shape[0]} passages and {questions.shape[0]} questions"
            )
        passage_lens = nm.row_counts(passage_lens, B, passages.shape[1], "passage lengths")
        question_lens = nm.row_counts(question_lens, B, questions.shape[1], "question lengths")
        for cands, plen in zip(candidates, passage_lens.tolist()):
            if len(cands) == 0:
                raise ValueError("cannot score an empty candidate set")
            for c in cands:
                if c.end > plen:
                    raise IndexError(f"candidate [{c.start}, {c.end}] beyond passage length {plen}")
        if training and dropout_rate > 0.0:
            if rng is None:
                raise ValueError("dropout needs an rng")
            dropped = [
                nm.dropout(nm.tensor(block[b]), dropout_rate, rng, training=True).data
                for b in range(B)
                for block in (passages, questions)
            ]
            passages, questions = np.stack(dropped[0::2]), np.stack(dropped[1::2])

        passage_ctx = self.shared_encoder.encode(nm.tensor(passages), passage_lens)[2]
        q_fwd, q_bwd, question_ctx = self.shared_encoder.encode(nm.tensor(questions), question_lens)
        fused = attend(
            passage_ctx, question_ctx, self.config.normalize_attention,
            passage_lens=passage_lens, question_lens=question_lens,
        )
        del passage_ctx, question_ctx
        # the two cells run apart: scoring reads each direction on its own,
        # so the encoder's (B, T, 2d) concatenation would go unread
        attention = self.attention_encoder
        g_fwd = attention.forward_cell.run(fused, passage_lens)
        g_bwd = attention.backward_cell.run(fused, passage_lens, reverse=True)
        del fused

        return [
            score_chunks(
                chunk_repr(g_fwd, g_bwd, cands, b),
                question_repr(q_fwd, q_bwd, question_lens[b], b),
                cands,
                self.config.scoring,
            )
            for b, cands in enumerate(candidates)
        ]

    def predict_example(self, ex: Example, featurizer: Featurizer) -> AnswerSpan | None:
        """Highest-probability candidate span for one example; None when the
        example yields no candidates."""
        (got,) = self.answers([ex], featurizer)
        return None if got.start is None else AnswerSpan(got.start, got.end, got.answer)

    def answers(self, examples: Sequence[Example], featurizer: Featurizer) -> list[Prediction]:
        """The answers `predict`, `evaluate` and the dev loop give, one per
        example in order: the best candidate of the full-length example with
        its probability, or the empty answer when it yields no candidates.

        Any number of examples is safe: they are scored ANSWER_BATCH at a
        time, each batch's examples that have candidates by one
        `forward_batch`. Outside a Tape that call is unrecorded, and each
        answer is bit for bit the one the example gets alone. An example
        whose probabilities are not finite raises DataError naming it, and
        a featurizer that does not fit the model ValueError
        (`check_featurizer`), before any work.
        """
        self.check_featurizer(featurizer)
        got = []
        for start in range(0, len(examples), ANSWER_BATCH):
            got.extend(self._answer_batch(examples[start : start + ANSWER_BATCH], featurizer))
        return got

    def _answer_batch(self, examples: Sequence[Example], featurizer: Featurizer) -> list[Prediction]:
        candidates = [self.candidates_for(ex.passage) for ex in examples]
        scored_at = [i for i, cands in enumerate(candidates) if cands]
        got = [Prediction(ex.id, "") for ex in examples]
        if not scored_at:
            return got
        batch = [examples[i] for i in scored_at]
        passages, passage_lens = _pad([featurizer.passage_matrix(ex) for ex in batch])
        questions, question_lens = _pad([featurizer.question_matrix(ex) for ex in batch])
        # a non-finite result is reported below, naming its example, so the
        # overflow behind it needs no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            scored = self.forward_batch(
                passages, questions, [candidates[i] for i in scored_at], passage_lens, question_lens
            )
            for i, score_set in zip(scored_at, scored):
                ex = examples[i]
                try:
                    best = score_set.best_index()
                except ValueError as exc:
                    raise DataError(f"example {ex.id!r}: {exc}") from None
                span = score_set.candidates[best]
                got[i] = Prediction(
                    ex.id,
                    detokenize(ex.passage[span.start - 1 : span.end]),
                    span.start,
                    span.end,
                    float(score_set.probabilities.data[best]),
                )
        return got


def _pad(mats: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Stack feature matrices into one zero-padded (B, T, width) block, and
    their lengths; a single matrix becomes a view, not a copy."""
    lengths = [m.shape[0] for m in mats]
    if len(mats) == 1:
        return mats[0][None], lengths
    block = np.zeros((len(mats), max(lengths), mats[0].shape[1]))
    for b, m in enumerate(mats):
        block[b, : m.shape[0]] = m
    return block, lengths
