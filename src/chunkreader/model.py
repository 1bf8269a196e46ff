"""End-to-end chunk ranking model.

Pipeline per example: a shared bi-GRU encodes passage and question words
(same parameters for both sides); every passage state is paired with an
attention summary of the question to form a 4d-wide fused vector; a
second bi-GRU with its own parameters re-encodes the fused sequence; each
candidate chunk is represented by the forward state at its first word
concatenated with the backward state at its last word; candidates are
ranked by softmax over dot products with the question representation.

Attention weights are raw inner products with no normalization; a
normalized variant (a row-wise softmax over question positions) exists
behind a flag for ablation, as does cosine instead of dot scoring. Each
variant of attention and of scoring records the same number of tape
nodes whatever the passage length: the normalization is one softmax
node and cosine scoring is one node with a hand-derived backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .chunker import CandidateChunk, PosPatternTrie, generate_candidates
from .corpus import AnswerSpan, Example, Featurizer, detokenize
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


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and candidate-generation settings baked into checkpoints."""

    hidden_size: int
    embedding_dim: int
    pos_tags: tuple[str, ...]
    ne_tags: tuple[str, ...]
    candidate_mode: str = "window"  # "window" or "trie"
    max_chunk_len: int = 10
    scoring: str = "dot"  # "dot" or "cosine"
    normalize_attention: bool = False

    @property
    def input_width(self) -> int:
        return self.embedding_dim + len(self.pos_tags) + len(self.ne_tags) + 3


@dataclass
class ChunkScoreSet:
    """Aligned candidates, their pre-softmax scores, and their ranking
    probabilities (the softmax of the scores, a simplex)."""

    candidates: list[CandidateChunk]
    probabilities: Tensor
    scores: Tensor

    def __post_init__(self):
        n = len(self.candidates)
        for name, t in (("probability", self.probabilities), ("score", self.scores)):
            if t.data.shape != (n,):
                raise ValueError(f"{n} candidates but {name} shape {t.data.shape}")
        s = float(self.probabilities.data.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s!r}, not 1")

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
    question_len: int | None = None,
) -> Tensor:
    """Fuse each passage state with its question summary.

    For passage row j and question rows k: weight(j,k) is the raw inner
    product, the summary is the weight-pooled sum of question rows, and
    the output row is [passage_j ; summary_j], twice the input width.
    With normalize=True the weights of each row pass through a softmax
    before pooling. Question rows at or past question_len are padding: a
    zero padding row already gets weight 0, but the softmax would give it
    mass, so the normalized path drops those rows first.
    """
    if passage_states.data.ndim != 2 or question_states.data.ndim != 2:
        raise nm.ShapeError("attend expects two state matrices")
    if passage_states.data.shape[0] == 0 or question_states.data.shape[0] == 0:
        raise nm.ShapeError("attend needs non-empty state sequences")
    if passage_states.data.shape[1] != question_states.data.shape[1]:
        raise nm.ShapeError(
            f"state widths disagree: {passage_states.data.shape} vs {question_states.data.shape}"
        )
    if normalize and question_len is not None and question_len < question_states.data.shape[0]:
        question_states = nm.gather_rows(question_states, range(question_len))
    weights = nm.matmul(passage_states, nm.transpose(question_states))  # (T, K)
    if normalize:
        weights = nm.softmax(weights)
    pooled = nm.matmul(weights, question_states)  # (T, 2d)
    return nm.concat(passage_states, pooled)  # (T, 4d)


def chunk_repr(
    fwd_states: Tensor, bwd_states: Tensor, candidates: Sequence[CandidateChunk]
) -> Tensor:
    """One row per candidate: the forward state at its first word
    concatenated with the backward state at its last word. A candidate
    reaching past the state rows raises IndexError."""
    starts = [c.start - 1 for c in candidates]
    ends = [c.end - 1 for c in candidates]
    return nm.concat(nm.gather_rows(fwd_states, starts), nm.gather_rows(bwd_states, ends))


def question_repr(fwd_states: Tensor, bwd_states: Tensor, length: int | None = None) -> Tensor:
    """Question summary: last real forward state plus first backward state."""
    if length is None:
        length = fwd_states.data.shape[0]
    return nm.concat(nm.row(fwd_states, length - 1), nm.row(bwd_states, 0))


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
        nm.accumulate(reps, np.outer(gs, q) - (g * s / n2)[:, None] * R)
        nm.accumulate(question, R.T @ gs - (g @ s / m2) * q)

    return nm.record(Tensor(s), (reps, question), backward_fn)


def score_chunks(
    chunk_reprs: Tensor,
    question: Tensor,
    candidates: Sequence[CandidateChunk],
    scoring: str = "dot",
) -> ChunkScoreSet:
    """Rank candidates: one dot product (or cosine) per chunk, softmaxed."""
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
    return ChunkScoreSet(list(candidates), nm.softmax(scores), scores)


def nll_loss(score_set: ChunkScoreSet, gold: CandidateChunk) -> Tensor:
    """Negative log probability of the gold span's candidate, computed from
    the pre-softmax scores so that it stays finite for any finite scores.

    The gold span must be present in the candidate list; training filters
    out examples whose gold cannot be generated, so absence here is a bug.
    """
    try:
        idx = score_set.candidates.index(gold)
    except ValueError:
        raise LookupError(
            f"gold span {(gold.start, gold.end)} not among {len(score_set.candidates)} candidates"
        ) from None
    return nm.softmax_nll(score_set.scores, idx)


class ChunkReaderModel:
    """Holds both encoders plus the candidate-generation setup."""

    def __init__(self, config: ModelConfig, trie: PosPatternTrie | None = None):
        if config.candidate_mode not in ("window", "trie"):
            raise ValueError(f"unknown candidate mode: {config.candidate_mode!r}")
        if config.scoring not in ("dot", "cosine"):
            raise ValueError(f"unknown scoring: {config.scoring!r}")
        if config.max_chunk_len < 1:
            raise ValueError(f"max_chunk_len must be >= 1, got {config.max_chunk_len}")
        if config.candidate_mode == "trie" and trie is None:
            raise ValueError("trie candidate mode needs a built trie")
        self.config = config
        self.trie = trie
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

    def candidates_for(self, passage) -> list[CandidateChunk]:
        return generate_candidates(
            passage, self.config.candidate_mode, self.trie, self.config.max_chunk_len
        )

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
        """Score one example's candidates.

        Feature blocks may carry trailing zero-padding rows; passage_len /
        question_len give the true lengths. Dropout, when active, hits the
        input features of both sequences (passage drawn first, question
        second, so the random stream is consumed in a fixed order).
        """
        if len(candidates) == 0:
            raise ValueError("cannot score an empty candidate set")
        Xp = nm.tensor(passage_features)
        Xq = nm.tensor(question_features)
        plen = Xp.data.shape[0] if passage_len is None else passage_len
        for c in candidates:
            if c.end > plen:
                raise IndexError(f"candidate [{c.start}, {c.end}] beyond passage length {plen}")
        if training and dropout_rate > 0.0:
            if rng is None:
                raise ValueError("dropout needs an rng")
            Xp = nm.dropout(Xp, dropout_rate, rng, training=True)
            Xq = nm.dropout(Xq, dropout_rate, rng, training=True)

        _, _, passage_ctx = self.shared_encoder.encode(Xp, passage_len)
        q_fwd, q_bwd, question_ctx = self.shared_encoder.encode(Xq, question_len)
        fused = attend(passage_ctx, question_ctx, self.config.normalize_attention, question_len)
        g_fwd, g_bwd, _ = self.attention_encoder.encode(fused, passage_len)

        reps = chunk_repr(g_fwd, g_bwd, candidates)
        qrep = question_repr(q_fwd, q_bwd, question_len)
        return score_chunks(reps, qrep, candidates, self.config.scoring)

    def score_example(self, ex: Example, featurizer: Featurizer) -> ChunkScoreSet | None:
        """Rank the candidates of one full-length example; None when the
        example yields no candidates."""
        candidates = self.candidates_for(ex.passage)
        if not candidates:
            return None
        return self.forward(featurizer.passage_matrix(ex), featurizer.question_matrix(ex), candidates)

    def predict_example(self, ex: Example, featurizer: Featurizer) -> AnswerSpan | None:
        """Highest-probability candidate span for one example; None when the
        example yields no candidates."""
        got = self.answer(ex, featurizer)
        return None if got.start is None else AnswerSpan(got.start, got.end, got.answer)

    def answer(self, ex: Example, featurizer: Featurizer) -> Prediction:
        """The answer `predict`, `evaluate` and the dev loop give for one
        example: the best candidate with its probability, or the empty
        answer when the example yields no candidates."""
        scored = self.score_example(ex, featurizer)
        if scored is None:
            return Prediction(ex.id, "")
        best = scored.best_index()
        span = scored.candidates[best]
        return Prediction(
            ex.id,
            detokenize(ex.passage[span.start - 1 : span.end]),
            span.start,
            span.end,
            float(scored.probabilities.data[best]),
        )
