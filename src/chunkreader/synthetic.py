"""Seeded generator of tiny reading-comprehension datasets.

The acceptance and property suites need data that is (a) fully valid
under the corpus schema, (b) small, and (c) actually learnable. Each
generated question begins with a marker word that appears in exactly one
passage position, immediately before the gold span, so a model that
attends from question to passage can solve the task; failure to overfit
therefore points at the model, not the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedToken, AnswerSpan, EmbeddingTable, Example

__all__ = ["SyntheticSpec", "generate", "write_dataset_jsonl", "write_embeddings_file"]

POS_TAGS = ("ADJ", "DET", "NOUN", "PROPN", "VERB")
NE_TAGS = ("LOC", "MISC", "O", "ORG", "PER")


@dataclass(frozen=True)
class SyntheticSpec:
    n_examples: int = 32
    vocab_size: int = 40
    passage_len: tuple[int, int] = (8, 14)
    answer_len: tuple[int, int] = (1, 3)
    question_fillers: int = 3
    embedding_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.passage_len
        alo, ahi = self.answer_len
        if self.n_examples < 1 or self.vocab_size < 2:
            raise ValueError("need at least 1 example and 2 vocabulary words")
        if not 1 <= alo <= ahi <= 4:
            raise ValueError("answer lengths must satisfy 1 <= lo <= hi <= 4")
        if not 2 <= lo <= hi:
            raise ValueError("passage length range must satisfy 2 <= lo <= hi")
        if lo < ahi + 1:
            raise ValueError(
                "shortest passage must fit the longest answer plus its marker"
            )
        if self.embedding_dim < 1 or self.question_fillers < 0:
            raise ValueError("embedding_dim must be >= 1, question_fillers >= 0")


def _token(surface: str, pos: str, ne: str, offset: int) -> AnnotatedToken:
    return AnnotatedToken(surface=surface, lemma=surface, pos=pos, ne=ne, char_offset=offset)


def _annotate(words: list[str], rng: np.random.Generator) -> tuple[AnnotatedToken, ...]:
    toks = []
    offset = 0
    for w in words:
        pos = POS_TAGS[int(rng.integers(0, len(POS_TAGS)))]
        ne = NE_TAGS[int(rng.integers(0, len(NE_TAGS)))]
        toks.append(_token(w, pos, ne, offset))
        offset += len(w) + 1
    return tuple(toks)


def generate(spec: SyntheticSpec) -> tuple[list[Example], EmbeddingTable]:
    """Build the dataset and a matching seeded embedding table.

    Construction per example: a passage of filler words, one marker word
    "mk<i>" unique to the example placed directly before the gold span,
    and a question that starts with that marker. Tags are drawn from the
    5-tag toy inventories.
    """
    rng = np.random.default_rng(spec.seed)
    vocab = [f"w{j}" for j in range(spec.vocab_size)]
    examples = []
    for i in range(spec.n_examples):
        marker = f"mk{i}"
        lo, hi = spec.passage_len
        length = int(rng.integers(lo, hi + 1))
        alen = int(rng.integers(spec.answer_len[0], spec.answer_len[1] + 1))
        # gold span starts at m >= 2 so the marker fits at position m-1
        start = int(rng.integers(2, length - alen + 2))
        words = [vocab[int(rng.integers(0, spec.vocab_size))] for _ in range(length)]
        words[start - 2] = marker
        question_words = [marker] + [
            vocab[int(rng.integers(0, spec.vocab_size))] for _ in range(spec.question_fillers)
        ]
        end = start + alen - 1
        answer_text = " ".join(words[start - 1 : end])
        examples.append(
            Example(
                id=f"syn{i}",
                passage=_annotate(words, rng),
                question=_annotate(question_words, rng),
                answers=(AnswerSpan(start, end, answer_text),),
            )
        )
    surfaces = sorted({t.surface for ex in examples for t in ex.passage + ex.question})
    emb_rng = np.random.default_rng(spec.seed + 1)
    table = EmbeddingTable(
        spec.embedding_dim,
        {w: emb_rng.normal(scale=0.3, size=spec.embedding_dim) for w in surfaces},
    )
    return examples, table


def _token_record(t: AnnotatedToken) -> dict:
    return {
        "surface": t.surface, "lemma": t.lemma, "pos": t.pos, "ne": t.ne, "offset": t.char_offset,
    }


def write_dataset_jsonl(examples, path) -> None:
    """Emit the standard dataset schema (the one corpus.load_dataset reads),
    one example per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            record = {
                "id": ex.id,
                "passage": [_token_record(t) for t in ex.passage],
                "question": [_token_record(t) for t in ex.question],
                "answers": [
                    {"start": a.start, "end": a.end, "text": a.text} for a in ex.answers
                ],
            }
            fh.write(json.dumps(record) + "\n")


def write_embeddings_file(table: EmbeddingTable, path) -> None:
    """Emit the `word v1 ... v_dim` text format, words sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(table.entries):
            vec = table.entries[word]
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
