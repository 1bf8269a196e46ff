"""Answer-string metrics and diagnostic breakdowns.

Exact match and token-level F1 follow the reading-comprehension scoring
convention: answers are normalized (lowercase, punctuation stripped,
leading articles removed, whitespace tokenized), per-example scores take
the best value over all gold references, and corpus scores are plain
means. Token overlap is multiset overlap, so repeated words count with
multiplicity.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Example

__all__ = [
    "ExampleResult",
    "BreakdownRow",
    "EvalReport",
    "normalize_answer",
    "exact_match",
    "f1_score",
    "evaluate",
    "breakdown_by_answer_length",
    "breakdown_by_head_word",
    "MAX_BUCKET_LEN",
    "MIN_BIGRAM_COUNT",
]

MAX_BUCKET_LEN = 10  # answers longer than this share one length bucket
MIN_BIGRAM_COUNT = 20  # fewer 'what' questions than this drop a bigram row

_ARTICLE = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(text: str) -> list[str]:
    """Lowercase, drop punctuation characters, drop articles, split."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE.sub(" ", text)
    return text.split()


def exact_match(prediction: str, references: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized reference."""
    if not references:
        raise ValueError("exact_match needs at least one reference")
    pred = normalize_answer(prediction)
    return int(any(pred == normalize_answer(ref) for ref in references))


def _f1_single(pred_tokens: list[str], ref_tokens: list[str]) -> float:
    if not pred_tokens and not ref_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(ref_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_score(prediction: str, references: Sequence[str]) -> float:
    """Best token-overlap F1 over the references."""
    if not references:
        raise ValueError("f1_score needs at least one reference")
    pred_tokens = normalize_answer(prediction)
    return max(_f1_single(pred_tokens, normalize_answer(r)) for r in references)


@dataclass(frozen=True)
class ExampleResult:
    id: str
    em: int
    f1: float
    shortest_gold_len: int  # tokens in the shortest gold span
    head_tokens: tuple[str, ...]  # first two question surfaces, lowercased


@dataclass(frozen=True)
class BreakdownRow:
    count: int
    fraction: float
    em: float
    f1: float


@dataclass
class EvalReport:
    em: float
    f1: float
    records: list[ExampleResult]


def evaluate(predictions: Mapping[str, str], examples: Sequence[Example]) -> EvalReport:
    """Score a prediction-text map against gold answers.

    Every example id must be present in `predictions`; a missing or
    unknown id is an alignment bug, not a zero score.
    """
    if not examples:
        raise ValueError("cannot evaluate an empty dataset")
    known = {ex.id for ex in examples}
    for pid in predictions:
        if pid not in known:
            raise ValueError(f"prediction for unknown example id {pid!r}")
    records = []
    for ex in examples:
        if ex.id not in predictions:
            raise ValueError(f"missing prediction for example id {ex.id!r}")
        if not ex.answers:
            raise ValueError(f"example {ex.id!r} has no gold answers")
        pred = predictions[ex.id]
        refs = [a.text for a in ex.answers]
        records.append(
            ExampleResult(
                id=ex.id,
                em=exact_match(pred, refs),
                f1=f1_score(pred, refs),
                shortest_gold_len=min(a.length for a in ex.answers),
                head_tokens=tuple(t.surface.lower() for t in ex.question[:2]),
            )
        )
    n = len(records)
    return EvalReport(
        em=sum(r.em for r in records) / n,
        f1=sum(r.f1 for r in records) / n,
        records=records,
    )


def _rows(groups: dict, total: int) -> dict:
    out = {}
    for key in sorted(groups, key=str):
        rs = groups[key]
        out[key] = BreakdownRow(
            count=len(rs),
            fraction=len(rs) / total,
            em=sum(r.em for r in rs) / len(rs),
            f1=sum(r.f1 for r in rs) / len(rs),
        )
    return out


def breakdown_by_answer_length(report: EvalReport) -> dict:
    """Metrics grouped by shortest-gold length; longer answers pool into
    one overflow bucket keyed '>{MAX_BUCKET_LEN}'. Only populated rows
    appear."""
    groups: dict = {}
    for r in report.records:
        key = r.shortest_gold_len if r.shortest_gold_len <= MAX_BUCKET_LEN else f">{MAX_BUCKET_LEN}"
        groups.setdefault(key, []).append(r)
    return _rows(groups, len(report.records))


def breakdown_by_head_word(report: EvalReport) -> tuple[dict, dict]:
    """Metrics grouped by the question's first word, plus a second table
    splitting 'what' questions by their first two words. Bigram buckets
    with fewer than MIN_BIGRAM_COUNT examples are dropped."""
    heads: dict = {}
    bigrams: dict = {}
    for r in report.records:
        if not r.head_tokens:
            continue
        heads.setdefault(r.head_tokens[0], []).append(r)
        if r.head_tokens[0] == "what":
            bigrams.setdefault(" ".join(r.head_tokens), []).append(r)
    total = len(report.records)
    head_table = _rows(heads, total)
    bigram_table = _rows(
        {k: v for k, v in bigrams.items() if len(v) >= MIN_BIGRAM_COUNT}, total
    )
    return head_table, bigram_table
