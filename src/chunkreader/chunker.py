"""Candidate answer chunk generation.

Two interchangeable strategies, named in CANDIDATE_MODES, produce the
candidate set that the ranking model scores; the model's config picks
one and sets the length cap both obey. Windowed enumeration emits every
span up to the cap. The trie strategy keeps a plain table from the POS
tag tuple of each training answer within the cap to its number of
answers (which only checkpoints read), and emits exactly the passage
spans whose tag tuple is a key; it trades recall for fewer candidates.

Candidate lists are always duplicate-free and sorted by (start, end) so
that list index <-> span is a fixed mapping everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import numerics as nm
from .corpus import AnnotatedToken, Example

__all__ = [
    "CandidateChunk",
    "build_pos_trie",
    "trie_candidates",
    "enumerate_candidates",
    "generate_candidates",
    "candidate_recall",
    "CANDIDATE_MODES",
]

CANDIDATE_MODES = ("window", "trie")


@dataclass(frozen=True, order=True)
class CandidateChunk:
    """Span of passage tokens, 1-based inclusive on both ends."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"invalid chunk [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def build_pos_trie(examples: Sequence[Example], depth_cap: int) -> dict[tuple[str, ...], int]:
    """The table of answer tag patterns: the POS tag tuple of each gold
    answer span of at most depth_cap tokens (an int >= 1, else ValueError),
    mapped to its number of spans; longer answers are left out."""
    if not (nm.is_int([depth_cap]) and depth_cap >= 1):
        raise ValueError(f"depth_cap must be an int >= 1, got {depth_cap!r}")
    table: dict[tuple[str, ...], int] = {}
    for ex in examples:
        for span in ex.answers:
            if span.length <= depth_cap:
                pattern = tuple(tok.pos for tok in ex.passage[span.start - 1 : span.end])
                table[pattern] = table.get(pattern, 0) + 1
    return table


def trie_candidates(
    passage: Sequence[AnnotatedToken], table: dict[tuple[str, ...], int]
) -> list[CandidateChunk]:
    """All spans whose POS tag tuple is a key of the table, by (start, end);
    the key lengths alone bound the span length."""
    tags = tuple(tok.pos for tok in passage)
    lengths = sorted({len(pattern) for pattern in table})
    return [
        CandidateChunk(s + 1, s + n)
        for s in range(len(tags))
        for n in lengths
        if s + n <= len(tags) and tags[s : s + n] in table
    ]


def enumerate_candidates(passage_length: int, max_len: int) -> list[CandidateChunk]:
    """Every span of at most max_len tokens, ordered by (start, end)."""
    if not (nm.is_int([passage_length, max_len]) and passage_length >= 1 and max_len >= 1):
        raise ValueError(f"passage_length and max_len must be ints >= 1, got {(passage_length, max_len)}")
    out = []
    for start in range(1, passage_length + 1):
        last = min(start + max_len - 1, passage_length)
        for end in range(start, last + 1):
            out.append(CandidateChunk(start, end))
    return out


def generate_candidates(
    passage: Sequence[AnnotatedToken],
    table: dict[tuple[str, ...], int] | None,
    max_len: int,
) -> list[CandidateChunk]:
    """One passage's candidates: every span of at most max_len tokens
    without a pattern table, else the spans the table matches."""
    if table is None:
        return enumerate_candidates(len(passage), max_len)
    return trie_candidates(passage, table)


def candidate_recall(
    examples: Sequence[Example], candidate_lists: Sequence[Sequence[CandidateChunk]]
) -> float:
    """Fraction of examples whose gold span set intersects the candidates.

    A hit requires exact (start, end) agreement with at least one gold
    answer span."""
    if len(examples) != len(candidate_lists):
        raise ValueError(
            f"{len(examples)} examples vs {len(candidate_lists)} candidate lists"
        )
    if not examples:
        raise ValueError("recall over zero examples is undefined")
    hits = 0
    for ex, candidates in zip(examples, candidate_lists):
        spans = {(c.start, c.end) for c in candidates}
        if any((a.start, a.end) in spans for a in ex.answers):
            hits += 1
    return hits / len(examples)
