"""Candidate answer chunk generation.

Two interchangeable strategies, named in CANDIDATE_MODES, produce the
candidate set that the ranking model scores; the model's config picks
one and sets the length cap both obey. Windowed enumeration emits every
span up to the cap. The trie strategy learns the POS tag patterns of
training answers and emits exactly the passage spans whose tag sequence
matches a learned pattern; it trades recall for a smaller candidate list.

Candidate lists are always duplicate-free and sorted by (start, end) so
that list index <-> span is a fixed mapping everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import numerics as nm
from .corpus import AnnotatedToken, Example

__all__ = [
    "CandidateChunk",
    "PosPatternTrie",
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


class _TrieNode:
    __slots__ = ("children", "terminal", "count")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.terminal = False
        self.count = 0


class PosPatternTrie:
    """Set of POS tag sequences with multiplicities, stored as a trie.

    A pattern longer than depth_cap is refused at insert with ValueError;
    build_pos_trie leaves such answers out instead. The cap and every count
    are ints (`nm.is_int`), else ValueError.
    """

    def __init__(self, depth_cap: int):
        if not (nm.is_int([depth_cap]) and depth_cap >= 1):
            raise ValueError(f"depth_cap must be an int >= 1, got {depth_cap!r}")
        self.depth_cap = depth_cap
        self.root = _TrieNode()

    def insert(self, pattern: Sequence[str], count: int = 1) -> None:
        """Add a pattern with multiplicity."""
        if not nm.is_int([count]):
            raise ValueError(f"count must be an int, got {count!r}")
        if len(pattern) == 0:
            raise ValueError("empty pattern")
        if len(pattern) > self.depth_cap:
            raise ValueError(f"pattern of {len(pattern)} tags exceeds the depth cap {self.depth_cap}")
        node = self.root
        for tag in pattern:
            node = node.children.setdefault(tag, _TrieNode())
        node.terminal = True
        node.count += count

    def patterns(self) -> Iterator[tuple[tuple[str, ...], int]]:
        """Yield (pattern, count) pairs in sorted pattern order, which makes
        serialized checkpoints byte-stable."""

        def walk(node, prefix):
            if node.terminal:
                yield tuple(prefix), node.count
            for tag in sorted(node.children):
                prefix.append(tag)
                yield from walk(node.children[tag], prefix)
                prefix.pop()

        yield from walk(self.root, [])


def build_pos_trie(examples: Sequence[Example], depth_cap: int) -> PosPatternTrie:
    """Collect the POS pattern of every gold answer span of at most
    depth_cap tokens into a trie; longer answers are left out."""
    trie = PosPatternTrie(depth_cap)
    for ex in examples:
        for span in ex.answers:
            if span.length <= depth_cap:
                trie.insert([tok.pos for tok in ex.passage[span.start - 1 : span.end]])
    return trie


def trie_candidates(passage: Sequence[AnnotatedToken], trie: PosPatternTrie) -> list[CandidateChunk]:
    """All spans whose POS sequence traces a root-to-terminal trie path.

    From each start position the walk descends at most depth_cap tags, so
    the scan is O(|passage| * depth_cap)."""
    tags = [tok.pos for tok in passage]
    found: list[CandidateChunk] = []
    for s in range(len(tags)):
        node = trie.root
        for j in range(s, min(s + trie.depth_cap, len(tags))):
            node = node.children.get(tags[j])
            if node is None:
                break
            if node.terminal:
                found.append(CandidateChunk(s + 1, j + 1))
    return found


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
    mode: str,
    trie: PosPatternTrie | None,
    max_len: int,
) -> list[CandidateChunk]:
    """Dispatch to the configured strategy for one passage."""
    if mode == "window":
        return enumerate_candidates(len(passage), max_len)
    if mode == "trie":
        if trie is None:
            raise ValueError("trie mode needs a built PosPatternTrie")
        return trie_candidates(passage, trie)
    raise ValueError(f"unknown candidate mode: {mode!r}")


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
