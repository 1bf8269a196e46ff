"""Candidate generation against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import chunker
from chunkreader.chunker import CandidateChunk
from helpers import make_example, make_tokens


def brute_force_window(length, max_len):
    """Oracle: every (start, end) pair with end-start+1 <= max_len."""
    return [
        (s, e)
        for s in range(1, length + 1)
        for e in range(s, length + 1)
        if e - s + 1 <= max_len
    ]


def brute_force_pattern_spans(tags, patterns):
    """Oracle: all substrings of the tag sequence found in the pattern set."""
    out = set()
    for s in range(len(tags)):
        for e in range(s, len(tags)):
            if tuple(tags[s : e + 1]) in patterns:
                out.add((s + 1, e + 1))
    return out


# ---------------------------------------------------------------------------
# windowed enumeration


def test_enumerate_small_matches_oracle():
    got = [(c.start, c.end) for c in chunker.enumerate_candidates(5, 3)]
    assert got == brute_force_window(5, 3)
    assert len(got) == 12


def test_enumerate_single_token_passage():
    assert [(c.start, c.end) for c in chunker.enumerate_candidates(1, 10)] == [(1, 1)]


def test_enumerate_width_one():
    got = chunker.enumerate_candidates(4, 1)
    assert [(c.start, c.end) for c in got] == [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_enumerate_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        chunker.enumerate_candidates(0, 5)
    with pytest.raises(ValueError):
        chunker.enumerate_candidates(5, 0)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(1, 50), max_len=st.integers(1, 50))
def test_property_enumerate_count_formula(length, max_len):
    got = chunker.enumerate_candidates(length, max_len)
    expected = sum(min(max_len, length - j + 1) for j in range(1, length + 1))
    assert len(got) == expected
    assert len(got) == len(brute_force_window(length, max_len))


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 40), max_len=st.integers(1, 12))
def test_property_enumerate_sorted_unique(length, max_len):
    got = [(c.start, c.end) for c in chunker.enumerate_candidates(length, max_len)]
    assert got == sorted(set(got))


# ---------------------------------------------------------------------------
# trie construction


def _trie_from_patterns(patterns, cap=10):
    trie = chunker.PosPatternTrie(cap)
    for p in patterns:
        trie.insert(p)
    return trie


def test_build_trie_three_patterns():
    # exactly the three inserted patterns are terminal: neither a mixed
    # sequence (NNP CD) nor an unseen tag (NN) is held
    trie = _trie_from_patterns([["NNP"], ["NNP", "NNP"], ["CD"]])
    assert dict(trie.patterns()) == {("NNP",): 1, ("NNP", "NNP"): 1, ("CD",): 1}


def test_trie_duplicate_pattern_counts():
    trie = _trie_from_patterns([["CD"], ["CD"]])
    assert dict(trie.patterns()) == {("CD",): 2}


def test_trie_prefix_is_not_terminal():
    trie = _trie_from_patterns([["NNP", "NNP"]])
    assert dict(trie.patterns()) == {("NNP", "NNP"): 1}


def test_trie_cap_rejects_long_patterns():
    trie = chunker.PosPatternTrie(depth_cap=2)
    with pytest.raises(ValueError, match="exceeds the depth cap 2"):
        trie.insert(["A", "B", "C"])
    trie.insert(["A", "B"])
    assert dict(trie.patterns()) == {("A", "B"): 1}


def test_trie_rejects_empty_pattern():
    with pytest.raises(ValueError):
        chunker.PosPatternTrie(10).insert([])


def test_build_pos_trie_from_examples():
    ex1 = make_example("a", ["Alice", "Smith", "ran"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"])
    ex2 = make_example("b", ["Seven", "dogs"], ["how", "many"], [(1, 1)], pos=["CD", "NNS"])
    trie = chunker.build_pos_trie([ex1, ex2], 10)
    assert dict(trie.patterns()) == {("NNP", "NNP"): 1, ("CD",): 1}


def test_build_pos_trie_leaves_out_answers_over_the_cap():
    ex1 = make_example("a", ["Alice", "Smith", "ran"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"])
    ex2 = make_example("b", ["Seven", "dogs"], ["how", "many"], [(1, 1)], pos=["CD", "NNS"])
    trie = chunker.build_pos_trie([ex1, ex2], 1)
    assert trie.depth_cap == 1
    assert dict(trie.patterns()) == {("CD",): 1}


def test_patterns_enumeration_sorted():
    trie = _trie_from_patterns([["Z"], ["A"], ["A", "B"], ["M"]])
    pats = [p for p, _ in trie.patterns()]
    assert pats == sorted(pats)


# ---------------------------------------------------------------------------
# trie matching


def test_trie_candidates_spec_example():
    trie = _trie_from_patterns([["NNP"], ["NNP", "NNP"], ["CD"]])
    passage = make_tokens(["a", "b", "c"], pos=["NNP", "NNP", "CD"])
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, trie)}
    assert got == {(1, 1), (2, 2), (1, 2), (3, 3)}


def test_trie_candidates_empty_trie():
    passage = make_tokens(["a", "b"], pos=["NN", "NN"])
    assert chunker.trie_candidates(passage, chunker.PosPatternTrie(10)) == []


def test_trie_candidates_respect_cap():
    trie = chunker.PosPatternTrie(depth_cap=2)
    trie.insert(["X", "X"])
    passage = make_tokens(["a"] * 4, pos=["X"] * 4)
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, trie)}
    assert got == {(1, 2), (2, 3), (3, 4)}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    length=st.integers(1, 30),
    n_patterns=st.integers(1, 5),
)
def test_property_trie_matches_brute_force(seed, length, n_patterns):
    rng = np.random.default_rng(seed)
    alphabet = ["NN", "NNP", "CD", "JJ", "VB"]
    tags = [alphabet[i] for i in rng.integers(0, len(alphabet), size=length)]
    patterns = set()
    for _ in range(n_patterns):
        plen = int(rng.integers(1, 5))
        patterns.add(tuple(alphabet[i] for i in rng.integers(0, len(alphabet), size=plen)))
    trie = _trie_from_patterns([list(p) for p in patterns])
    passage = make_tokens([f"w{i}" for i in range(length)], pos=tags)
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, trie)}
    assert got == brute_force_pattern_spans(tags, patterns)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 25))
def test_property_trie_candidates_sorted_unique(seed, length):
    rng = np.random.default_rng(seed)
    tags = [["A", "B"][i] for i in rng.integers(0, 2, size=length)]
    trie = _trie_from_patterns([["A"], ["A", "B"], ["B", "B"]])
    passage = make_tokens([f"w{i}" for i in range(length)], pos=tags)
    got = [(c.start, c.end) for c in chunker.trie_candidates(passage, trie)]
    assert got == sorted(set(got))


# ---------------------------------------------------------------------------
# recall


def test_recall_single_token_golds_window():
    exs = [
        make_example("a", ["x", "y", "z"], ["q"], [(2, 2)]),
        make_example("b", ["u", "v"], ["q"], [(1, 1)]),
    ]
    lists = [chunker.enumerate_candidates(len(e.passage), 1) for e in exs]
    assert chunker.candidate_recall(exs, lists) == 1.0


def test_recall_counts_misses():
    exs = [
        make_example("a", ["x", "y", "z"], ["q"], [(1, 3)]),  # length 3 span
        make_example("b", ["u", "v"], ["q"], [(1, 1)]),
    ]
    lists = [chunker.enumerate_candidates(len(e.passage), 2) for e in exs]
    assert chunker.candidate_recall(exs, lists) == 0.5


def test_recall_trie_on_own_training_answers():
    exs = [
        make_example("a", ["Alice", "ran"], ["who"], [(1, 1)], pos=["NNP", "VBD"]),
        make_example("b", ["Bob", "Smith", "sat"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"]),
    ]
    trie = chunker.build_pos_trie(exs, 10)
    assert dict(trie.patterns()) == {("NNP",): 1, ("NNP", "NNP"): 1}
    lists = [chunker.trie_candidates(e.passage, trie) for e in exs]
    assert chunker.candidate_recall(exs, lists) == 1.0


def test_recall_alignment_and_empties():
    ex = make_example("a", ["x"], ["q"], [(1, 1)])
    with pytest.raises(ValueError):
        chunker.candidate_recall([ex], [])
    with pytest.raises(ValueError):
        chunker.candidate_recall([], [])


def test_generate_candidates_dispatch():
    passage = make_tokens(["a", "b"], pos=["NN", "NN"])
    window = chunker.generate_candidates(passage, "window", None, 1)
    assert [(c.start, c.end) for c in window] == [(1, 1), (2, 2)]
    trie = _trie_from_patterns([["NN"]])
    via_trie = chunker.generate_candidates(passage, "trie", trie, 10)
    assert [(c.start, c.end) for c in via_trie] == [(1, 1), (2, 2)]
    with pytest.raises(ValueError):
        chunker.generate_candidates(passage, "trie", None, 10)
    with pytest.raises(ValueError):
        chunker.generate_candidates(passage, "parse", None, 10)
    assert chunker.CANDIDATE_MODES == ("window", "trie")


def test_chunk_equality_validation_and_length():
    assert CandidateChunk(1, 2) == CandidateChunk(1, 2)
    assert CandidateChunk(1, 2) != CandidateChunk(1, 3)
    with pytest.raises(ValueError):
        CandidateChunk(2, 1)
    assert CandidateChunk(3, 7).length == 5
