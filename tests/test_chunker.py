"""Candidate generation against brute-force oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import chunker
from chunkreader.checkpoint import save_checkpoint
from chunkreader.chunker import CandidateChunk
from chunkreader.model import ChunkReaderModel, ModelConfig
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
    # (True, 2) returned the one candidate of a one-token passage
    for sizes in ((0, 5), (5, 0), (True, 2), (2, np.True_), (2.0, 2), (3, 1.5), ("3", 2)):
        with pytest.raises(ValueError, match="^passage_length and max_len must be ints >= 1"):
            chunker.enumerate_candidates(*sizes)


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
# pattern table construction


def _table_from_patterns(patterns):
    """The table build_pos_trie gives for answers with these tag patterns."""
    return dict(Counter(tuple(p) for p in patterns))


def _trie_model(table, cap=10):
    config = ModelConfig(
        hidden_size=2, embedding_dim=0, candidate_mode="trie", max_chunk_len=cap,
        pos_tags=("A",), ne_tags=("O",),
    )
    return ChunkReaderModel(config, table)


def _answer(pos, span):
    return make_example("a", [f"w{i}" for i in range(len(pos))], ["q"], [span], pos=pos)


def test_build_trie_three_patterns():
    # exactly the answers' patterns are keys: neither a mixed sequence
    # (NNP CD) nor an unseen tag (NN) of the passages is held
    exs = [
        _answer(["NNP", "CD", "NN"], (1, 1)),
        _answer(["NN", "NNP", "NNP", "CD"], (2, 3)),
        _answer(["NNP", "CD"], (2, 2)),
    ]
    assert chunker.build_pos_trie(exs, 10) == {("NNP",): 1, ("NNP", "NNP"): 1, ("CD",): 1}


def test_trie_duplicate_pattern_counts():
    exs = [_answer(["CD", "NN"], (1, 1)), _answer(["NN", "CD"], (2, 2))]
    assert chunker.build_pos_trie(exs, 10) == {("CD",): 2}


def test_trie_prefix_is_not_terminal():
    # a key's prefix matches nothing
    passage = make_tokens(["a", "b", "c"], pos=["NNP", "NNP", "NN"])
    got = chunker.trie_candidates(passage, _table_from_patterns([["NNP", "NNP"]]))
    assert [(c.start, c.end) for c in got] == [(1, 2)]


def test_trie_cap_rejects_long_patterns():
    # the model's table holds no pattern over max_chunk_len
    with pytest.raises(ValueError, match=r"^bad trie pattern \('A', 'B', 'C'\) \(count 1\): need 1 to 2 "):
        _trie_model({("A", "B", "C"): 1}, cap=2)
    assert _trie_model({("A", "B"): 1}, cap=2).trie == {("A", "B"): 1}


def test_trie_cap_and_counts_are_ints():
    # a cap of 2.5 was read as 2 and True as 1, and a count of 1.9 was
    # stored as 1
    ex = make_example("a", ["Alice", "Smith", "ran"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"])
    for cap in (2.5, True, np.True_, "2", 0):
        with pytest.raises(ValueError, match="^depth_cap must be an int >= 1, got "):
            chunker.build_pos_trie([ex], cap)
    assert chunker.build_pos_trie([ex], np.int64(2)) == {("NNP", "NNP"): 1}
    # a negative count saved a checkpoint that could not be loaded
    for count in (1.9, True, "1", -1):
        with pytest.raises(ValueError, match=rf"^bad trie pattern \('A',\) \(count {count!r}\): "):
            _trie_model({("A",): count})
    assert _trie_model({("A",): np.int64(2)}).trie == {("A",): 2}


def test_trie_rejects_empty_pattern():
    with pytest.raises(ValueError, match=r"^bad trie pattern \(\) "):
        _trie_model({(): 1})


def test_build_pos_trie_from_examples():
    ex1 = make_example("a", ["Alice", "Smith", "ran"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"])
    ex2 = make_example("b", ["Seven", "dogs"], ["how", "many"], [(1, 1)], pos=["CD", "NNS"])
    assert chunker.build_pos_trie([ex1, ex2], 10) == {("NNP", "NNP"): 1, ("CD",): 1}


def test_build_pos_trie_leaves_out_answers_over_the_cap():
    ex1 = make_example("a", ["Alice", "Smith", "ran"], ["who"], [(1, 2)], pos=["NNP", "NNP", "VBD"])
    ex2 = make_example("b", ["Seven", "dogs"], ["how", "many"], [(1, 1)], pos=["CD", "NNS"])
    assert chunker.build_pos_trie([ex1, ex2], 1) == {("CD",): 1}


def test_patterns_enumeration_sorted(tmp_path):
    # a checkpoint lists the patterns in sorted order, whatever order the
    # table holds them in, so that its bytes are stable
    model = _trie_model({("Z",): 1, ("A",): 1, ("A", "B"): 1, ("M",): 1})
    save_checkpoint(model, tmp_path / "m.ckpt")
    lines = (tmp_path / "m.ckpt").read_bytes().split(b"\n")
    pats = [line.split(b" ")[2:] for line in lines if line.startswith(b"trie_pattern ")]
    assert pats == [[b"A"], [b"A", b"B"], [b"M"], [b"Z"]]


# ---------------------------------------------------------------------------
# pattern matching


def test_trie_candidates_spec_example():
    table = _table_from_patterns([["NNP"], ["NNP", "NNP"], ["CD"]])
    passage = make_tokens(["a", "b", "c"], pos=["NNP", "NNP", "CD"])
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, table)}
    assert got == {(1, 1), (2, 2), (1, 2), (3, 3)}


def test_trie_candidates_empty_trie():
    passage = make_tokens(["a", "b"], pos=["NN", "NN"])
    assert chunker.trie_candidates(passage, {}) == []


def test_trie_candidates_respect_cap():
    # a key's length bounds its spans: no longer run of X matches, and no
    # span runs past the passage's end
    passage = make_tokens(["a"] * 4, pos=["X"] * 4)
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, {("X", "X"): 1})}
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
    table = _table_from_patterns(patterns)
    passage = make_tokens([f"w{i}" for i in range(length)], pos=tags)
    got = {(c.start, c.end) for c in chunker.trie_candidates(passage, table)}
    assert got == brute_force_pattern_spans(tags, patterns)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 25))
def test_property_trie_candidates_sorted_unique(seed, length):
    rng = np.random.default_rng(seed)
    tags = [["A", "B"][i] for i in rng.integers(0, 2, size=length)]
    table = _table_from_patterns([["A"], ["A", "B"], ["B", "B"]])
    passage = make_tokens([f"w{i}" for i in range(length)], pos=tags)
    got = [(c.start, c.end) for c in chunker.trie_candidates(passage, table)]
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
    table = chunker.build_pos_trie(exs, 10)
    assert table == {("NNP",): 1, ("NNP", "NNP"): 1}
    lists = [chunker.trie_candidates(e.passage, table) for e in exs]
    assert chunker.candidate_recall(exs, lists) == 1.0


def test_recall_alignment_and_empties():
    ex = make_example("a", ["x"], ["q"], [(1, 1)])
    with pytest.raises(ValueError):
        chunker.candidate_recall([ex], [])
    with pytest.raises(ValueError):
        chunker.candidate_recall([], [])


def test_generate_candidates_dispatch():
    passage = make_tokens(["a", "b"], pos=["NN", "NN"])
    # no table: window candidates up to max_len; a table: its matches,
    # which max_len does not bound
    window = chunker.generate_candidates(passage, None, 1)
    assert [(c.start, c.end) for c in window] == [(1, 1), (2, 2)]
    via_trie = chunker.generate_candidates(passage, {("NN", "NN"): 1}, 1)
    assert [(c.start, c.end) for c in via_trie] == [(1, 2)]
    assert chunker.generate_candidates(passage, {}, 1) == []
    assert chunker.CANDIDATE_MODES == ("window", "trie")


def test_chunk_equality_validation_and_length():
    assert CandidateChunk(1, 2) == CandidateChunk(1, 2)
    assert CandidateChunk(1, 2) != CandidateChunk(1, 3)
    with pytest.raises(ValueError):
        CandidateChunk(2, 1)
    assert CandidateChunk(3, 7).length == 5
