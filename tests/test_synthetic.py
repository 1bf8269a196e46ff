"""Synthetic dataset generator: determinism, validity, learnability hooks."""

import pytest

from chunkreader import chunker, corpus, synthetic


def test_generation_is_deterministic():
    spec = synthetic.SyntheticSpec(n_examples=32, seed=7)
    a, table_a = synthetic.generate(spec)
    b, table_b = synthetic.generate(spec)
    assert a == b
    assert sorted(table_a.entries) == sorted(table_b.entries)
    for w in table_a.entries:
        assert (table_a.entries[w] == table_b.entries[w]).all()


def test_different_seeds_differ():
    a, _ = synthetic.generate(synthetic.SyntheticSpec(seed=1))
    b, _ = synthetic.generate(synthetic.SyntheticSpec(seed=2))
    assert a != b


def test_golds_are_valid_spans():
    examples, _ = synthetic.generate(synthetic.SyntheticSpec(n_examples=50, seed=3))
    for ex in examples:
        for a in ex.answers:
            assert 1 <= a.start <= a.end <= len(ex.passage)
            joined = corpus.detokenize(ex.passage[a.start - 1 : a.end])
            assert joined == a.text


def test_marker_sits_directly_before_gold():
    examples, _ = synthetic.generate(synthetic.SyntheticSpec(n_examples=20, seed=4))
    for ex in examples:
        marker = ex.question[0].surface
        span = ex.answers[0]
        assert ex.passage[span.start - 2].surface == marker
        # marker is unique within the passage
        assert sum(t.surface == marker for t in ex.passage) == 1


def test_window_recall_is_total():
    examples, _ = synthetic.generate(synthetic.SyntheticSpec(n_examples=30, seed=5))
    lists = [chunker.enumerate_candidates(len(ex.passage), 4) for ex in examples]
    assert chunker.candidate_recall(examples, lists) == 1.0


def test_roundtrip_through_corpus_loader(tmp_path):
    spec = synthetic.SyntheticSpec(n_examples=10, seed=6)
    examples, table = synthetic.generate(spec)
    ds = tmp_path / "syn.jsonl"
    emb = tmp_path / "syn.emb"
    synthetic.write_dataset_jsonl(examples, ds)
    synthetic.write_embeddings_file(table, emb)
    loaded = corpus.load_dataset(ds)
    assert loaded.dropped == []
    assert loaded.examples == examples
    reloaded = corpus.load_embeddings(emb, spec.embedding_dim)
    assert len(reloaded.entries) == len(table.entries)
    for w, v in table.entries.items():
        assert (reloaded.lookup(w) == v).all()


def test_tags_come_from_toy_inventories():
    examples, _ = synthetic.generate(synthetic.SyntheticSpec(n_examples=10, seed=8))
    pos, ne = corpus.build_tag_inventories(examples)
    assert set(pos) <= set(synthetic.POS_TAGS)
    assert set(ne) <= set(synthetic.NE_TAGS)


def test_spec_validation():
    with pytest.raises(ValueError):
        synthetic.SyntheticSpec(answer_len=(1, 5))
    with pytest.raises(ValueError):
        synthetic.SyntheticSpec(answer_len=(2, 1))
    with pytest.raises(ValueError):
        synthetic.SyntheticSpec(passage_len=(2, 10), answer_len=(1, 3))
    with pytest.raises(ValueError):
        synthetic.SyntheticSpec(n_examples=0)
    for passage_len in ((1, 10), (9, 8)):
        with pytest.raises(ValueError, match=r"^passage length range must satisfy 2 <= lo <= hi$"):
            synthetic.SyntheticSpec(passage_len=passage_len)
    for bad in ({"embedding_dim": 0}, {"question_fillers": -1}):
        with pytest.raises(ValueError, match="^embedding_dim must be >= 1, question_fillers >= 0$"):
            synthetic.SyntheticSpec(**bad)
    # seed=True built a spec that drew seed 1's data
    with pytest.raises(ValueError, match="^seed must be an int, got True$"):
        synthetic.SyntheticSpec(seed=True)
    with pytest.raises(ValueError, match=r"^passage_len must be a tuple\[int, int\], got \[8, 14\]$"):
        synthetic.SyntheticSpec(passage_len=[8, 14])
