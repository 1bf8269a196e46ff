"""Dataset loading, embedding tables, tag inventories, and featurization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import corpus
from helpers import (
    example_dict,
    make_example,
    make_token,
    make_tokens,
    toy_embedding_table,
    write_embeddings,
    write_jsonl,
)


def passage_row(token, question, table, pos_tags, ne_tags):
    """Feature row of `token` as the only passage word facing `question`."""
    ex = corpus.Example("q", (token,), tuple(question), ())
    return corpus.Featurizer(table, pos_tags, ne_tags).passage_matrix(ex)[0]


# ---------------------------------------------------------------------------
# load_dataset


def test_load_roundtrip(tmp_path):
    ex = make_example("q1", ["The", "cat", "sat", "down"], ["who", "sat"], [(2, 2)])
    path = write_jsonl(tmp_path / "data.jsonl", [ex])
    got = corpus.load_dataset(path)
    assert len(got.examples) == 1
    assert got.dropped == []
    loaded = got.examples[0]
    assert loaded.id == "q1"
    assert [t.surface for t in loaded.passage] == ["The", "cat", "sat", "down"]
    assert loaded.answers[0] == corpus.AnswerSpan(2, 2, "cat")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    got = corpus.load_dataset(path)
    assert got.examples == [] and got.dropped == []


def test_load_rejects_reversed_span(tmp_path):
    ex = make_example("q1", ["a", "b", "c"], ["q"], [(1, 2)])
    rec = example_dict(ex)
    rec["answers"] = [{"start": 3, "end": 1, "text": "a b c"}]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert got.examples == []
    assert len(got.dropped) == 1 and "out of range" in got.dropped[0][1]


def test_load_rejects_out_of_range_span(tmp_path):
    ex = make_example("q1", ["a", "b"], ["q"], [(1, 1)])
    rec = example_dict(ex)
    rec["answers"] = [{"start": 1, "end": 5, "text": "a b"}]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert got.examples == [] and got.dropped[0][0] == 1


def test_load_rejects_text_mismatch(tmp_path):
    ex = make_example("q1", ["a", "b", "c"], ["q"], [(1, 1)])
    rec = example_dict(ex)
    rec["answers"] = [{"start": 1, "end": 1, "text": "completely different"}]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert got.examples == [] and "does not match" in got.dropped[0][1]


def test_span_text_ignores_internal_spacing(tmp_path):
    # a percentage split into two tokens must still validate against the
    # unsplit original string
    ex = make_example("q1", ["rose", "51.9", "%", "overall"], ["q"], [(2, 3)])
    rec = example_dict(ex)
    rec["answers"] = [{"start": 2, "end": 3, "text": "51.9%"}]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert len(got.examples) == 1
    assert got.examples[0].answers[0].text == "51.9%"


def test_load_malformed_json_cites_line(tmp_path):
    ex = make_example("q1", ["a"], ["q"], [(1, 1)])
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(example_dict(ex)) + "\n{not json\n")
    with pytest.raises(corpus.DataError, match="line 2"):
        corpus.load_dataset(path)


def test_load_missing_key_cites_line(tmp_path):
    rec = example_dict(make_example("q1", ["a"], ["q"], [(1, 1)]))
    del rec["question"]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(corpus.DataError, match="line 1.*question"):
        corpus.load_dataset(path)


def test_load_rejects_empty_surface(tmp_path):
    rec = example_dict(make_example("q1", ["a", "b"], ["q"], [(1, 1)]))
    rec["passage"][1]["surface"] = ""
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert got.examples == [] and "empty token surface" in got.dropped[0][1]


def _set_answer_start(rec, value):
    rec["answers"][0]["start"] = value


def _set_passage_offset(rec, value):
    rec["passage"][0]["offset"] = value


@pytest.mark.parametrize(
    "corrupt, value",
    [
        (_set_answer_start, "one"),
        (_set_answer_start, 1.5),
        (_set_answer_start, None),
        (_set_passage_offset, None),
        (_set_passage_offset, "0"),
    ],
)
def test_load_non_integer_field_cites_line(tmp_path, corrupt, value):
    good = example_dict(make_example("q0", ["a", "b"], ["q"], [(1, 1)]))
    bad = example_dict(make_example("q1", ["a", "b"], ["q"], [(1, 1)]))
    corrupt(bad, value)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(corpus.DataError, match="line 2.*must be an integer"):
        corpus.load_dataset(path)


@pytest.mark.parametrize(
    "side, key, value",
    [("passage", "surface", None), ("question", "pos", None), ("passage", "ne", ["O"]),
     ("passage", "lemma", 5)],
)
def test_load_non_string_token_field_cites_line(tmp_path, side, key, value):
    good = example_dict(make_example("q0", ["a", "b"], ["q"], [(1, 1)]))
    bad = example_dict(make_example("q1", ["a", "b"], ["q"], [(1, 1)]))
    bad[side][0][key] = value
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(corpus.DataError) as info:
        corpus.load_dataset(path)
    assert str(info.value) == f"line 2: {side} token {key} must be a string, got {value!r}"


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda rec: rec.update(id=None), "id must be a string, got None"),
        (lambda rec: rec.update(id=7), "id must be a string, got 7"),
        (lambda rec: rec["answers"][0].update(text=None), "answer text must be a string, got None"),
        (lambda rec: rec.update(id="q0"), "id 'q0' repeats line 1"),
    ],
    ids=["null-id", "int-id", "null-answer-text", "repeated-id"],
)
def test_load_non_string_or_repeated_id_cites_line(tmp_path, edit, reason):
    # each used to load: a null id or text as the string "None", and a
    # repeated id as a second example scored against the same prediction
    good = example_dict(make_example("q0", ["a", "b"], ["q"], [(1, 1)]))
    bad = example_dict(make_example("q1", ["a", "b"], ["q"], [(1, 1)]))
    edit(bad)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(corpus.DataError) as info:
        corpus.load_dataset(path)
    assert str(info.value) == f"line 2: {reason}"


def test_load_rejects_id_of_a_dropped_record(tmp_path):
    dropped = example_dict(make_example("q0", ["a", "b"], ["q"], []))
    dropped["passage"] = []
    again = example_dict(make_example("q0", ["a", "b"], ["q"], [(1, 1)]))
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(dropped) + "\n" + json.dumps(again) + "\n")
    with pytest.raises(corpus.DataError, match="^line 2: id 'q0' repeats line 1$"):
        corpus.load_dataset(path)


@pytest.mark.parametrize("side", ["passage", "question"])
def test_load_drops_empty_passage_or_question(tmp_path, side):
    rec = example_dict(make_example("q1", ["a", "b"], ["q"], []))
    rec[side] = []
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    got = corpus.load_dataset(path)
    assert got.examples == []
    assert got.dropped == [(1, f"empty {side}")]


def test_load_skips_blank_lines(tmp_path):
    ex = make_example("q1", ["a"], ["q"], [(1, 1)])
    path = tmp_path / "data.jsonl"
    path.write_text("\n" + json.dumps(example_dict(ex)) + "\n\n")
    assert len(corpus.load_dataset(path).examples) == 1


def test_answer_span_invariant():
    with pytest.raises(corpus.DataError):
        corpus.AnswerSpan(3, 2, "x")
    with pytest.raises(corpus.DataError):
        corpus.AnswerSpan(0, 1, "x")
    assert corpus.AnswerSpan(2, 4, "x").length == 3


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_roundtrip(tmp_path):
    entries = {"cat": [0.1, 0.2, 0.3], "dog": [-1.0, 0.0, 1.0]}
    path = write_embeddings(tmp_path / "emb.txt", entries, dim=3)
    table = corpus.load_embeddings(path, dim=3)
    assert sorted(table.entries) == ["cat", "dog"]
    assert np.allclose(table.lookup("cat"), [0.1, 0.2, 0.3])


def test_load_embeddings_duplicate_keeps_first(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0\ncat 9.0 9.0\n")
    table = corpus.load_embeddings(path, dim=2)
    assert np.allclose(table.lookup("cat"), [1.0, 2.0])


def test_load_embeddings_field_count_error(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0\ndog 1.0\n")
    with pytest.raises(corpus.DataError, match="line 2"):
        corpus.load_embeddings(path, dim=2)


def test_load_embeddings_reads_its_width_off_the_first_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n")
    table = corpus.load_embeddings(path)
    assert table.dim == 3 and sorted(table.entries) == ["cat", "dog"]
    assert np.array_equal(table.lookup("dog"), corpus.load_embeddings(path, 3).lookup("dog"))
    path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0\n")
    with pytest.raises(corpus.DataError, match=r"^line 2: expected word \+ 3 values, got 3 fields$"):
        corpus.load_embeddings(path)


@pytest.mark.parametrize("text", ["cat\ndog 1.0\n", "\ndog 1.0\n", "cat"])
def test_load_embeddings_first_line_without_values_cites_line_one(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(corpus.DataError, match=r"^line 1: expected word \+ some values, got 1 fields$"):
        corpus.load_embeddings(path)


def test_load_embeddings_of_an_empty_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("")
    assert corpus.load_embeddings(path, dim=2).dim == 2
    with pytest.raises(corpus.DataError, match=r"^embedding file is empty: "):
        corpus.load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_embeddings_non_finite_value_cites_line(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"cat 1.0 2.0\na {value} 1.0\n")
    with pytest.raises(corpus.DataError, match="line 2.*non-finite"):
        corpus.load_embeddings(path, dim=2)


def test_load_non_utf8_dataset_cites_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(corpus.DataError, match="line 1: not valid UTF-8"):
        corpus.load_dataset(path)


def test_load_non_utf8_embedding_word_cites_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"cat 1.0 2.0\nd\xffg 3.0 4.0\n")
    with pytest.raises(corpus.DataError, match="line 2: not valid UTF-8"):
        corpus.load_embeddings(path, dim=2)


def test_text_lines_keep_utf8_and_universal_newlines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("caf\u00e9 1\r\nna\u00efve 2\rx 3\n".encode("utf-8"))
    assert list(corpus.text_lines(path)) == [
        (1, "caf\u00e9 1\n"), (2, "na\u00efve 2\n"), (3, "x 3\n"),
    ]


def test_lookup_falls_back_to_lowercase_then_zero():
    table = corpus.EmbeddingTable(2, {"cat": np.array([1.0, 2.0])})
    assert np.allclose(table.lookup("Cat"), [1.0, 2.0])
    assert np.allclose(table.lookup("unseen"), [0.0, 0.0])
    assert "cat" in table.entries and "unseen" not in table.entries


# ---------------------------------------------------------------------------
# inventories and featurization


def test_build_tag_inventories_sorted_unique():
    ex = make_example(
        "q1",
        ["a", "b", "c"],
        ["q"],
        [(1, 1)],
        pos=["NNP", "CD", "NN"],
        ne=["PERSON", "O", "O"],
    )
    pos_tags, ne_tags = corpus.build_tag_inventories([ex])
    assert pos_tags == ("CD", "NN", "NNP")
    assert ne_tags == ("O", "PERSON")


def test_inventories_include_question_tags():
    p = make_tokens(["a"], pos=["NN"], ne=["O"])
    q = make_tokens(["when"], pos=["WRB"], ne=["O"])
    ex = corpus.Example("q1", p, q, (corpus.AnswerSpan(1, 1, "a"),))
    pos_tags, _ = corpus.build_tag_inventories([ex])
    assert "WRB" in pos_tags


def test_featurize_layout_and_width():
    table = toy_embedding_table(["brexit"], dim=4)
    pos_tags, ne_tags = ("NN", "NNP"), ("LOC", "O")
    question = make_tokens(["Brexit", "when"])
    tok = make_token("Brexit", pos="NNP", ne="O")
    vec = passage_row(tok, question, table, pos_tags, ne_tags)
    assert vec.shape == (4 + 2 + 2 + 3,)
    assert np.allclose(vec[:4], table.lookup("Brexit"))  # lowercase fallback hit
    assert list(vec[4:6]) == [0.0, 1.0]  # POS one-hot at NNP
    assert list(vec[6:8]) == [0.0, 1.0]  # NE one-hot at O
    assert list(vec[8:]) == [1.0, 1.0, 1.0]  # surface match, lemma match, capitalized


def test_featurize_no_match_oov_all_zero_bits():
    table = corpus.EmbeddingTable(4, {})
    vec = passage_row(
        make_token("unknownword", pos="NN", ne="O"),
        make_tokens(["what", "else"]),
        table,
        ("NN",),
        ("O",),
    )
    assert np.allclose(vec[:4], 0.0)
    assert list(vec[-3:]) == [0.0, 0.0, 0.0]


def test_featurize_unseen_tag_zero_block():
    table = corpus.EmbeddingTable(2, {})
    vec = passage_row(
        make_token("x", pos="UNSEEN", ne="ALSO-UNSEEN"),
        make_tokens(["q"]),
        table,
        ("NN", "VB"),
        ("O",),
    )
    assert np.allclose(vec[2:4], 0.0)
    assert np.allclose(vec[4:5], 0.0)


def test_featurize_surface_match_case_sensitive_lemma_not():
    table = corpus.EmbeddingTable(2, {})
    question = make_tokens(["CAT"])  # lemma "cat"
    vec = passage_row(make_token("cat"), question, table, ("NN",), ("O",))
    surface_bit, lemma_bit = vec[-3], vec[-2]
    assert surface_bit == 0.0  # "cat" != "CAT"
    assert lemma_bit == 1.0


def test_question_matrix_match_bits_fixed():
    table = toy_embedding_table(["what"], dim=4)
    ex = make_example("q1", ["a", "b"], ["what", "happened"], [(1, 1)])
    fz = corpus.Featurizer(table, ("NN",), ("O",))
    qm = fz.question_matrix(ex)
    assert qm.shape == (2, fz.width)
    assert np.all(qm[:, -3] == 1.0) and np.all(qm[:, -2] == 1.0)


def test_passage_matrix_agrees_with_featurize():
    # each row depends only on its own word and the question, so it equals
    # the row that word gets as a one-word passage
    table = toy_embedding_table(["cat", "sat"], dim=4)
    ex = make_example("q1", ["The", "cat", "sat"], ["cat"], [(2, 2)])
    fz = corpus.Featurizer(table, ("NN",), ("O",))
    pm = fz.passage_matrix(ex)
    for i, tok in enumerate(ex.passage):
        vec = passage_row(tok, ex.question, table, ("NN",), ("O",))
        assert np.array_equal(pm[i], vec)


# ---------------------------------------------------------------------------
# properties

_words = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(passage=st.lists(_words, min_size=1, max_size=6), question=st.lists(_words, min_size=1, max_size=4))
def test_property_feature_width_constant(passage, question):
    table = corpus.EmbeddingTable(4, {})
    fz = corpus.Featurizer(table, ("NN", "VB"), ("O",))
    ex = corpus.Example("q", make_tokens(passage), make_tokens(question), ())
    assert fz.passage_matrix(ex).shape == (len(passage), fz.width)


@settings(max_examples=100, deadline=None)
@given(
    question=st.lists(_words, min_size=2, max_size=5),
    word=_words,
    seed=st.integers(0, 10_000),
)
def test_property_surface_match_order_invariant(question, word, seed):
    table = corpus.EmbeddingTable(2, {})
    tok = make_token(word)
    rng = np.random.default_rng(seed)
    shuffled = [question[i] for i in rng.permutation(len(question))]
    v1 = passage_row(tok, make_tokens(question), table, ("NN",), ("O",))
    v2 = passage_row(tok, make_tokens(shuffled), table, ("NN",), ("O",))
    assert v1[-3] == v2[-3] and v1[-2] == v2[-2]


@settings(max_examples=100, deadline=None)
@given(
    words=st.lists(_words, min_size=1, max_size=8),
    start=st.integers(1, 8),
    length=st.integers(1, 8),
)
def test_property_loaded_span_text_roundtrips(tmp_path_factory, words, start, length):
    end = start + length - 1
    if end > len(words):
        start, end = 1, len(words)
    ex = make_example("q1", words, ["q"], [(start, end)])
    path = write_jsonl(tmp_path_factory.mktemp("ds") / "d.jsonl", [ex])
    got = corpus.load_dataset(path)
    assert len(got.examples) == 1
    span = got.examples[0].answers[0]
    joined = corpus.detokenize(got.examples[0].passage[span.start - 1 : span.end])
    assert "".join(joined.split()) == "".join(span.text.split())
