"""Answer metrics against hand-computed golden values, plus breakdowns."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import evaluator as ev
from chunkreader.corpus import DataError
from helpers import make_example

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_metrics.json").read_text())


# ---------------------------------------------------------------------------
# normalization


def test_normalize_articles_and_case():
    assert ev.normalize_answer("The United Kingdom") == ["united", "kingdom"]


def test_normalize_empty():
    assert ev.normalize_answer("") == []


def test_normalize_strips_punctuation():
    assert ev.normalize_answer("51.9% voted") == ["519", "voted"]


def test_normalize_article_inside_text():
    assert ev.normalize_answer("result of a June referendum") == [
        "result", "of", "june", "referendum",
    ]


# ---------------------------------------------------------------------------
# golden cases


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
def test_golden_metric_values(case):
    em = ev.exact_match(case["prediction"], case["references"])
    f1 = ev.f1_score(case["prediction"], case["references"])
    assert em == case["em"]
    assert f1 == pytest.approx(case["f1"], abs=1e-9)


def test_f1_of_answers_with_no_tokens_is_zero():
    # the official SQuAD v1.1 script scores no overlap 0 even when both
    # sides normalize to nothing; both used to score F1 1
    assert ev.f1_score("", ["the"]) == 0.0
    assert ev.exact_match("", ["the"]) == 1


def test_empty_reference_list_rejected():
    with pytest.raises(ValueError):
        ev.exact_match("x", [])
    with pytest.raises(ValueError):
        ev.f1_score("x", [])


# ---------------------------------------------------------------------------
# aggregate evaluation


def two_example_dataset():
    ex1 = make_example("a", ["Paris", "is", "big"], ["what", "city"], [(1, 1)])
    ex2 = make_example("b", ["cats", "sat", "down"], ["who", "sat"], [(1, 2)])
    return [ex1, ex2]


def test_evaluate_all_correct():
    exs = two_example_dataset()
    report = ev.evaluate({"a": "Paris", "b": "cats sat"}, exs)
    assert report.em == 1.0 and report.f1 == 1.0
    assert [r.em for r in report.records] == [1, 1]


def test_evaluate_half_correct():
    exs = two_example_dataset()
    report = ev.evaluate({"a": "Paris", "b": "zebra"}, exs)
    assert report.em == 0.5 and report.f1 == 0.5


def test_evaluate_aggregates_are_means():
    exs = two_example_dataset()
    report = ev.evaluate({"a": "Paris", "b": "cats"}, exs)  # partial credit on b
    per_em = [r.em for r in report.records]
    per_f1 = [r.f1 for r in report.records]
    assert report.em == pytest.approx(sum(per_em) / 2)
    assert report.f1 == pytest.approx(sum(per_f1) / 2)
    assert all(r.em <= r.f1 for r in report.records)


def test_evaluate_id_mismatch():
    exs = two_example_dataset()
    with pytest.raises(ValueError, match="missing prediction"):
        ev.evaluate({"a": "Paris"}, exs)
    with pytest.raises(ValueError, match="unknown example"):
        ev.evaluate({"a": "Paris", "b": "x", "zz": "y"}, exs)
    with pytest.raises(ValueError):
        ev.evaluate({}, [])


def test_evaluate_raises_data_errors_with_their_messages():
    # the library types its own failures, so the CLI maps them to exit 2
    # without re-raising them
    exs = two_example_dataset()
    cases = [
        ({}, [], "cannot evaluate an empty dataset"),
        ({"a": "Paris", "b": "x", "zz": "y"}, exs, "prediction for unknown example id 'zz'"),
        ({"a": "Paris"}, exs, "missing prediction for example id 'b'"),
        ({"a": "Paris", "n": "x"}, [exs[0], make_example("n", ["x"], ["q"], [])],
         "example 'n' has no gold answers"),
    ]
    for predictions, examples, message in cases:
        with pytest.raises(DataError) as info:
            ev.evaluate(predictions, examples)
        assert str(info.value) == message


def test_evaluate_picks_best_reference():
    # "cold war" alone scores 0.8; the record keeps the better reference's 1.0
    ex = make_example("a", ["cold", "war", "era"], ["when"], [(1, 2), (1, 3)])
    report = ev.evaluate({"a": "cold war era"}, [ex])
    assert ev.f1_score("cold war era", ["cold war"]) == pytest.approx(0.8)
    assert report.records[0].f1 == 1.0
    assert report.records[0].em == 1


def test_evaluate_scores_each_record_with_the_metric_functions(monkeypatch):
    # a record's EM and F1 are exact_match's and f1_score's, and a record
    # with n references normalizes at most 2 + 2n strings
    ex = make_example("a", ["the", "cold", "war", "era"], ["when"], [(2, 3), (1, 4), (4, 4)])
    refs = [a.text for a in ex.answers]
    calls = []
    normalize = ev.normalize_answer
    monkeypatch.setattr(ev, "normalize_answer", lambda text: calls.append(text) or normalize(text))
    for pred in ("cold war", "war era", "peace"):
        calls.clear()
        (record,) = ev.evaluate({"a": pred}, [ex]).records
        assert len(calls) <= 2 + 2 * len(refs)
        assert (record.em, record.f1) == (ev.exact_match(pred, refs), ev.f1_score(pred, refs))


# ---------------------------------------------------------------------------
# breakdowns


def test_breakdown_by_length_single_row():
    exs = [
        make_example("a", ["x", "y"], ["q"], [(1, 1)]),
        make_example("b", ["u", "v"], ["q"], [(2, 2)]),
    ]
    report = ev.evaluate({"a": "x", "b": "u"}, exs)
    table = ev.breakdown_by_answer_length(report)
    assert set(table) == {1}
    assert table[1].count == 2 and table[1].fraction == 1.0
    assert table[1].em == 0.5  # "u" vs gold "v"


def test_breakdown_by_length_overflow_bucket():
    words = [f"w{i}" for i in range(14)]
    exs = [
        make_example("a", words, ["q"], [(1, 12)]),  # length 12 > 10
        make_example("b", words, ["q"], [(1, 2)]),
    ]
    preds = {"a": " ".join(words[:12]), "b": " ".join(words[:2])}
    report = ev.evaluate(preds, exs)
    table = ev.breakdown_by_answer_length(report)
    assert ev.MAX_BUCKET_LEN == 10
    assert set(table) == {2, ">10"}
    assert table[">10"].count == 1


def test_breakdown_length_uses_shortest_gold():
    ex = make_example("a", ["x", "y", "z"], ["q"], [(1, 3), (2, 2)])
    report = ev.evaluate({"a": "y"}, [ex])
    table = ev.breakdown_by_answer_length(report)
    assert set(table) == {1}


def test_breakdown_fractions_sum_to_one():
    exs = [
        make_example("a", ["x"], ["q"], [(1, 1)]),
        make_example("b", ["x", "y"], ["q"], [(1, 2)]),
        make_example("c", ["x", "y", "z"], ["q"], [(1, 3)]),
    ]
    preds = {e.id: " ".join(t.surface for t in e.passage) for e in exs}
    report = ev.evaluate(preds, exs)
    table = ev.breakdown_by_answer_length(report)
    assert sum(row.fraction for row in table.values()) == pytest.approx(1.0, abs=1e-9)


def test_breakdown_by_head_word_buckets():
    exs = [
        make_example("a", ["x"], ["Which", "country"], [(1, 1)]),
        make_example("b", ["y"], ["How", "did", "it", "end"], [(1, 1)]),
        make_example("c", ["z"], ["which", "year"], [(1, 1)]),
    ]
    preds = {"a": "x", "b": "y", "c": "z"}
    heads, bigrams = ev.breakdown_by_head_word(ev.evaluate(preds, exs))
    assert set(heads) == {"which", "how"}
    assert heads["which"].count == 2
    assert bigrams == {}  # no "what" questions at all


def test_breakdown_by_head_word_leaves_out_an_empty_question():
    # the example still counts toward the fractions' total
    exs = [
        make_example("a", ["x"], [], [(1, 1)]),
        make_example("b", ["y"], ["Who", "won"], [(1, 1)]),
    ]
    heads, bigrams = ev.breakdown_by_head_word(ev.evaluate({"a": "x", "b": "z"}, exs))
    assert heads == {"who": ev.BreakdownRow(count=1, fraction=0.5, em=0.0, f1=0.0)}
    assert bigrams == {}


def test_breakdown_what_bigrams_threshold():
    exs = []
    preds = {}
    for i in range(25):
        ex = make_example(f"w{i}", ["x"], ["What", "year", "was", "it"], [(1, 1)])
        exs.append(ex)
        preds[ex.id] = "x"
    for i in range(5):
        ex = make_example(f"r{i}", ["x"], ["What", "reason", "was", "given"], [(1, 1)])
        exs.append(ex)
        preds[ex.id] = "x"
    heads, bigrams = ev.breakdown_by_head_word(ev.evaluate(preds, exs))
    assert heads["what"].count == 30
    assert ev.MIN_BIGRAM_COUNT == 20
    assert set(bigrams) == {"what year"}  # "what reason" has only 5 examples
    assert bigrams["what year"].count == 25


# ---------------------------------------------------------------------------
# properties

_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" "),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(x=_text)
def test_property_self_match_is_perfect(x):
    # an answer with no tokens after normalizing ("a", " ") overlaps nothing
    assert ev.exact_match(x, [x]) == 1
    assert ev.f1_score(x, [x]) == (1.0 if ev.normalize_answer(x) else 0.0)


@settings(max_examples=100, deadline=None)
@given(pred=_text, refs=st.lists(_text, min_size=2, max_size=4), seed=st.integers(0, 1000))
def test_property_reference_permutation_invariant(pred, refs, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    shuffled = [refs[i] for i in rng.permutation(len(refs))]
    assert ev.f1_score(pred, refs) == ev.f1_score(pred, shuffled)
    assert ev.exact_match(pred, refs) == ev.exact_match(pred, shuffled)


@settings(max_examples=100, deadline=None)
@given(pred=_text, refs=st.lists(_text, min_size=1, max_size=3), extra=_text)
def test_property_adding_reference_is_monotone(pred, refs, extra):
    assert ev.f1_score(pred, refs + [extra]) >= ev.f1_score(pred, refs)
    assert ev.exact_match(pred, refs + [extra]) >= ev.exact_match(pred, refs)


@settings(max_examples=100, deadline=None)
@given(pred=_text, refs=st.lists(_text, min_size=1, max_size=3))
def test_property_em_bounded_by_f1(pred, refs):
    em = ev.exact_match(pred, refs)
    f1 = ev.f1_score(pred, refs)
    assert 0.0 <= f1 <= 1.0
    if ev.normalize_answer(pred):
        assert em <= f1 + 1e-12
    else:  # no tokens overlap nothing, even an exact match
        assert f1 == 0.0
