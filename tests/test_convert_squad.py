"""tools/convert_squad.py: SQuAD JSON plus token annotations in, a dataset
that the corpus loader accepts out."""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader.corpus import DataError, load_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "convert_squad.py"


def load_script():
    spec = importlib.util.spec_from_file_location("convert_squad", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


convert_squad = load_script()

CONTEXT = "Alice met Bob in Paris."
QUESTION = "Who met Bob?"


def tokens(text, tag="NN"):
    """Whitespace tokens with their character offsets; a trailing '.' or
    '?' is split off as its own token."""
    out, pos = [], 0
    for word in text.split():
        start = text.index(word, pos)
        pos = start + len(word)
        pieces = [word[:-1], word[-1]] if word[-1] in ".?" else [word]
        for piece in pieces:
            out.append({"surface": piece, "lemma": piece.lower(), "pos": tag, "ne": "O",
                        "offset": start})
            start += len(piece)
    return out


def qa(qa_id, *answers):
    return {"id": qa_id, "question": QUESTION,
            "answers": [{"text": text, "answer_start": start} for text, start in answers]}


def annotation(qa_id):
    return {"id": qa_id, "passage": tokens(CONTEXT), "question": tokens(QUESTION)}


def run(tmp_path, qas, annotations):
    squad = {"data": [{"title": "t", "paragraphs": [{"context": CONTEXT, "qas": qas}]}]}
    (tmp_path / "squad.json").write_text(json.dumps(squad), encoding="utf-8")
    anno_path = tmp_path / "anno.jsonl"
    lines = (a if isinstance(a, str) else json.dumps(a) for a in annotations)  # a str is a raw line
    anno_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    convert_squad.convert(str(tmp_path / "squad.json"), str(anno_path), str(out))
    return load_dataset(out), anno_path


def test_output_loads_with_expected_spans(tmp_path):
    got, _ = run(
        tmp_path,
        [qa("q1", ("Alice", 0)), qa("q2", ("Bob in Paris", 10), ("Paris", 17))],
        [annotation("q1"), annotation("q2")],
    )
    assert got.dropped == []
    spans = {ex.id: [(a.start, a.end, a.text) for a in ex.answers] for ex in got.examples}
    assert spans == {"q1": [(1, 1, "Alice")], "q2": [(3, 5, "Bob in Paris"), (5, 5, "Paris")]}
    assert [t.surface for t in got.examples[0].passage] == ["Alice", "met", "Bob", "in", "Paris", "."]


def test_duplicate_answer_written_once(tmp_path):
    got, _ = run(tmp_path, [qa("q1", ("Bob", 10), ("Bob", 10))], [annotation("q1")])
    assert [(a.start, a.end) for a in got.examples[0].answers] == [(3, 3)]


def test_answer_off_token_boundaries_is_skipped(tmp_path, capsys):
    got, _ = run(tmp_path, [qa("q1", ("lice", 1), ("Alice", 0))], [annotation("q1")])
    assert [(a.start, a.end) for a in got.examples[0].answers] == [(1, 1)]
    assert "skipped 1 individual unmappable answers" in capsys.readouterr().err


def test_question_without_annotation_is_dropped(tmp_path, capsys):
    got, _ = run(tmp_path, [qa("q1", ("Alice", 0)), qa("q2", ("Bob", 10))], [annotation("q1")])
    assert [ex.id for ex in got.examples] == ["q1"]
    assert "dropped 1 questions with no annotation entry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda tok: tok.update(offset="0"), "passage token offset must be an integer, got '0'"),
        (lambda tok: tok.pop("lemma"), "passage token missing keys ['lemma']"),
        (lambda tok: tok.update(surface=5), "passage token surface must be a string, got 5"),
        (lambda tok: tok.update(pos=None), "passage token pos must be a string, got None"),
        (lambda tok: tok.update(ne=["O"]), "passage token ne must be a string, got ['O']"),
    ],
)
def test_malformed_annotation_token_is_rejected_with_its_line(tmp_path, edit, reason):
    # the loader rejects the whole output for such a token, so the
    # converter must not write it
    bad = annotation("q2")
    edit(bad["passage"][0])
    with pytest.raises(SystemExit) as info:
        run(tmp_path, [qa("q1", ("Alice", 0)), qa("q2", ("Alice", 0))], [annotation("q1"), bad])
    assert str(info.value) == f"{tmp_path / 'anno.jsonl'}: line 2: {reason}"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"id": "q2", "passage": [', "invalid JSON: Expecting value"),
        ('["q2"]', "record is not an object"),
    ],
)
def test_annotation_line_that_is_not_a_json_object_is_rejected_with_its_line(tmp_path, line, reason):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), line])
    assert str(info.value) == f"{tmp_path / 'anno.jsonl'}: line 2: {reason}"


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: ["q2"],
        lambda rec: rec.pop("id") and rec,
        lambda rec: rec.pop("passage") and rec,
        lambda rec: rec.pop("question") and rec,
        lambda rec: dict(rec, passage="Alice"),
        lambda rec: dict(rec, question={"surface": "Who"}),
        lambda rec: dict(rec, id=7),
    ],
    ids=["array", "no-id", "no-passage", "no-question", "string-passage", "object-question",
         "int-id"],
)
def test_converter_and_loader_reject_a_record_with_one_message(tmp_path, edit):
    # both read the id, passage and question through corpus.parse_record
    record = edit(annotation("q2"))
    with_answers = [dict(annotation("q1"), answers=[]),
                    dict(record, answers=[]) if isinstance(record, dict) else record]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in with_answers), encoding="utf-8")
    with pytest.raises(DataError) as loader:
        load_dataset(data)
    with pytest.raises(SystemExit) as converter:
        run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), record])
    assert str(converter.value) == f"{tmp_path / 'anno.jsonl'}: {loader.value}"
    assert str(loader.value).startswith("line 2: ")


@pytest.mark.parametrize(
    "anno_id, reason",
    [(None, "id must be a string, got None"), (2, "id must be a string, got 2"),
     ("q1", "id 'q1' repeats line 1")],
    ids=["null-id", "int-id", "repeated-id"],
)
def test_annotation_id_that_is_not_a_new_string_is_rejected_with_its_line(tmp_path, anno_id, reason):
    # a null id used to be stored as "None", and a repeated one to replace
    # the first line's tokens
    bad = dict(annotation("q2"), id=anno_id)
    with pytest.raises(SystemExit) as info:
        run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), bad])
    assert str(info.value) == f"{tmp_path / 'anno.jsonl'}: line 2: {reason}"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("key", ["answer_start", "text"])
def test_squad_answer_without_a_field_is_rejected_with_its_question(tmp_path, key):
    broken = qa("q2", ("Bob", 10))
    del broken["answers"][0][key]
    with pytest.raises(SystemExit) as info:
        run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1"), annotation("q2")])
    assert str(info.value) == f"{tmp_path / 'squad.json'}: question q2: answer missing {key!r}"


def convert_raw_squad(tmp_path, squad):
    """Convert a SQuAD file holding `squad` (a str is written as is) with
    one well-formed annotation line."""
    text = squad if isinstance(squad, str) else json.dumps(squad)
    (tmp_path / "squad.json").write_text(text, encoding="utf-8")
    (tmp_path / "anno.jsonl").write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    convert_squad.convert(
        str(tmp_path / "squad.json"), str(tmp_path / "anno.jsonl"), str(tmp_path / "out.jsonl")
    )


def paragraph(qas):
    return {"context": CONTEXT, "qas": qas}


@pytest.mark.parametrize(
    "squad, reason",
    [
        ('{"data": [', "line 1: invalid JSON: Expecting value"),
        ('{\n  "data": [\n', "line 3: invalid JSON: Expecting value"),
        ({"version": "1.1"}, "missing 'data' list"),
        ([], "missing 'data' list"),
        ({"data": [{"title": "t"}]}, "article missing 'paragraphs' list"),
        ({"data": [{"paragraphs": [{"context": CONTEXT}]}]}, "paragraph missing 'qas' list"),
        ({"data": [{"paragraphs": [paragraph([{"answers": []}])]}]}, "question missing 'id'"),
        ({"data": [{"paragraphs": [paragraph([{"id": "q1"}])]}]}, "question q1: missing 'answers' list"),
        # a null id used to become "None"; a repeated one gave output the loader rejects
        ({"data": [{"paragraphs": [paragraph([qa(None, ("Alice", 0))])]}]},
         "question id must be a string, got None"),
        ({"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0)), qa("q1", ("Bob", 10))])]}]},
         "question q1: id repeats an earlier question"),
    ],
    ids=["not-json", "not-json-on-line-3", "no-data", "not-an-object", "no-paragraphs", "no-qas", "no-id", "no-answers",
         "null-id", "repeated-id"],
)
def test_malformed_squad_file_is_rejected_with_its_path(tmp_path, squad, reason):
    with pytest.raises(SystemExit) as info:
        convert_raw_squad(tmp_path, squad)
    assert str(info.value) == f"{tmp_path / 'squad.json'}: {reason}"


@pytest.mark.parametrize(
    "answer, reason",
    [
        ({"text": "Bob", "answer_start": "ten"}, "answer_start must be an integer, got 'ten'"),
        ({"text": "Bob", "answer_start": 10.0}, "answer_start must be an integer, got 10.0"),
        ({"text": 5, "answer_start": 10}, "answer text must be a string, got 5"),
        ("Bob", "answer is not an object"),
    ],
    ids=["string-start", "float-start", "number-text", "string-answer"],
)
def test_malformed_squad_answer_is_rejected_with_its_question(tmp_path, answer, reason):
    squad = {"data": [{"paragraphs": [paragraph([{"id": "q1", "answers": [answer]}])]}]}
    with pytest.raises(SystemExit) as info:
        convert_raw_squad(tmp_path, squad)
    assert str(info.value) == f"{tmp_path / 'squad.json'}: question q1: {reason}"


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["no-file", "existing-file"])
def test_rejected_input_leaves_out_path_as_it_was(tmp_path, existing):
    out = tmp_path / "out.jsonl"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    broken = qa("q2", ("Bob", 10))
    broken["answers"][0]["answer_start"] = "x"
    with pytest.raises(SystemExit) as info:
        run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1"), annotation("q2")])
    assert str(info.value) == (
        f"{tmp_path / 'squad.json'}: question q2: answer_start must be an integer, got 'x'"
    )
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing


def run_script(squad, annotations, out):
    env = dict(os.environ, PYTHONPATH=str(SCRIPT.parents[1] / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--squad", str(squad), "--annotations", str(annotations),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )


BAD_BYTES = {
    "not-utf8": (b"\xff\xfe\n", "line 1: not valid UTF-8"),
    "deep-nesting": (b"[" * 100_000 + b"\n", "line 1: invalid JSON: beyond the parser's limits"),
    "long-integer": (b"1" * 5000 + b"\n", "line 1: invalid JSON: beyond the parser's limits"),
}


@pytest.mark.parametrize(
    "case",
    ["missing-squad", "missing-annotations", "out-is-directory", "out-in-missing-directory"]
    + [f"{which}-{bad}" for which in ("squad", "annotations") for bad in BAD_BYTES],
)
def test_script_stops_with_one_line_and_no_traceback(tmp_path, case):
    squad = {"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]}]}
    paths = {"squad": tmp_path / "squad.json", "annotations": tmp_path / "anno.jsonl",
             "out": tmp_path / "out.jsonl"}
    paths["squad"].write_text(json.dumps(squad), encoding="utf-8")
    paths["annotations"].write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    if case.startswith("missing-"):
        which = case.removeprefix("missing-")
        paths[which] = tmp_path / "absent"
        culprit, reason = paths[which], "No such file or directory"
    elif case == "out-is-directory":
        culprit, reason = tmp_path, "Is a directory"
        paths["out"] = tmp_path
    elif case == "out-in-missing-directory":
        paths["out"] = culprit = tmp_path / "absent" / "out.jsonl"
        reason = "No such file or directory"
    else:
        which, bad = case.split("-", 1)
        raw, reason = BAD_BYTES[bad]
        culprit = paths[which]
        culprit.write_bytes(raw)
    done = run_script(paths["squad"], paths["annotations"], paths["out"])
    assert done.returncode != 0
    assert done.stderr == f"{culprit}: {reason}\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_script_converts_well_formed_input(tmp_path):
    squad = {"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]}]}
    (tmp_path / "squad.json").write_text(json.dumps(squad), encoding="utf-8")
    (tmp_path / "anno.jsonl").write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    done = run_script(tmp_path / "squad.json", tmp_path / "anno.jsonl", tmp_path / "out.jsonl")
    assert (done.returncode, done.stderr) == (0, f"wrote 1 examples to {tmp_path / 'out.jsonl'}\n")
    assert [ex.id for ex in load_dataset(tmp_path / "out.jsonl").examples] == ["q1"]


_field_values = st.one_of(
    st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
_MISSING = object()
_tokens = st.fixed_dictionaries(
    {key: st.one_of(st.just(_MISSING), _field_values)
     for key in ("surface", "lemma", "pos", "ne", "offset")}
).map(lambda tok: {k: v for k, v in tok.items() if v is not _MISSING})


@settings(max_examples=200, deadline=None)
@given(token=_tokens)
def test_converter_accepts_a_token_exactly_when_the_loader_does(token):
    good = tokens(QUESTION)[0]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        data = root / "data.jsonl"
        data.write_text(json.dumps(
            {"id": "q1", "passage": [token], "question": [good], "answers": []}
        ) + "\n", encoding="utf-8")
        try:
            load_dataset(data)
            loader_accepts = True
        except DataError:
            loader_accepts = False
        anno = {"id": "q1", "passage": [token], "question": [good]}
        try:
            run(root, [qa("q1", ("Alice", 0))], [anno])
            converter_accepts = True
        except SystemExit:
            converter_accepts = False
    assert converter_accepts == loader_accepts
