"""`chunkreader convert-squad` and `chunkreader.squad`: SQuAD JSON plus
token annotations in, a dataset that the corpus loader accepts out."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkreader import cli, squad
from chunkreader.corpus import DataError, load_dataset

SRC = Path(cli.__file__).resolve().parents[1]

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


def convert(squad_path, annotations_path, out):
    """The exit code of `chunkreader convert-squad` over the three paths."""
    return cli.main(["convert-squad", "--squad", str(squad_path),
                     "--annotations", str(annotations_path), "--out", str(out)])


def run(tmp_path, qas, annotations):
    """The exit code of a conversion of a one-paragraph SQuAD file holding
    qas and an annotation file of these records (a str is a raw line) into
    out.jsonl, all under tmp_path."""
    squad = {"data": [{"title": "t", "paragraphs": [{"context": CONTEXT, "qas": qas}]}]}
    (tmp_path / "squad.json").write_text(json.dumps(squad), encoding="utf-8")
    anno_path = tmp_path / "anno.jsonl"
    lines = (a if isinstance(a, str) else json.dumps(a) for a in annotations)  # a str is a raw line
    anno_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return convert(tmp_path / "squad.json", anno_path, tmp_path / "out.jsonl")


def converted(tmp_path, qas, annotations):
    """The loaded output of a conversion that must succeed."""
    assert run(tmp_path, qas, annotations) == 0
    return load_dataset(tmp_path / "out.jsonl")


def test_output_loads_with_expected_spans(tmp_path):
    got = converted(
        tmp_path,
        [qa("q1", ("Alice", 0)), qa("q2", ("Bob in Paris", 10), ("Paris", 17))],
        [annotation("q1"), annotation("q2")],
    )
    assert got.dropped == []
    spans = {ex.id: [(a.start, a.end, a.text) for a in ex.answers] for ex in got.examples}
    assert spans == {"q1": [(1, 1, "Alice")], "q2": [(3, 5, "Bob in Paris"), (5, 5, "Paris")]}
    assert [t.surface for t in got.examples[0].passage] == ["Alice", "met", "Bob", "in", "Paris", "."]


def test_duplicate_answer_written_once(tmp_path):
    got = converted(tmp_path, [qa("q1", ("Bob", 10), ("Bob", 10))], [annotation("q1")])
    assert [(a.start, a.end) for a in got.examples[0].answers] == [(3, 3)]


def test_answer_off_token_boundaries_is_skipped(tmp_path, capsys):
    got = converted(tmp_path, [qa("q1", ("lice", 1), ("Alice", 0))], [annotation("q1")])
    assert [(a.start, a.end) for a in got.examples[0].answers] == [(1, 1)]
    assert "skipped 1 individual unmappable answers" in capsys.readouterr().err


def test_question_without_annotation_is_dropped(tmp_path, capsys):
    got = converted(tmp_path, [qa("q1", ("Alice", 0)), qa("q2", ("Bob", 10))], [annotation("q1")])
    assert [ex.id for ex in got.examples] == ["q1"]
    assert "dropped 1 questions with no annotation entry" in capsys.readouterr().err


def test_question_without_a_mappable_answer_is_dropped(tmp_path, capsys):
    got = converted(tmp_path, [qa("q1", ("Alice", 0)), qa("q2", ("ice", 2))],
                    [annotation("q1"), annotation("q2")])
    assert [ex.id for ex in got.examples] == ["q1"]
    assert capsys.readouterr().err.splitlines() == [
        f"wrote 1 examples to {tmp_path / 'out.jsonl'}",
        "dropped 1 questions with no mappable answer",
        "skipped 1 individual unmappable answers",
    ]


def test_malformed_answer_of_a_question_without_annotation_is_rejected(tmp_path, capsys):
    # the question was counted as `no annotation entry` before its answers were read
    got = {"data": [{"paragraphs": [{"context": "A b", "qas": [
        {"id": "q1", "answers": [{"text": 5, "answer_start": "ten"}, "junk"]}]}]}]}
    with pytest.raises(DataError, match=r"^question q1: answer text must be a string, got 5$"):
        squad.convert_squad(got, {})
    broken = qa("q2", ("Bob", 10))
    broken["answers"].append("junk")
    assert run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1")]) == 2
    reason = "question q2: answer is not an object"
    assert capsys.readouterr().err == f"data error: {tmp_path / 'squad.json'}: {reason}\n"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["no-file", "existing-file"])
def test_converting_no_question_exits_two_and_leaves_out_as_it_was(tmp_path, capsys, existing):
    # an empty --out was written with exit 0, and every other command then
    # rejected it
    out = tmp_path / "out.jsonl"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    qas = [qa("q1", ("Alice", 0)), qa("q2", ("ice", 2))]
    assert run(tmp_path, qas, [annotation("q2"), annotation("q9")]) == 2
    reason = "no question converted: 1 with no annotation entry, 1 with no mappable answer"
    assert capsys.readouterr().err == f"data error: {tmp_path / 'squad.json'}: {reason}\n"
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing


def test_convert_squad_returns_examples_and_drop_counts_and_prints_nothing(tmp_path, capsys):
    # q1 keeps one answer and skips one, q2 has no annotation entry, and
    # q3's only answer does not line up with the tokens
    (tmp_path / "anno.jsonl").write_text(
        "".join(json.dumps(annotation(i)) + "\n" for i in ("q1", "q3")), encoding="utf-8"
    )
    questions = [qa("q1", ("Alice", 0), ("lice", 1)), qa("q2", ("Bob", 10)), qa("q3", ("ice", 2))]
    got = squad.convert_squad({"data": [{"paragraphs": [paragraph(questions)]}]},
                              squad.load_annotations(tmp_path / "anno.jsonl"))
    examples, no_annotation, no_answers, skipped_answers = got
    assert [(ex.id, [(a.start, a.end) for a in ex.answers]) for ex in examples] == [
        ("q1", [(1, 1)])
    ]
    assert (no_annotation, no_answers, skipped_answers) == (1, 1, 2)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda tok: tok.update(offset="0"), "passage token offset must be an integer, got '0'"),
        (lambda tok: tok.pop("lemma"), "passage token missing 'lemma'"),
        (lambda tok: tok.update(surface=5), "passage token surface must be a string, got 5"),
        (lambda tok: tok.update(pos=None), "passage token pos must be a string, got None"),
        (lambda tok: tok.update(ne=["O"]), "passage token ne must be a string, got ['O']"),
    ],
)
def test_malformed_annotation_token_is_rejected_with_its_line(tmp_path, capsys, edit, reason):
    # the loader rejects the whole output for such a token, so the
    # converter must not write it
    bad = annotation("q2")
    edit(bad["passage"][0])
    assert run(tmp_path, [qa("q1", ("Alice", 0)), qa("q2", ("Alice", 0))],
               [annotation("q1"), bad]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'anno.jsonl'}: line 2: {reason}\n"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"id": "q2", "passage": [', "invalid JSON: Expecting value"),
        ('["q2"]', "record is not an object"),
    ],
)
def test_annotation_line_that_is_not_a_json_object_is_rejected_with_its_line(
    tmp_path, capsys, line, reason
):
    assert run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), line]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'anno.jsonl'}: line 2: {reason}\n"


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
def test_converter_and_loader_reject_a_record_with_one_message(tmp_path, capsys, edit):
    # both read the id, passage and question through corpus.parse_record
    record = edit(annotation("q2"))
    with_answers = [dict(annotation("q1"), answers=[]),
                    dict(record, answers=[]) if isinstance(record, dict) else record]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in with_answers), encoding="utf-8")
    with pytest.raises(DataError) as loader:
        load_dataset(data)
    assert run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), record]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'anno.jsonl'}: {loader.value}\n"
    assert str(loader.value).startswith("line 2: ")


@pytest.mark.parametrize(
    "anno_id, reason",
    [(None, "record id must be a string, got None"), (2, "record id must be a string, got 2"),
     ("q1", "id 'q1' repeats line 1")],
    ids=["null-id", "int-id", "repeated-id"],
)
def test_annotation_id_that_is_not_a_new_string_is_rejected_with_its_line(
    tmp_path, capsys, anno_id, reason
):
    # a null id used to be stored as "None", and a repeated one to replace
    # the first line's tokens
    bad = dict(annotation("q2"), id=anno_id)
    assert run(tmp_path, [qa("q1", ("Alice", 0))], [annotation("q1"), bad]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'anno.jsonl'}: line 2: {reason}\n"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("key", ["answer_start", "text"])
def test_squad_answer_without_a_field_is_rejected_with_its_question(tmp_path, capsys, key):
    broken = qa("q2", ("Bob", 10))
    del broken["answers"][0][key]
    assert run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1"), annotation("q2")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'squad.json'}: question q2: answer missing {key!r}\n"
    )


def convert_raw_squad(tmp_path, squad):
    """The exit code of a conversion of a SQuAD file holding `squad` (a
    str is written as is) with one well-formed annotation line."""
    text = squad if isinstance(squad, str) else json.dumps(squad)
    (tmp_path / "squad.json").write_text(text, encoding="utf-8")
    (tmp_path / "anno.jsonl").write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    return convert(tmp_path / "squad.json", tmp_path / "anno.jsonl", tmp_path / "out.jsonl")


def paragraph(qas):
    return {"context": CONTEXT, "qas": qas}


@pytest.mark.parametrize(
    "squad, reason",
    [
        ('{"data": [', "line 1: invalid JSON: Expecting value"),
        ('{\n  "data": [\n', "line 3: invalid JSON: Expecting value"),
        ({"version": "1.1"}, "file missing 'data'"),
        ([], "file is not an object"),
        ({"data": [{"title": "t"}]}, "article 1 missing 'paragraphs'"),
        ({"data": {"title": "t"}}, "file data must be an array, got {'title': 't'}"),
        ({"data": ["t"]}, "article 1 is not an object"),
        ({"data": [{"paragraphs": [{"context": CONTEXT}]}]}, "article 1 paragraph 1 missing 'qas'"),
        ({"data": [{"paragraphs": [paragraph(["q1"])]}]}, "article 1 paragraph 1 question 1 is not an object"),
        ({"data": [{"paragraphs": [paragraph([{"answers": []}])]}]},
         "article 1 paragraph 1 question 1 missing 'id'"),
        ({"data": [{"paragraphs": [paragraph([{"id": "q1"}])]}]}, "question q1 missing 'answers'"),
        ({"data": [{"paragraphs": [paragraph([{"id": "q1", "answers": None}])]}]},
         "question q1 answers must be an array, got None"),
        # a null id used to become "None"; a repeated one gave output the loader rejects
        ({"data": [{"paragraphs": [paragraph([qa(None, ("Alice", 0))])]}]},
         "article 1 paragraph 1 question 1 id must be a string, got None"),
        ({"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0)), qa("q1", ("Bob", 10))])]}]},
         "question q1: id repeats an earlier question"),
        # each place counts from 1 in its own list, so the user can find the fault
        ({"data": [{"paragraphs": []}, 5]}, "article 2 is not an object"),
        ({"data": [{"paragraphs": []}, {"paragraphs": [paragraph([]), {}]}]},
         "article 2 paragraph 2 missing 'qas'"),
        ({"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]},
                   {"paragraphs": [paragraph([]), paragraph([qa("q2", ("Bob", 10)), "q3"])]}]},
         "article 2 paragraph 2 question 2 is not an object"),
    ],
    ids=["not-json", "not-json-on-line-3", "no-data", "not-an-object", "no-paragraphs",
         "object-data", "string-article", "no-qas", "string-question", "no-id", "no-answers", "null-answers",
         "null-id", "repeated-id", "second-article", "second-paragraph", "second-question"],
)
def test_malformed_squad_file_is_rejected_with_its_path(tmp_path, capsys, squad, reason):
    assert convert_raw_squad(tmp_path, squad) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'squad.json'}: {reason}\n"


@pytest.mark.parametrize(
    "answer, reason",
    [
        ({"text": "Bob", "answer_start": "ten"}, "answer answer_start must be an integer, got 'ten'"),
        ({"text": "Bob", "answer_start": 10.0}, "answer answer_start must be an integer, got 10.0"),
        ({"text": 5, "answer_start": 10}, "answer text must be a string, got 5"),
        ("Bob", "answer is not an object"),
    ],
    ids=["string-start", "float-start", "number-text", "string-answer"],
)
def test_malformed_squad_answer_is_rejected_with_its_question(tmp_path, capsys, answer, reason):
    squad = {"data": [{"paragraphs": [paragraph([{"id": "q1", "answers": [answer]}])]}]}
    assert convert_raw_squad(tmp_path, squad) == 2
    squad_path = tmp_path / "squad.json"
    assert capsys.readouterr().err == f"data error: {squad_path}: question q1: {reason}\n"


def test_malformed_answer_of_a_question_without_annotation_is_rejected(tmp_path, capsys):
    # the question was counted as `no annotation entry` before its answers were read
    got = {"data": [{"paragraphs": [{"context": "A b", "qas": [
        {"id": "q1", "answers": [{"text": 5, "answer_start": "ten"}, "junk"]}]}]}]}
    with pytest.raises(DataError, match=r"^question q1: answer text must be a string, got 5$"):
        squad.convert_squad(got, {})
    broken = qa("q2", ("Bob", 10))
    broken["answers"].append("junk")
    assert run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1")]) == 2
    reason = "question q2: answer is not an object"
    assert capsys.readouterr().err == f"data error: {tmp_path / 'squad.json'}: {reason}\n"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["no-file", "existing-file"])
def test_rejected_input_leaves_out_path_as_it_was(tmp_path, capsys, existing):
    out = tmp_path / "out.jsonl"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    broken = qa("q2", ("Bob", 10))
    broken["answers"][0]["answer_start"] = "x"
    assert run(tmp_path, [qa("q1", ("Alice", 0)), broken], [annotation("q1"), annotation("q2")]) == 2
    reason = "question q2: answer answer_start must be an integer, got 'x'"
    assert capsys.readouterr().err == f"data error: {tmp_path / 'squad.json'}: {reason}\n"
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing


def no_read(path):
    raise AssertionError("an input was read before --out was checked")


@pytest.mark.parametrize("which", ["squad", "annotations"])
def test_out_naming_an_input_stops_before_any_read(tmp_path, capsys, monkeypatch, which):
    # writing --out used to replace the input it names with the converted JSONL
    monkeypatch.setattr(cli, "load_squad", no_read)
    squad = {"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]}]}
    paths = {"squad": tmp_path / "squad.json", "annotations": tmp_path / "anno.jsonl"}
    paths["squad"].write_text(json.dumps(squad), encoding="utf-8")
    paths["annotations"].write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    kept = {name: path.read_bytes() for name, path in paths.items()}
    (tmp_path / "sub").mkdir()
    out = str(tmp_path / "sub" / ".." / paths[which].name)
    assert convert(paths["squad"], paths["annotations"], out) == 1
    assert capsys.readouterr().err == f"error: --out and --{which} name the same file: {out}\n"
    assert {name: path.read_bytes() for name, path in paths.items()} == kept


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
def test_script_stops_with_one_line_and_no_traceback(tmp_path, capsys, monkeypatch, case):
    squad = {"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]}]}
    paths = {"squad": tmp_path / "squad.json", "annotations": tmp_path / "anno.jsonl",
             "out": tmp_path / "out.jsonl"}
    paths["squad"].write_text(json.dumps(squad), encoding="utf-8")
    paths["annotations"].write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    if case.startswith("missing-"):
        # an OSError names its file itself
        which = case.removeprefix("missing-")
        paths[which] = tmp_path / "absent"
        line = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(paths[which])!r}"
    elif case.startswith("out-"):
        # --out used to be opened only after both inputs were read and converted
        monkeypatch.setattr(cli, "load_squad", no_read)
        paths["out"], code = {
            "out-is-directory": (tmp_path, errno.EISDIR),
            "out-in-missing-directory": (tmp_path / "absent" / "out.jsonl", errno.ENOENT),
        }[case]
        line = f"--out: cannot write {paths['out']}: {os.strerror(code)}"
    else:
        which, bad = case.split("-", 1)
        raw, reason = BAD_BYTES[bad]
        paths[which].write_bytes(raw)
        line = f"{paths[which]}: {reason}"
    assert convert(paths["squad"], paths["annotations"], paths["out"]) == 2
    assert capsys.readouterr().err == f"data error: {line}\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_script_converts_well_formed_input(tmp_path):
    squad = {"data": [{"paragraphs": [paragraph([qa("q1", ("Alice", 0))])]}]}
    (tmp_path / "squad.json").write_text(json.dumps(squad), encoding="utf-8")
    (tmp_path / "anno.jsonl").write_text(json.dumps(annotation("q1")) + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "chunkreader.cli", "convert-squad",
         "--squad", str(tmp_path / "squad.json"), "--annotations", str(tmp_path / "anno.jsonl"),
         "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
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
# schema-valid, so the loader accepts the file (and drops the record for
# its empty surface), but the answer does not map: the converter read the
# record and converted nothing, exit 2
@example(token={"surface": "", "lemma": "", "pos": "", "ne": "", "offset": 0})
def test_converter_accepts_a_token_exactly_when_the_loader_does(token):
    good = tokens(QUESTION)[0]
    err = io.StringIO()
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
        with contextlib.redirect_stderr(err):
            code = run(root, [qa("q1", ("Alice", 0))], [anno])
        # exit 2 with only this line: the converter stopped on no record
        unmapped = "no question converted: 0 with no annotation entry, 1 with no mappable answer"
        converter_accepts = code == 0 or err.getvalue() == f"data error: {root / 'squad.json'}: {unmapped}\n"
    assert code in (0, 2)
    assert converter_accepts == loader_accepts
