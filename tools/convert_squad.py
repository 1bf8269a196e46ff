#!/usr/bin/env python3
"""Convert raw SQuAD v1.1 JSON plus external token annotations into the
JSONL schema the chunkreader corpus loader reads.

The library consumes pre-annotated tokens and never runs a tagger, so
this script joins two inputs:

  --squad        the official SQuAD JSON file (data -> paragraphs -> qas)
  --annotations  JSONL, one object per question id:
                   {"id": "<qa id>",
                    "passage":  [token, ...],   # tokenized paragraph context
                    "question": [token, ...]}
                 token = {"surface": str, "lemma": str, "pos": str,
                          "ne": str, "offset": int}
                 `offset` is the character offset of the token into the
                 raw context (passage) or question string, which is how
                 gold character spans are aligned to token spans.

Output records look like:

  {"id": ..., "passage": [token, ...], "question": [token, ...],
   "answers": [{"start": m, "end": n, "text": ...}, ...]}

with 1-based inclusive token spans. Answers whose character span does
not line up with token boundaries (after whitespace is ignored) are
skipped; questions with no mappable answer or no annotation entry are
dropped. Counts for both go to stderr.

Both inputs are read, and every annotation record checked, by the
dataset loader's own `chunkreader.corpus` readers (`json_lines` and
`parse_record`, the loader's check of a record's id, passage and
question); a token is written with its five schema keys only. Any
malformed input (a missing or non-UTF-8 file, bad JSON, an annotation
record the loader would reject, a SQuAD file missing
`data`, `paragraphs`, `qas`, a question `id` or `answers`, a question
`id` that is not a string or repeats an earlier one, an answer without
a string `text` or an integer `answer_start`), or an `--out` that
cannot be written, stops it with one `path: reason` line. `--out` is
opened only once all else succeeded. An `--out` that names the file of
`--squad` or `--annotations` (compared by `os.path.realpath`) would
destroy that input, so it stops the conversion before any read with
`--out and --squad name the same file: <path>`.

Needs `chunkreader` importable: `pip install -e .`, or `PYTHONPATH=src`.
"""

import argparse
import os
import sys
from contextlib import contextmanager

from chunkreader.corpus import (
    AnswerSpan, DataError, Example, json_lines, parse_json, parse_record, squeeze, text_lines,
)
from chunkreader.synthetic import write_dataset_jsonl


@contextmanager
def stop_on_error(path):
    """Stop the conversion with one `path: reason` line when the file at
    path cannot be opened, read, parsed or written."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"{path}: {exc.strerror}") from None
    except DataError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def load_squad(path):
    """The parsed SQuAD file."""
    return parse_json("".join(line for _, line in text_lines(path)), 1)


def _list_under(obj, key):
    """obj[key] when obj is an object holding a list there, else None."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return value if isinstance(value, list) else None


def iter_squad_questions(squad):
    """Every question of the file, each an object with a string `id` that
    no earlier question used and an `answers` list; anything else on the
    way raises DataError."""
    seen = set()
    articles = _list_under(squad, "data")
    if articles is None:
        raise DataError("missing 'data' list")
    for article in articles:
        paragraphs = _list_under(article, "paragraphs")
        if paragraphs is None:
            raise DataError("article missing 'paragraphs' list")
        for paragraph in paragraphs:
            qas = _list_under(paragraph, "qas")
            if qas is None:
                raise DataError("paragraph missing 'qas' list")
            for qa in qas:
                if not isinstance(qa, dict) or "id" not in qa:
                    raise DataError("question missing 'id'")
                if not isinstance(qa["id"], str):
                    raise DataError(f"question id must be a string, got {qa['id']!r}")
                if qa["id"] in seen:
                    raise DataError(f"question {qa['id']}: id repeats an earlier question")
                seen.add(qa["id"])
                if _list_under(qa, "answers") is None:
                    raise DataError(f"question {qa['id']}: missing 'answers' list")
                yield qa


def load_annotations(path):
    """Question id -> (passage tokens, question tokens); a line that
    `parse_record` rejects raises DataError citing it."""
    table = {}
    ids = {}
    for line_no, obj in json_lines(path):
        qa_id, passage, question = parse_record(obj, line_no, ids)
        table[qa_id] = (passage, question)
    return table


def answer_problem(gold):
    """Why a SQuAD answer cannot be aligned, or None when it is well formed."""
    if not isinstance(gold, dict):
        return "answer is not an object"
    for key in ("text", "answer_start"):
        if key not in gold:
            return f"answer missing {key!r}"
    if not isinstance(gold["text"], str):
        return f"answer text must be a string, got {gold['text']!r}"
    start = gold["answer_start"]
    if isinstance(start, bool) or not isinstance(start, int):
        return f"answer_start must be an integer, got {start!r}"
    return None


def char_span_to_tokens(tokens, start_char, text):
    """Map a character-offset gold answer to a 1-based inclusive token span,
    or None when the characters do not line up with token boundaries."""
    end_char = start_char + len(text)
    first = last = None
    for i, token in enumerate(tokens):
        tok_start = token.char_offset
        tok_end = tok_start + len(token.surface)
        if first is None and tok_end > start_char:
            first = i
        if tok_start < end_char:
            last = i
    if first is None or last is None or last < first:
        return None
    covered = "".join(t.surface for t in tokens[first : last + 1])
    if covered != squeeze(text):
        return None
    return first + 1, last + 1


def convert(squad_path, annotations_path, out_path):
    for flag, path in (("--squad", squad_path), ("--annotations", annotations_path)):
        if os.path.realpath(path) == os.path.realpath(out_path):
            raise SystemExit(f"--out and {flag} name the same file: {out_path}")
    with stop_on_error(squad_path):
        squad = load_squad(squad_path)
    with stop_on_error(annotations_path):
        annotations = load_annotations(annotations_path)

    examples = []
    no_annotation = no_answers = skipped_answers = 0
    with stop_on_error(squad_path):
        for qa in iter_squad_questions(squad):
            qa_id = qa["id"]
            tokens = annotations.get(qa_id)
            if tokens is None:
                no_annotation += 1
                continue
            passage, question = tokens
            answers = []
            for gold in qa["answers"]:
                problem = answer_problem(gold)
                if problem:
                    raise DataError(f"question {qa_id}: {problem}")
                span = char_span_to_tokens(passage, gold["answer_start"], gold["text"])
                if span is None:
                    skipped_answers += 1
                    continue
                answer = AnswerSpan(span[0], span[1], gold["text"])
                if answer not in answers:
                    answers.append(answer)
            if not answers:
                no_answers += 1
                continue
            examples.append(Example(qa_id, passage, question, tuple(answers)))
    with stop_on_error(out_path):
        write_dataset_jsonl(examples, out_path)
    print(f"wrote {len(examples)} examples to {out_path}", file=sys.stderr)
    if no_annotation:
        print(f"dropped {no_annotation} questions with no annotation entry", file=sys.stderr)
    if no_answers:
        print(f"dropped {no_answers} questions with no mappable answer", file=sys.stderr)
    if skipped_answers:
        print(f"skipped {skipped_answers} individual unmappable answers", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--squad", required=True, help="raw SQuAD v1.1 JSON")
    parser.add_argument("--annotations", required=True, help="token annotation JSONL")
    parser.add_argument("--out", required=True, help="output dataset JSONL")
    args = parser.parse_args()
    convert(args.squad, args.annotations, args.out)


if __name__ == "__main__":
    main()
