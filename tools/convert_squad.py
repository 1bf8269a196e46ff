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
dropped. Counts for both go to stderr. An annotation token that the
corpus loader would reject (a missing key, a non-string surface, an
offset that is not an integer), or an annotation line that is not a
JSON object, stops the conversion with `path:line:` and the reason. A
SQuAD file that is not JSON or lacks `data`, `paragraphs`, `qas` or a
question `id` stops it with `path:` and the reason; a question without
`answers`, or an answer without a string `text` or an integer
`answer_start`, stops it with `path: question <id>:` and the reason.
"""

import argparse
import json
import sys

TOKEN_KEYS = ("surface", "lemma", "pos", "ne", "offset")


def squeeze(text):
    return "".join(text.split())


def load_squad(path):
    """The parsed SQuAD file; a file that is not JSON stops the conversion."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}: not JSON: {exc.msg}") from None


def _list_under(obj, key):
    """obj[key] when obj is an object holding a list there, else None."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return value if isinstance(value, list) else None


def iter_squad_questions(squad, path):
    """Every question of the file, each an object with an `id` and an
    `answers` list; anything else on the way stops the conversion."""
    articles = _list_under(squad, "data")
    if articles is None:
        raise SystemExit(f"{path}: missing 'data' list")
    for article in articles:
        paragraphs = _list_under(article, "paragraphs")
        if paragraphs is None:
            raise SystemExit(f"{path}: article missing 'paragraphs' list")
        for paragraph in paragraphs:
            qas = _list_under(paragraph, "qas")
            if qas is None:
                raise SystemExit(f"{path}: paragraph missing 'qas' list")
            for qa in qas:
                if not isinstance(qa, dict) or "id" not in qa:
                    raise SystemExit(f"{path}: question missing 'id'")
                if _list_under(qa, "answers") is None:
                    raise SystemExit(f"{path}: question {qa['id']}: missing 'answers' list")
                yield qa


def load_annotations(path):
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{line_no}: not JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise SystemExit(f"{path}:{line_no}: annotation must be an object")
            for key in ("id", "passage", "question"):
                if key not in obj:
                    raise SystemExit(f"{path}:{line_no}: annotation missing {key!r}")
            for side in ("passage", "question"):
                if not isinstance(obj[side], list):
                    raise SystemExit(f"{path}:{line_no}: {side} must be an array")
                for token in obj[side]:
                    problem = token_problem(token)
                    if problem:
                        raise SystemExit(f"{path}:{line_no}: {side} token {problem}")
            table[str(obj["id"])] = obj
    return table


def token_problem(token):
    """Why the corpus loader would reject this token (or the alignment
    below could not read it), or None when it is well formed."""
    if not isinstance(token, dict):
        return "is not an object"
    missing = [k for k in TOKEN_KEYS if k not in token]
    if missing:
        return f"missing keys {missing}"
    if not isinstance(token["surface"], str):
        return f"surface must be a string, got {token['surface']!r}"
    offset = token["offset"]
    if isinstance(offset, bool) or not isinstance(offset, int):
        return f"offset must be an integer, got {offset!r}"
    return None


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
        tok_start = token["offset"]
        tok_end = tok_start + len(token["surface"])
        if first is None and tok_end > start_char:
            first = i
        if tok_start < end_char:
            last = i
    if first is None or last is None or last < first:
        return None
    covered = "".join(t["surface"] for t in tokens[first : last + 1])
    if covered != squeeze(text):
        return None
    return first + 1, last + 1


def convert(squad_path, annotations_path, out_path):
    squad = load_squad(squad_path)
    annotations = load_annotations(annotations_path)

    written = no_annotation = no_answers = skipped_answers = 0
    with open(out_path, "w", encoding="utf-8") as out:
        for qa in iter_squad_questions(squad, squad_path):
            qa_id = str(qa["id"])
            anno = annotations.get(qa_id)
            if anno is None:
                no_annotation += 1
                continue
            answers = []
            seen = set()
            for gold in qa["answers"]:
                problem = answer_problem(gold)
                if problem:
                    raise SystemExit(f"{squad_path}: question {qa_id}: {problem}")
                span = char_span_to_tokens(anno["passage"], gold["answer_start"], gold["text"])
                if span is None:
                    skipped_answers += 1
                    continue
                key = (span[0], span[1], gold["text"])
                if key in seen:
                    continue
                seen.add(key)
                answers.append({"start": span[0], "end": span[1], "text": gold["text"]})
            if not answers:
                no_answers += 1
                continue
            out.write(json.dumps({
                "id": qa_id,
                "passage": anno["passage"],
                "question": anno["question"],
                "answers": answers,
            }) + "\n")
            written += 1
    print(f"wrote {written} examples to {out_path}", file=sys.stderr)
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
