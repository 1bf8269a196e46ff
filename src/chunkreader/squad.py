"""SQuAD v1.1 input: the official SQuAD JSON (data -> paragraphs -> qas)
joined with token annotations into dataset examples.

The library never runs a tagger, so the annotations come from outside,
as JSONL with one object per question id:

    {"id": "<qa id>", "passage": [token, ...], "question": [token, ...]}

where a token is the dataset schema's {"surface", "lemma", "pos", "ne",
"offset"}, and `offset` is its character offset into the raw context or
question string, which is how gold character spans map to token spans.
Both files are read by `corpus`'s own readers, and each annotation record
is checked by the loader's own `parse_record`; any malformed input raises
`DataError` naming its line or question. `convert_squad` skips an answer
that does not line up with token boundaries (whitespace ignored), drops a
question with no mappable answer or no annotation entry, counts both, and
prints nothing.
"""

from __future__ import annotations

from .corpus import AnswerSpan, DataError, Example, json_lines, parse_json, parse_record
from .corpus import squeeze, text_lines

__all__ = ["load_squad", "iter_squad_questions", "load_annotations", "answer_problem",
           "char_span_to_tokens", "convert_squad"]


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


def convert_squad(squad, annotations):
    """The examples of the parsed SQuAD file whose questions have an
    annotation entry (`load_annotations`) and a mappable answer, in file
    order, with the counts of questions dropped for no annotation entry,
    of questions dropped for no mappable answer, and of answers skipped.
    A malformed question or answer raises DataError naming its question."""
    examples = []
    no_annotation = no_answers = skipped_answers = 0
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
    return examples, no_annotation, no_answers, skipped_answers
