"""SQuAD v1.1 input: the official SQuAD JSON (data -> paragraphs -> qas)
joined with token annotations into dataset examples.

The library never runs a tagger, so the annotations come from outside,
as JSONL with one object per question id:

    {"id": "<qa id>", "passage": [token, ...], "question": [token, ...]}

where a token is the dataset schema's {"surface", "lemma", "pos", "ne",
"offset"}, and `offset` is its character offset into the raw context or
question string, which is how gold character spans map to token spans.
Both files are read by `corpus`'s own readers: each annotation record is
checked by the loader's own `parse_record`, and every field of the SQuAD
file is read by `corpus.json_field`, so a malformed input raises one of
its three one-line `DataError`s (`<where> is not an object`, `<where>
missing '<key>'`, `<where> <key> must be <kind>, got <value>`), naming
its line, its 1-based article, paragraph and question, or its question
id. `convert_squad` skips an answer that does not line up with token
boundaries (whitespace ignored), drops a question with no mappable
answer or no annotation entry, counts both, and prints nothing.
"""

from __future__ import annotations

from .corpus import AnswerSpan, DataError, Example, json_field, json_lines, parse_json
from .corpus import parse_record, squeeze, text_lines

__all__ = ["load_squad", "iter_squad_questions", "load_annotations", "char_span_to_tokens",
           "convert_squad"]


def load_squad(path):
    """The parsed SQuAD file."""
    return parse_json("".join(line for _, line in text_lines(path)), 1)


def iter_squad_questions(squad):
    """(id, [(text, answer_start), ...]) for every question of the file,
    annotated or not; anything malformed raises json_field's DataError,
    naming `article N paragraph M question K` (1-based) or the id."""
    seen = set()
    for a, article in enumerate(json_field(squad, "data", list, "file"), 1):
        for p, paragraph in enumerate(json_field(article, "paragraphs", list, f"article {a}"), 1):
            place = f"article {a} paragraph {p}"
            for q, qa in enumerate(json_field(paragraph, "qas", list, place), 1):
                qa_id = json_field(qa, "id", str, f"{place} question {q}")
                if qa_id in seen:
                    raise DataError(f"question {qa_id}: id repeats an earlier question")
                seen.add(qa_id)
                where = f"question {qa_id}: answer"
                yield qa_id, [
                    (json_field(gold, "text", str, where), json_field(gold, "answer_start", int, where))
                    for gold in json_field(qa, "answers", list, f"question {qa_id}")
                ]


def load_annotations(path):
    """Question id -> (passage tokens, question tokens); a line that
    `parse_record` rejects raises DataError citing it."""
    table = {}
    ids = {}
    for line_no, obj in json_lines(path):
        qa_id, passage, question = parse_record(obj, line_no, ids)
        table[qa_id] = (passage, question)
    return table


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
    for qa_id, golds in iter_squad_questions(squad):
        tokens = annotations.get(qa_id)
        if tokens is None:
            no_annotation += 1
            continue
        passage, question = tokens
        answers = []
        for text, start in golds:
            span = char_span_to_tokens(passage, start, text)
            if span is None:
                skipped_answers += 1
                continue
            answer = AnswerSpan(span[0], span[1], text)
            if answer not in answers:
                answers.append(answer)
        if not answers:
            no_answers += 1
            continue
        examples.append(Example(qa_id, passage, question, tuple(answers)))
    return examples, no_annotation, no_answers, skipped_answers
