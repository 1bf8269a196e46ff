"""Data model: annotated examples, embeddings, and per-word input features.

The library consumes pre-tokenized, pre-tagged data; tokenization and
tagging live upstream. Each word is featurized into six concatenated
parts: pretrained embedding, POS one-hot, NE one-hot, and three binary
indicators (surface match against the question, lemma match against the
question, first-letter capitalization).

Every JSON input is parsed by `parse_json` (line by line through
`json_lines`), and every field of a parsed object is read by one checked
accessor, `json_field(obj, key, kind, where)`, whose DataError takes one
of three one-line forms: `<where> is not an object`, `<where> missing
'<key>'` or `<where> <key> must be <kind>, got <value>`. On it rest
`parse_token` (an annotated token), `parse_id` (a record id) and
`parse_record` (the id, passage and question of an annotated record).

All structures are immutable after load and safe to share across workers.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .numerics import is_int

__all__ = [
    "DataError",
    "AnnotatedToken",
    "AnswerSpan",
    "Example",
    "LoadResult",
    "EmbeddingTable",
    "Featurizer",
    "load_dataset",
    "load_embeddings",
    "text_lines",
    "parse_json",
    "json_lines",
    "json_field",
    "parse_token",
    "parse_id",
    "parse_record",
    "squeeze",
    "build_tag_inventories",
    "serializable_tag",
    "detokenize",
]


class DataError(ValueError):
    """Input the library cannot use: a malformed file (the message cites
    the offending line), an example set with nothing to train on or to
    score, or a model whose answers are not finite. The CLI exits 2."""


@dataclass(frozen=True)
class AnnotatedToken:
    """One word with its annotations.

    char_offset is the 0-based character position of the token in the
    original untokenized text; the library carries it through untouched.
    """

    surface: str
    lemma: str
    pos: str
    ne: str
    char_offset: int


@dataclass(frozen=True)
class AnswerSpan:
    """Gold answer as a 1-based inclusive token range plus its raw text."""

    start: int
    end: int
    text: str

    def __post_init__(self):
        if not (is_int([self.start, self.end]) and 1 <= self.start <= self.end):
            raise DataError(f"invalid span [{self.start!r}, {self.end!r}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Example:
    id: str
    passage: tuple[AnnotatedToken, ...]
    question: tuple[AnnotatedToken, ...]
    answers: tuple[AnswerSpan, ...]


@dataclass
class LoadResult:
    """Loaded examples plus (line number, reason) for each rejected record."""

    examples: list[Example]
    dropped: list[tuple[int, str]]


# bytes that are not UTF-8 decode to these lone surrogates under the
# "surrogateescape" handler, and text that is UTF-8 never holds them
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def text_lines(path):
    """Yield (line number, line) over a UTF-8 text file, 1-based, with
    universal newlines; a line holding bytes that are not UTF-8 raises
    DataError citing it."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODABLE.search(line):
                raise DataError(f"line {line_no}: not valid UTF-8")
            yield line_no, line


def parse_json(text: str, line_no: int):
    """json.loads(text) for text that begins on line line_no of its file;
    the one place where a JSON failure becomes a DataError citing a line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {line_no + exc.lineno - 1}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError):  # an integer too long, nesting too deep
        raise DataError(f"line {line_no}: invalid JSON: beyond the parser's limits") from None


def json_lines(path):
    """Yield (line number, parsed object) for each non-blank line of a
    JSON-lines file, raising the DataErrors of text_lines and parse_json."""
    for line_no, line in text_lines(path):
        line = line.strip()
        if line:
            yield line_no, parse_json(line, line_no)


def detokenize(tokens: Sequence[AnnotatedToken]) -> str:
    """Join token surfaces with single spaces."""
    return " ".join(t.surface for t in tokens)


def squeeze(text: str) -> str:
    """Remove all whitespace. Span text arrives from untokenized sources, so
    'round-trips through the tokens' is checked ignoring spacing entirely
    (a token split like 51.9 + % would otherwise never match '51.9%')."""
    return "".join(text.split())


_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def json_field(obj, key: str, kind: type, where: str):
    """obj[key] when obj is a parsed JSON object (a dict) holding a `kind`
    value there: dict, list, str or int, where a bool is never an int.
    Anything else raises DataError: `<where> is not an object`, `<where>
    missing '<key>'` or `<where> <key> must be <kind>, got <value>`, the
    value cut short by reprlib (a whole SQuAD article list, say)."""
    if type(obj) is not dict:
        raise DataError(f"{where} is not an object")
    if key not in obj:
        raise DataError(f"{where} missing {key!r}")
    value = obj[key]
    if type(value) is not kind:  # a parsed value is exactly one of the JSON types
        raise DataError(f"{where} {key} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def parse_id(obj, line_no: int, seen: dict[str, int], where: str) -> str:
    """The string `id` of the object on line line_no (`json_field`, citing
    `where`), which no earlier record of its file may have used; `seen`
    maps each id read so far to its line and gains this one."""
    value = json_field(obj, "id", str, where)
    first = seen.setdefault(value, line_no)
    if first != line_no:
        raise DataError(f"line {line_no}: id {value!r} repeats line {first}")
    return value


_TOKEN_FIELDS = (("surface", str), ("lemma", str), ("pos", str), ("ne", str), ("offset", int))
_TOKEN_KEYS = frozenset(key for key, _ in _TOKEN_FIELDS)
_token_values = itemgetter(*(key for key, _ in _TOKEN_FIELDS))


def parse_token(obj, line_no: int, side: str) -> AnnotatedToken:
    """The token of a parsed JSON object with string `surface`, `lemma`,
    `pos` and `ne` and an integer `offset` (other keys are ignored); any
    other value raises json_field's DataError citing `line <line_no>:
    <side> token`."""
    if type(obj) is dict and _TOKEN_KEYS <= obj.keys():
        surface, lemma, pos, ne, offset = values = _token_values(obj)
        if type(surface) is type(lemma) is type(pos) is type(ne) is str and type(offset) is int:
            return AnnotatedToken(*values)
    where = f"line {line_no}: {side} token"
    return AnnotatedToken(*[json_field(obj, key, kind, where) for key, kind in _TOKEN_FIELDS])


def parse_record(
    obj, line_no: int, seen: dict[str, int]
) -> tuple[str, tuple[AnnotatedToken, ...], tuple[AnnotatedToken, ...]]:
    """The (id, passage, question) of the record on line line_no: an object
    whose `id` parse_id accepts and whose `passage` and `question` are
    arrays of tokens parse_token accepts; else DataError citing the line."""
    where = f"line {line_no}: record"
    ex_id = parse_id(obj, line_no, seen, where)
    passage, question = (
        tuple([parse_token(t, line_no, side) for t in json_field(obj, side, list, where)])
        for side in ("passage", "question")
    )
    return ex_id, passage, question


def _validate_example(ex_id: str, passage, question, raw_answers) -> Example | str:
    """Content checks; returns the Example or a rejection reason string."""
    if not passage:
        return "empty passage"
    if not question:
        return "empty question"
    for tok in passage + question:
        if not tok.surface:
            return "empty token surface"
    answers = []
    for a in raw_answers:
        start, end, text = a
        if start < 1 or end < start or end > len(passage):
            return f"span [{start}, {end}] out of range for {len(passage)} tokens"
        joined = detokenize(passage[start - 1 : end])
        if squeeze(joined) != squeeze(text):
            return f"span text {text!r} does not match passage tokens {joined!r}"
        answers.append(AnswerSpan(start, end, text))
    return Example(ex_id, passage, question, tuple(answers))


def load_dataset(path) -> LoadResult:
    """Read examples from a JSONL file, one object per line.

    Schema violations (bad JSON, bytes that are not UTF-8, a record that
    parse_record rejects, a missing or non-array `answers`, an answer
    without an integer `start` and `end` and a string `text`, each field
    read by json_field) raise DataError citing the line. Content
    violations (empty passage or question, span out of range, span text
    not matching the tokens, empty surfaces) drop the record and log the
    reason in LoadResult.dropped instead of failing the whole load.
    """
    examples: list[Example] = []
    dropped: list[tuple[int, str]] = []
    ids: dict[str, int] = {}
    for line_no, obj in json_lines(path):
        ex_id, passage, question = parse_record(obj, line_no, ids)
        where = f"line {line_no}: answer"
        raw_answers = [
            (json_field(a, "start", int, where), json_field(a, "end", int, where),
             json_field(a, "text", str, where))
            for a in json_field(obj, "answers", list, f"line {line_no}: record")
        ]
        got = _validate_example(ex_id, passage, question, raw_answers)
        if isinstance(got, str):
            dropped.append((line_no, got))
        else:
            examples.append(got)
    return LoadResult(examples, dropped)


class EmbeddingTable:
    """Word to vector map with a fixed dimension.

    Lookup tries the exact surface, then its lowercasing (pretrained tables
    are usually uncased), then falls back to a zero vector. Out-of-
    vocabulary words therefore contribute nothing to the embedding block.
    """

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        if not is_int([dim]):
            raise ValueError(f"dim must be an int, got {dim!r}")
        self.dim = dim
        self.entries = entries
        self._zero = np.zeros(self.dim)

    def lookup(self, word: str) -> np.ndarray:
        hit = self.entries.get(word)
        if hit is None:
            hit = self.entries.get(word.lower())
        return self._zero if hit is None else hit


def load_embeddings(path, dim: int | None = None) -> EmbeddingTable:
    """Parse a text embedding file: `word v1 ... v_dim` per line.

    A line whose field count disagrees with dim (None: the first line's
    width, which must hold a value), or with a value that is not a finite
    number (nan and inf parse as floats but would poison every feature row
    of the word) read from ASCII text without `_` or whitespace other than
    the separating spaces, the rule of a float setting, raises DataError
    citing the line, as does an empty file without dim. Every line is
    checked; a repeated word keeps its first vector.
    """
    entries: dict[str, np.ndarray] = {}
    for line_no, line in text_lines(path):
        text = line.rstrip("\n")
        parts = text.split(" ")
        if len(parts) - 1 != dim:
            if dim is not None or len(parts) < 2:
                wanted = "some" if dim is None else dim
                raise DataError(
                    f"line {line_no}: expected word + {wanted} values, got {len(parts)} fields"
                )
            dim = len(parts) - 1  # the first line sets the width
        values = text[len(parts[0]) :]  # checked once per line: float() reads `1_0`, `٣` and `\t3`
        if not values.isascii() or any(ch in values for ch in "_\t\r\x0b\x0c"):
            raise DataError(f"line {line_no}: non-numeric embedding value")
        try:
            vec = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric embedding value") from None
        if not np.all(np.isfinite(vec)):
            raise DataError(f"line {line_no}: non-finite embedding value")
        entries.setdefault(parts[0], vec)
    if dim is None:
        raise DataError("embedding file is empty")
    return EmbeddingTable(dim, entries)


def serializable_tag(tag: str) -> bool:
    """Whether a checkpoint can store the tag in its space-joined inventory
    line: non-empty and free of whitespace."""
    return bool(tag) and not any(ch.isspace() for ch in tag)


def build_tag_inventories(examples: Iterable[Example]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Collect sorted unique POS and NE tags over all passages and questions.

    Sorting fixes the one-hot layout; the inventories persist with the
    model checkpoint so reloads reproduce it exactly, so a tag the
    checkpoint cannot store (see serializable_tag) raises DataError naming
    it, before any training.
    """
    pos_tags: set[str] = set()
    ne_tags: set[str] = set()
    for ex in examples:
        for tok in ex.passage + ex.question:
            pos_tags.add(tok.pos)
            ne_tags.add(tok.ne)
    inventories = tuple(sorted(pos_tags)), tuple(sorted(ne_tags))
    for tag in inventories[0] + inventories[1]:
        if not serializable_tag(tag):
            raise DataError(f"tag {tag!r} cannot be serialized (whitespace)")
    return inventories


class Featurizer:
    """Per-word input vectors, with tag index maps precomputed.

    Layout of a word's row, in order: [embedding | POS one-hot | NE one-hot
    | surface-match | lemma-match | capitalized]. Surface match against the
    question is exact and case sensitive; lemma match is case insensitive;
    capitalized means the first character is an uppercase letter. A tag
    outside the inventory leaves its one-hot block all zero.
    """

    def __init__(
        self,
        table: EmbeddingTable,
        pos_tags: Sequence[str],
        ne_tags: Sequence[str],
    ):
        self.table = table
        self.pos_tags = tuple(pos_tags)
        self.ne_tags = tuple(ne_tags)
        self._pos_index = {t: i for i, t in enumerate(self.pos_tags)}
        self._ne_index = {t: i for i, t in enumerate(self.ne_tags)}
        self.width = table.dim + len(self.pos_tags) + len(self.ne_tags) + 3

    def _fill(self, out: np.ndarray, token: AnnotatedToken, s_match, l_match) -> None:
        d = self.table.dim
        out[:d] = self.table.lookup(token.surface)
        p = self._pos_index.get(token.pos)
        if p is not None:
            out[d + p] = 1.0
        n = self._ne_index.get(token.ne)
        if n is not None:
            out[d + len(self.pos_tags) + n] = 1.0
        base = d + len(self.pos_tags) + len(self.ne_tags)
        out[base] = 1.0 if s_match else 0.0
        out[base + 1] = 1.0 if l_match else 0.0
        out[base + 2] = 1.0 if token.surface[:1].isupper() else 0.0

    def passage_matrix(self, ex: Example) -> np.ndarray:
        """(|passage|, width) feature matrix for one example's passage."""
        surfaces = {q.surface for q in ex.question}
        lemmas = {q.lemma.lower() for q in ex.question}
        out = np.zeros((len(ex.passage), self.width))
        for i, tok in enumerate(ex.passage):
            self._fill(out[i], tok, tok.surface in surfaces, tok.lemma.lower() in lemmas)
        return out

    def question_matrix(self, ex: Example) -> np.ndarray:
        """(|question|, width) matrix; question words trivially match
        themselves, so both match bits are fixed at 1 to keep the input
        layout identical to the passage side."""
        out = np.zeros((len(ex.question), self.width))
        for i, tok in enumerate(ex.question):
            self._fill(out[i], tok, True, True)
        return out
