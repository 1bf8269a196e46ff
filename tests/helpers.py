"""Shared builders for test data: tokens, examples, and on-disk fixtures."""

import json

import numpy as np

from chunkreader.corpus import AnnotatedToken, AnswerSpan, EmbeddingTable, Example


def make_token(surface, lemma=None, pos="NN", ne="O", offset=0):
    return AnnotatedToken(
        surface=surface,
        lemma=(lemma if lemma is not None else surface.lower()),
        pos=pos,
        ne=ne,
        char_offset=offset,
    )


def make_tokens(words, pos=None, ne=None):
    pos = pos or ["NN"] * len(words)
    ne = ne or ["O"] * len(words)
    toks = []
    off = 0
    for w, p, n in zip(words, pos, ne):
        toks.append(make_token(w, pos=p, ne=n, offset=off))
        off += len(w) + 1
    return tuple(toks)


def make_example(ex_id, passage_words, question_words, spans, **kw):
    """spans: list of (start, end) 1-based inclusive; text derived by join."""
    passage = make_tokens(passage_words, **kw)
    question = make_tokens(question_words)
    answers = tuple(
        AnswerSpan(s, e, " ".join(passage_words[s - 1 : e])) for s, e in spans
    )
    return Example(ex_id, passage, question, answers)


def token_dict(tok):
    return {
        "surface": tok.surface,
        "lemma": tok.lemma,
        "pos": tok.pos,
        "ne": tok.ne,
        "offset": tok.char_offset,
    }


def example_dict(ex):
    return {
        "id": ex.id,
        "passage": [token_dict(t) for t in ex.passage],
        "question": [token_dict(t) for t in ex.question],
        "answers": [{"start": a.start, "end": a.end, "text": a.text} for a in ex.answers],
    }


def write_jsonl(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_dict(ex)) + "\n")
    return path


def write_embeddings(path, entries, dim):
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in entries.items():
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    return path


def toy_embedding_table(words, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim, {w: rng.normal(size=dim) for w in words})


def edit_checkpoint(raw, old, new):
    """Checkpoint bytes with the first `old` replaced by `new`; an edit
    inside the manifest rewrites the manifest_bytes header to the edited
    manifest's length, so the header still parses."""
    magic, head, rest = raw.split(b"\n", 2)
    size = int(head.split(b" ")[1])
    manifest, blob = rest[:size], rest[size:]
    if old not in manifest:
        return raw.replace(old, new, 1)
    manifest = manifest.replace(old, new, 1)
    return b"\n".join([magic, b"manifest_bytes %d" % len(manifest), manifest + blob])


def assert_views_of_blocks(cell):
    """Each of a GRU cell's six parameters is exactly its slice of the
    cell's two stacked blocks: same memory, shape, strides and dtype."""
    for p, part in zip(cell.parameters().values(), [*cell.W_block, *cell.U_block]):
        assert p.data.__array_interface__ == part.__array_interface__
