"""Model persistence: a text manifest followed by one binary blob.

Layout of a checkpoint file:

    chunkreader-checkpoint 1\n          fixed magic + format version
    manifest_bytes <N>\n                 byte length of the manifest text
    <manifest, exactly N bytes of UTF-8 key-value lines>
    <blob: little-endian float64, parameters in manifest order>

The manifest pins everything needed to rebuild the model object: the
fixed `format_version 1` and `precision float64` lines, then the
settings lines, one `name value` line per `ModelConfig` field in
declaration order (tag inventories last; an int as digits, a bool as 0
or 1, tags space-joined), then in trie mode `trie_depth_cap` (always
max_chunk_len) and a `trie_pattern <count> <tags>` line per pattern in
sorted order, then the name and shape of every parameter tensor. Saving
the same model twice produces identical bytes.

Loading has one rule: a file loads only if its manifest is the one its
model writes. The loader reads the settings lines (each required) and, in
trie mode, the trie_pattern lines, builds that model, refuses the file at
the first line where the model's manifest differs, then reads the blob by
the model's parameter catalog, refusing a NaN or an infinity. So only
`_build_manifest` knows the layout, and a spelling it does not write (a
leading zero, a doubled space, a repeated or unknown line) does not load.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import re
import reprlib
from dataclasses import fields

import numpy as np

from . import numerics as nm
from .model import ChunkReaderModel, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "temporary_path"]

_MAGIC = "chunkreader-checkpoint 1"
_PIECE = 1 << 20  # bytes per manifest read: a header's size is not trusted
_LINE = re.compile(r"[^\n]*\n|[^\n]+")  # a manifest line with its newline, or a last unended one


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


_int = functools.partial(nm.read_int, error=CheckpointError)  # a manifest number

# ModelConfig field type -> (value to manifest text, manifest text to value);
# a decoder may be lax, since a spelling the encoder would not write fails
# the comparison with the loaded model's own manifest
_CODECS = {
    "int": (str, _int),
    "bool": (lambda value: "1" if value else "0", lambda text, what: text == "1"),
    "str": (str, lambda text, what: text),
    "tuple[str, ...]": (" ".join, lambda text, what: tuple(t for t in text.split(" ") if t)),
}


def _build_manifest(model: ChunkReaderModel) -> str:
    lines = ["format_version 1", "precision float64"]
    for f in fields(ModelConfig):
        lines.append(f"{f.name} {_CODECS[f.type][0](getattr(model.config, f.name))}")
    if model.trie is not None:
        lines.append(f"trie_depth_cap {model.config.max_chunk_len}")
        for pattern, count in sorted(model.trie.items()):
            lines.append(f"trie_pattern {count} " + " ".join(pattern))
    for name, p in model.parameters().items():
        dims = " ".join(str(s) for s in p.data.shape)
        lines.append(f"param {name} {dims}")
    return "\n".join(lines) + "\n"


def temporary_path(path) -> str:
    """The file `save_checkpoint` writes before renaming it onto path."""
    return f"{os.fspath(path)}.tmp"


def save_checkpoint(model: ChunkReaderModel, path) -> None:
    """Write the checkpoint to `temporary_path(path)`, then rename it onto
    path, so a write that fails part-way leaves a file already at path
    whole; the temporary file is removed on any failure."""
    manifest = _build_manifest(model).encode("utf-8")
    tmp = temporary_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{_MAGIC}\n".encode("ascii"))
            fh.write(f"manifest_bytes {len(manifest)}\n".encode("ascii"))
            fh.write(manifest)
            for p in model.parameters().values():
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not UTF-8") from None


def _read_line(fh: io.BufferedReader) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise CheckpointError("truncated header")
    return _decode(raw[:-1], "header")


def _read_manifest(fh: io.BufferedReader, size: int) -> bytes:
    """The next size bytes, read at most _PIECE at a time, so a header that
    claims more than the file holds is a short read, not one huge
    allocation; a pipe has no size to check the claim against first."""
    pieces = []
    while size > 0:
        piece = fh.read(min(size, _PIECE))
        if not piece:
            raise CheckpointError("truncated manifest")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_model(manifest: str) -> ChunkReaderModel:
    """The model that the manifest's settings lines and, in trie mode, its
    trie_pattern lines describe; `_require_canonical` checks the rest."""
    lines = [line.partition(" ")[::2] for line in manifest.split("\n")]
    values = dict(reversed(lines))  # each key's first line; the comparison refuses a second
    settings = {}
    for f in fields(ModelConfig):
        if f.name not in values:
            raise CheckpointError(f"manifest missing {f.name}")
        settings[f.name] = _CODECS[f.type][1](values[f.name], f.name)
    trie = None
    if settings["candidate_mode"] == "trie":
        trie = {}
        for key, value in reversed(lines):  # a repeated pattern's first line, as above
            if key == "trie_pattern":
                count, _, tags = value.partition(" ")
                trie[tuple(tags.split(" "))] = _int(count, "trie pattern count")
    try:
        return ChunkReaderModel(ModelConfig(**settings), trie)
    except (ValueError, MemoryError) as exc:  # settings no model accepts or fits
        raise CheckpointError(f"invalid model settings: {exc}") from None


def _require_canonical(manifest: str, written: str) -> None:
    """Raise CheckpointError at the first line where the manifest differs
    from the one its model writes, naming its 1-based number, the line
    found and the line expected (with its newline, cut by reprlib)."""
    pairs = itertools.zip_longest(_LINE.findall(manifest), _LINE.findall(written))
    for number, pair in enumerate(pairs, start=1):
        if pair[0] != pair[1]:
            found, expected = ("the end of the manifest" if ln is None else reprlib.repr(ln) for ln in pair)
            raise CheckpointError(f"manifest line {number}: found {found}, expected {expected}")


def load_checkpoint(path) -> ChunkReaderModel:
    with open(path, "rb") as fh:
        if _read_line(fh) != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        head = _read_line(fh).split(" ")
        if len(head) != 2 or head[0] != "manifest_bytes":
            raise CheckpointError("missing manifest_bytes header")
        manifest = _decode(_read_manifest(fh, _int(head[1], "manifest_bytes")), "manifest")
        model = _read_model(manifest)
        _require_canonical(manifest, _build_manifest(model))
        for name, p in model.parameters().items():
            n_bytes = p.data.size * 8
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise CheckpointError(f"blob truncated at parameter {name}")
            values = np.frombuffer(raw, dtype="<f8")
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"parameter {name} holds a non-finite value")
            p.data[...] = values.reshape(p.data.shape)
        if fh.read(1):
            raise CheckpointError("trailing bytes after parameter blob")
    return model
