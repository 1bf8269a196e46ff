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
the same model twice produces identical bytes. Loading requires each
settings line once and the cap to be max_chunk_len, rejects an unknown
key, a repeated pattern and a parameter holding a NaN or an infinity,
and ignores the trie lines older versions wrote for window models.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
from dataclasses import fields

import numpy as np

from . import numerics as nm
from .model import ChunkReaderModel, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "temporary_path"]

_MAGIC = "chunkreader-checkpoint 1"
_PIECE = 1 << 20  # bytes per manifest read: a header's size is not trusted
_FIXED = {"format_version": "1", "precision": "float64"}


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


_int = functools.partial(nm.read_int, error=CheckpointError)  # a manifest number


def _bool(text: str, what: str) -> bool:
    if text not in ("0", "1"):
        raise CheckpointError(f"{what} must be 0 or 1, got {text[:40]!r}")
    return text == "1"


# ModelConfig field type -> (value to manifest text, manifest text to value)
_CODECS = {
    "int": (str, _int),
    "bool": (lambda value: "1" if value else "0", _bool),
    "str": (str, lambda text, what: text),
    "tuple[str, ...]": (" ".join, lambda text, what: tuple(t for t in text.split(" ") if t)),
}


def _build_manifest(model: ChunkReaderModel) -> str:
    lines = [f"{key} {value}" for key, value in _FIXED.items()]
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


def load_checkpoint(path) -> ChunkReaderModel:
    with open(path, "rb") as fh:
        if _read_line(fh) != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        head = _read_line(fh).split(" ")
        if len(head) != 2 or head[0] != "manifest_bytes":
            raise CheckpointError("missing manifest_bytes header")
        manifest = _read_manifest(fh, _int(head[1], "manifest_bytes"))

        values: dict[str, str] = {}
        trie: dict[tuple[str, ...], int] = {}
        params: list[tuple[str, tuple[int, ...]]] = []
        for line in _decode(manifest, "manifest").splitlines():
            parts = line.split(" ")
            key = parts[0]
            if key == "trie_pattern":
                if len(parts) < 3:
                    raise CheckpointError(f"malformed trie pattern line: {line!r}")
                if (pattern := tuple(parts[2:])) in trie:
                    raise CheckpointError(f"manifest repeats trie pattern {pattern!r}")
                trie[pattern] = _int(parts[1], "trie pattern count")
            elif key == "param":
                if len(parts) < 3:
                    raise CheckpointError(f"malformed param line: {line!r}")
                params.append((parts[1], tuple(_int(d, f"{parts[1]} shape") for d in parts[2:])))
            elif key in values:
                raise CheckpointError(f"manifest repeats {key!r}")
            else:
                values[key] = " ".join(parts[1:])

        settings = fields(ModelConfig)
        required = [*_FIXED, *(f.name for f in settings)]
        if values.get("candidate_mode") == "trie":
            required.append("trie_depth_cap")
        for key in required:
            if key not in values:
                raise CheckpointError(f"manifest missing {key}")
        for key in values:
            if key not in required and key != "trie_depth_cap":  # the cap is ignored in window mode
                raise CheckpointError(f"unknown manifest key {key!r}")
        for key, expected in _FIXED.items():
            if values[key] != expected:
                raise CheckpointError(f"unsupported {key} {values[key][:40]!r}")

        decoded = {f.name: _CODECS[f.type][1](values[f.name], f.name) for f in settings}
        try:
            config = ModelConfig(**decoded)
            if config.candidate_mode != "trie":
                trie = None  # the trie lines older versions wrote for window models
            elif (cap := _int(values["trie_depth_cap"], "trie_depth_cap")) != config.max_chunk_len:
                raise ValueError(f"trie depth cap {cap} differs from max_chunk_len {config.max_chunk_len}")
            model = ChunkReaderModel(config, trie)
        except (ValueError, MemoryError) as exc:  # settings no model accepts or fits
            raise CheckpointError(f"invalid model settings: {exc}") from None

        expected = model.parameters()
        if [n for n, _ in params] != list(expected):
            raise CheckpointError("parameter catalog does not match the architecture")
        for name, shape in params:
            p = expected[name]
            if p.data.shape != shape:
                raise CheckpointError(
                    f"parameter {name}: manifest shape {shape} vs model shape {p.data.shape}"
                )
            n_bytes = int(np.prod(shape)) * 8
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise CheckpointError(f"blob truncated at parameter {name}")
            values = np.frombuffer(raw, dtype="<f8")
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"parameter {name} holds a non-finite value")
            p.data[...] = values.reshape(shape)
        if fh.read(1):
            raise CheckpointError("trailing bytes after parameter blob")
    return model
